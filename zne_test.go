package qbeep

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestFoldQASM(t *testing.T) {
	src, err := BernsteinVaziraniQASM("101")
	if err != nil {
		t.Fatal(err)
	}
	folded, err := FoldQASMCtx(context.Background(), src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded, "OPENQASM 2.0;") {
		t.Fatal("not QASM")
	}
	// Folded program has (roughly 3x) more gate lines than the original.
	if strings.Count(folded, ";") <= strings.Count(src, ";") {
		t.Error("folding did not grow the program")
	}
	if _, err := FoldQASMCtx(context.Background(), src, 2); err == nil {
		t.Error("even scale should error")
	}
	if _, err := FoldQASMCtx(context.Background(), "garbage", 3); err == nil {
		t.Error("bad QASM should error")
	}
}

func TestFoldQASMSemanticsThroughSimulate(t *testing.T) {
	// The folded circuit's ideal distribution must equal the original's.
	secret := "1011"
	src, err := BernsteinVaziraniQASM(secret)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := FoldQASMCtx(context.Background(), src, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SimulateCtx(context.Background(), src, "galway", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateCtx(context.Background(), folded, "galway", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	fid, err := Fidelity(a.Ideal, b.Ideal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fid-1) > 1e-9 {
		t.Errorf("ideal distributions diverged: F=%v", fid)
	}
	// The folded induction must see a larger λ (more gates, longer
	// schedule) — that is the point of folding.
	if b.Lambda.Total() <= a.Lambda.Total() {
		t.Errorf("folding did not raise lambda: %v -> %v", a.Lambda.Total(), b.Lambda.Total())
	}
}

func TestExtrapolateZeroPublic(t *testing.T) {
	pts := []ZNEPoint{{Scale: 1, Value: 0.8}, {Scale: 3, Value: 0.6}}
	got, err := ExtrapolateZero(pts)
	if err != nil || math.Abs(got-0.9) > 1e-12 {
		t.Errorf("linear: %v, %v", got, err)
	}
	expPts := []ZNEPoint{
		{Scale: 1, Value: 0.9 * math.Exp(-0.2)},
		{Scale: 3, Value: 0.9 * math.Exp(-0.6)},
	}
	got, err = ExtrapolateZeroExp(expPts)
	if err != nil || math.Abs(got-0.9) > 1e-9 {
		t.Errorf("exp: %v, %v", got, err)
	}
	if _, err := ExtrapolateZero(nil); err == nil {
		t.Error("no points should error")
	}
	if _, err := ExtrapolateZeroExp([]ZNEPoint{{Scale: 1, Value: -1}, {Scale: 3, Value: 1}}); err == nil {
		t.Error("negative values should error for exp fit")
	}
}
