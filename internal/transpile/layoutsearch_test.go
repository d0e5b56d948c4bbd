package transpile

import (
	"context"
	"errors"
	"testing"
	"time"

	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

func searchCircuit() *circuit.Circuit {
	c := circuit.New("chain", 6).H(0)
	for q := 0; q+1 < 6; q++ {
		c.CX(q, q+1)
	}
	return c.MeasureAll()
}

func TestSearchLayoutValidation(t *testing.T) {
	b := mustBackend(t, "istanbul")
	if _, err := SearchLayout(context.Background(), searchCircuit(), b, -1, 1); err == nil {
		t.Error("negative trials should error")
	}
}

func TestSearchLayoutZeroTrialsEqualsGreedy(t *testing.T) {
	b := mustBackend(t, "istanbul")
	c := searchCircuit()
	greedy, err := TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	searched, err := SearchLayout(context.Background(), c, b, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if searched.GatesAfter != greedy.GatesAfter || searched.Time != greedy.Time {
		t.Errorf("zero-trial search diverged from greedy: %d/%v vs %d/%v",
			searched.GatesAfter, searched.Time, greedy.GatesAfter, greedy.Time)
	}
}

func TestSearchLayoutNeverWorseThanGreedy(t *testing.T) {
	b := mustBackend(t, "nairobi2") // noisy machine: placement matters
	c := searchCircuit()
	greedy, err := TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	greedyScore, err := exposure(greedy, b)
	if err != nil {
		t.Fatal(err)
	}
	searched, err := SearchLayout(context.Background(), c, b, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	searchedScore, err := exposure(searched, b)
	if err != nil {
		t.Fatal(err)
	}
	if searchedScore > greedyScore {
		t.Errorf("search regressed exposure: %v > %v", searchedScore, greedyScore)
	}
	// The winner still respects the topology.
	for _, g := range searched.Circuit.Gates {
		if g.Kind == circuit.CX && !b.Topology.Connected(g.Qubits[0], g.Qubits[1]) {
			t.Errorf("topology violation: %v", g)
		}
	}
}

func TestSearchLayoutDeterministic(t *testing.T) {
	b := mustBackend(t, "kyiv")
	c := searchCircuit()
	a1, err := SearchLayout(context.Background(), c, b, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := SearchLayout(context.Background(), c, b, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a1.GatesAfter != a2.GatesAfter || a1.Time != a2.Time {
		t.Error("search not deterministic")
	}
	for i := range a1.Initial {
		if a1.Initial[i] != a2.Initial[i] {
			t.Fatal("layouts differ across identical runs")
		}
	}
}

// TestSearchLayoutHonoursCtx: a cancelled ctx fails both entry points
// with context.Canceled, and a deadline that expires mid-search stops
// it within a fraction of the uncancelled time instead of running every
// trial and returning success.
func TestSearchLayoutHonoursCtx(t *testing.T) {
	b := mustBackend(t, "kyiv")
	c := searchCircuit()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TranspileCtx(cancelled, c, b, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("TranspileCtx: err %v, want context.Canceled", err)
	}
	if _, err := SearchLayout(cancelled, c, b, 4, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchLayout: err %v, want context.Canceled", err)
	}

	const unitTrials, units = 20, 50
	start := time.Now()
	if _, err := SearchLayout(context.Background(), c, b, unitTrials, 1); err != nil {
		t.Fatal(err)
	}
	unit := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), unit)
	defer cancel()
	start = time.Now()
	_, err := SearchLayout(ctx, c, b, units*unitTrials, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
	if budget := units * unit / 4; elapsed > budget {
		t.Fatalf("cancelled search took %v, want < %v (one unit: %v)", elapsed, budget, unit)
	}
}

func TestExposureErrors(t *testing.T) {
	b := mustBackend(t, "kyiv")
	if _, err := exposure(nil, b); err == nil {
		t.Error("nil result should error")
	}
}

func TestRandomLayoutIsInjection(t *testing.T) {
	rngLayout := randomLayout(4, 10, mathx.NewRNG(99))
	if err := rngLayout.validate(10); err != nil {
		t.Fatal(err)
	}
	if len(rngLayout) != 4 {
		t.Fatalf("layout size %d", len(rngLayout))
	}
}
