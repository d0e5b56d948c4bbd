package zne

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/statevector"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFoldValidation(t *testing.T) {
	c := circuit.New("x", 1).X(0)
	if _, err := Fold(c, 2); err == nil {
		t.Error("even scale should error")
	}
	if _, err := Fold(c, 0); err == nil {
		t.Error("zero scale should error")
	}
	if _, err := Fold(circuit.New("bad", 1).H(5), 3); err == nil {
		t.Error("broken circuit should error")
	}
}

func TestFoldScaleOneIsIdentity(t *testing.T) {
	c := circuit.New("mix", 2).H(0).T(1).CX(0, 1).RZ(0.4, 1).MeasureAll()
	f, err := Fold(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.GateCount() != c.GateCount() {
		t.Errorf("scale 1 changed gate count: %d vs %d", f.GateCount(), c.GateCount())
	}
}

func TestFoldTriplesGateCount(t *testing.T) {
	c := circuit.New("mix", 2).H(0).CX(0, 1).RZ(0.4, 1)
	f, err := Fold(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.GateCount() != 3*c.GateCount() {
		t.Errorf("scale 3 gate count %d want %d", f.GateCount(), 3*c.GateCount())
	}
	f5, _ := Fold(c, 5)
	if f5.GateCount() != 5*c.GateCount() {
		t.Errorf("scale 5 gate count %d want %d", f5.GateCount(), 5*c.GateCount())
	}
}

func TestFoldPreservesSemantics(t *testing.T) {
	rng := mathx.NewRNG(3)
	for trial := 0; trial < 8; trial++ {
		c := circuit.New("rand", 3)
		for i := 0; i < 20; i++ {
			switch rng.Intn(7) {
			case 0:
				c.H(rng.Intn(3))
			case 1:
				c.T(rng.Intn(3))
			case 2:
				c.RZ(rng.Uniform(-2, 2), rng.Intn(3))
			case 3:
				c.U3(rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Intn(3))
			case 4:
				c.SX(rng.Intn(3))
			case 5:
				a := rng.Intn(3)
				c.CX(a, (a+1)%3)
			case 6:
				c.RY(rng.Uniform(-2, 2), rng.Intn(3))
			}
		}
		for _, scale := range []int{3, 5} {
			f, err := Fold(c, scale)
			if err != nil {
				t.Fatal(err)
			}
			sa, err := statevector.RunCtx(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := statevector.RunCtx(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			fid, _ := sa.FidelityWith(sb)
			if !approx(fid, 1, 1e-9) {
				t.Fatalf("trial %d scale %d: folding changed semantics (F=%v)", trial, scale, fid)
			}
		}
	}
}

func TestFoldCCXSelfInverse(t *testing.T) {
	c := circuit.New("ccx", 3).X(0).X(1).CCX(0, 1, 2)
	f, err := Fold(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := statevector.RunCtx(context.Background(), c)
	sb, _ := statevector.RunCtx(context.Background(), f)
	fid, _ := sa.FidelityWith(sb)
	if !approx(fid, 1, 1e-12) {
		t.Errorf("CCX folding broke semantics: %v", fid)
	}
}

func TestExtrapolateLinearExact(t *testing.T) {
	// value = 0.9 - 0.1·scale.
	pts := []Point{{1, 0.8}, {3, 0.6}, {5, 0.4}}
	got, err := ExtrapolateLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 0.9, 1e-12) {
		t.Errorf("intercept %v want 0.9", got)
	}
	if _, err := ExtrapolateLinear(pts[:1]); err == nil {
		t.Error("single point should error")
	}
	if _, err := ExtrapolateLinear([]Point{{1, 1}, {1, 2}}); err == nil {
		t.Error("equal scales should error")
	}
}

func TestExtrapolateRichardsonQuadratic(t *testing.T) {
	// value = 1 - 0.2·s + 0.01·s²: Richardson through 3 points is exact.
	f := func(s float64) float64 { return 1 - 0.2*s + 0.01*s*s }
	pts := []Point{{1, f(1)}, {3, f(3)}, {5, f(5)}}
	got, err := ExtrapolateRichardson(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 1, 1e-12) {
		t.Errorf("Richardson %v want 1", got)
	}
	if _, err := ExtrapolateRichardson([]Point{{2, 1}, {2, 2}}); err == nil {
		t.Error("duplicate scales should error")
	}
}

func TestZNERecoversExpectationOnExecutor(t *testing.T) {
	// End-to-end: PST of a BV circuit decays with the fold scale; the
	// extrapolated zero-noise PST must beat the scale-1 measurement.
	b, err := device.ByName("galway")
	if err != nil {
		t.Fatal(err)
	}
	exec, err := noise.NewExecutor(b, noise.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	w, err := algorithms.BernsteinVazirani(6, 0b101101)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(9)
	var pts []Point
	var pst1 float64
	for _, scale := range []int{1, 3, 5} {
		folded, err := Fold(w.Circuit, scale)
		if err != nil {
			t.Fatal(err)
		}
		run, err := exec.ExecuteCtx(context.Background(), folded, 4096, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := w.MarginalCounts(run.Counts)
		if err != nil {
			t.Fatal(err)
		}
		p := counts.Prob(w.Expected)
		pts = append(pts, Point{Scale: float64(scale), Value: p})
		if scale == 1 {
			pst1 = p
		}
	}
	zero, err := ExtrapolateLinear(pts)
	if err != nil {
		t.Fatal(err)
	}
	if zero <= pst1 {
		t.Errorf("ZNE should beat the unmitigated value: %v vs %v (points %v)", zero, pst1, pts)
	}
	if zero > 1.1 {
		t.Errorf("extrapolation overshot implausibly: %v", zero)
	}
}

func TestExtrapolateExp(t *testing.T) {
	// value = 0.9·e^(-0.3·s): log-linear fit recovers 0.9 exactly.
	f := func(s float64) float64 { return 0.9 * math.Exp(-0.3*s) }
	pts := []Point{{1, f(1)}, {3, f(3)}, {5, f(5)}}
	got, err := ExtrapolateExp(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 0.9, 1e-9) {
		t.Errorf("exp intercept %v want 0.9", got)
	}
	if _, err := ExtrapolateExp([]Point{{1, 0.5}, {3, -0.1}}); err == nil {
		t.Error("non-positive values should error")
	}
	// The exponential model beats linear on geometric decay.
	lin, _ := ExtrapolateLinear(pts)
	if math.Abs(lin-0.9) < math.Abs(got-0.9) {
		t.Errorf("linear (%v) should not beat exponential (%v) on exponential data", lin, got)
	}
}
