package transpile

import (
	"context"
	"testing"

	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

func TestCommuteRZThroughCXControl(t *testing.T) {
	// RZ(a) q0 · CX(0,1) · RZ(b) q0 merges into one RZ.
	c := circuit.New("c", 2).RZ(0.3, 0).CX(0, 1).RZ(0.4, 0)
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CountKind(circuit.RZ) != 1 {
		t.Errorf("RZ count %d want 1: %s", opt.CountKind(circuit.RZ), opt)
	}
	equivalent(t, c, opt)
}

func TestCommuteRZBlockedByCXTarget(t *testing.T) {
	// RZ on the TARGET of CX does not commute: no merge.
	c := circuit.New("c", 2).RZ(0.3, 1).CX(0, 1).RZ(0.4, 1)
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CountKind(circuit.RZ) != 2 {
		t.Errorf("RZ count %d want 2 (blocked): %s", opt.CountKind(circuit.RZ), opt)
	}
	equivalent(t, c, opt)
}

func TestCommuteXThroughCXTarget(t *testing.T) {
	// X q1 · CX(0,1) · X q1 cancels (X commutes through the target).
	c := circuit.New("c", 2).X(1).CX(0, 1).X(1)
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CountKind(circuit.X) != 0 {
		t.Errorf("X count %d want 0: %s", opt.CountKind(circuit.X), opt)
	}
	equivalent(t, c, opt)
}

func TestCommuteXBlockedByCXControl(t *testing.T) {
	c := circuit.New("c", 2).X(0).CX(0, 1).X(0)
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CountKind(circuit.X) != 2 {
		t.Errorf("X count %d want 2 (blocked): %s", opt.CountKind(circuit.X), opt)
	}
	equivalent(t, c, opt)
}

func TestCommuteRZThroughCZ(t *testing.T) {
	c := circuit.New("c", 2).RZ(0.5, 0).CZ(0, 1).RZ(-0.5, 0)
	// CZ is not a basis gate, so route through Decompose first: the CZ
	// becomes H·CX·H on the target — RZ on qubit 0 (the control) still
	// commutes through.
	dec, err := Decompose(c)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(dec)
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.CountKind(circuit.RZ); got >= dec.CountKind(circuit.RZ) {
		t.Errorf("no merge happened: %d vs %d RZ", got, dec.CountKind(circuit.RZ))
	}
	equivalent(t, c, opt)
}

func TestCommuteBarrierBlocks(t *testing.T) {
	c := circuit.New("c", 2).RZ(0.3, 0).Barrier().RZ(0.4, 0)
	opt, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if opt.CountKind(circuit.RZ) != 2 {
		t.Errorf("RZ merged across barrier: %s", opt)
	}
}

func TestCommutePreservesSemanticsRandom(t *testing.T) {
	rng := mathx.NewRNG(91)
	for trial := 0; trial < 12; trial++ {
		c := circuit.New("rand", 3)
		for i := 0; i < 30; i++ {
			switch rng.Intn(5) {
			case 0:
				c.RZ(rng.Uniform(-3, 3), rng.Intn(3))
			case 1:
				c.X(rng.Intn(3))
			case 2:
				c.SX(rng.Intn(3))
			case 3, 4:
				a := rng.Intn(3)
				b := (a + 1 + rng.Intn(2)) % 3
				c.CX(a, b)
			}
		}
		opt, err := Optimize(c)
		if err != nil {
			t.Fatal(err)
		}
		equivalent(t, c, opt)
		if opt.GateCount() > c.GateCount() {
			t.Error("optimizer grew the circuit")
		}
	}
}

func TestCommuteReducesBVDepth(t *testing.T) {
	// The transpiled BV has interleaved RZ/CX patterns the commutation
	// pass can shrink; assert it never grows and semantics hold.
	b := mustBackend(t, "galway")
	c := circuit.New("bv-ish", 5).H(0).H(1).H(2).CX(0, 4).CX(2, 4).H(0).H(1).H(2)
	res, err := TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.GatesAfter > res.GatesBefore*6 {
		t.Errorf("unexpected blow-up: %d -> %d", res.GatesBefore, res.GatesAfter)
	}
}

func mustBackend(t *testing.T, name string) *device.Backend {
	t.Helper()
	b, err := device.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
