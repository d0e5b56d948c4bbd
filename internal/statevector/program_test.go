package statevector

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/testutil"
)

// TestRunProgramMatchesOracleBitwise pins the replay contract: the
// unfused compiled ops, replayed from a random basis state, are
// bit-for-bit identical to the naiveApply oracle for random circuits,
// width 1-12, any worker count.
func TestRunProgramMatchesOracleBitwise(t *testing.T) {
	workers := testutil.WorkerMatrix(t)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 3; trial++ {
			rng := mathx.NewRNG(uint64(4000*n + trial))
			c := randomCircuit(n, 30+3*n, rng)
			init := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
			want := naiveRunFrom(t, c, init)
			for _, w := range workers {
				got := replayFrom(t, c, init, false, w)
				for i := range want.amp {
					if got.amp[i] != want.amp[i] {
						t.Fatalf("n=%d trial=%d workers=%d amp[%d]: replay %v oracle %v",
							n, trial, w, i, got.amp[i], want.amp[i])
					}
				}
			}
		}
	}
}

// TestRunProgramFusedMatchesOracle pins the public entry point end to
// end: RunCtx's fused result agrees with the oracle within 1e-12 per
// amplitude (fusion reassociates floating-point products, so bitwise
// equality is not expected).
func TestRunProgramFusedMatchesOracle(t *testing.T) {
	for n := 1; n <= 12; n++ {
		rng := mathx.NewRNG(uint64(5000 * n))
		c := randomCircuit(n, 40+3*n, rng)
		want := naiveRunFrom(t, c, 0)
		got, err := RunCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.amp {
			dr := real(got.amp[i]) - real(want.amp[i])
			di := imag(got.amp[i]) - imag(want.amp[i])
			if math.Abs(dr) > 1e-12 || math.Abs(di) > 1e-12 {
				t.Fatalf("n=%d amp[%d]: RunCtx %v oracle %v", n, i, got.amp[i], want.amp[i])
			}
		}
	}
}

// TestProgramReplayIsReusable pins that one compiled op list replayed
// many times never drifts: every replay from the same init is bitwise
// identical, including replays interleaved with runs from other inits.
func TestProgramReplayIsReusable(t *testing.T) {
	const n = 8
	rng := mathx.NewRNG(321)
	c := randomCircuit(n, 50, rng)
	ops, err := compileOps(n, c.Gates, true)
	if err != nil {
		t.Fatal(err)
	}
	run := func(init bitstring.BitString) []complex128 {
		s, err := NewBasis(n, init)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.replay(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		return s.amp
	}
	first := run(0)
	other := run(5)
	again := run(0)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("amp[%d] drifted across replays: %v vs %v", i, first[i], again[i])
		}
	}
	diff := false
	for i := range first {
		if first[i] != other[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("replays from distinct inits produced identical states")
	}
}

// brickCircuit is layers rounds of H on every qubit followed by a CX
// chain: nothing fuses, so it compiles to layers·(2n−1) full passes.
func brickCircuit(n, layers int) *circuit.Circuit {
	c := circuit.New("brick", n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.H(q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
	}
	return c
}

// TestRunCtxDeadlineStopsMidRun: a deadline that expires during a deep
// 20-qubit run stops the replay between two ops. One layer is timed
// uncancelled; the deep run has 100 layers and a one-layer deadline, and
// must return context.DeadlineExceeded within a quarter of its estimated
// uncancelled time.
func TestRunCtxDeadlineStopsMidRun(t *testing.T) {
	const n, layers = 20, 100
	start := time.Now()
	if _, err := RunCtx(context.Background(), brickCircuit(n, 1)); err != nil {
		t.Fatal(err)
	}
	layer := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), layer)
	defer cancel()
	start = time.Now()
	_, err := RunCtx(ctx, brickCircuit(n, layers))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
	if budget := layers * layer / 4; elapsed > budget {
		t.Fatalf("cancelled run took %v, want < %v (one layer: %v)", elapsed, budget, layer)
	}
	if _, err := IdealDistCtx(ctx, brickCircuit(n, 1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("IdealDistCtx on an expired ctx: err %v, want context.DeadlineExceeded", err)
	}
}
