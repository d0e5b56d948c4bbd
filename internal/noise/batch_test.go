package noise

import (
	"context"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/testutil"
)

// oracleCircuits builds a spread of circuits for the replay-equivalence
// sweep: randomized widths 1-12 exercising every kernel, plus the
// structured circuit the determinism tests use.
func oracleCircuits() []*circuit.Circuit {
	var cs []*circuit.Circuit
	for n := 1; n <= 12; n += 3 {
		cs = append(cs, randomTrajCircuit(n, 15+2*n, mathx.NewRNG(uint64(100+n))))
	}
	cs = append(cs, circuit.New("struct", 5).H(0).CX(0, 1).RZ(0.7, 1).CX(1, 2).T(2).CX(2, 3).RX(0.3, 4).MeasureAll())
	return cs
}

// randomTrajCircuit draws length gates over a kernel-diverse kind set
// (measurement appended so the readout path runs).
func randomTrajCircuit(n, length int, rng *mathx.RNG) *circuit.Circuit {
	kinds := []circuit.Kind{
		circuit.X, circuit.Y, circuit.Z, circuit.H, circuit.S, circuit.T,
		circuit.SX, circuit.RX, circuit.RY, circuit.RZ, circuit.U3,
		circuit.CX, circuit.CZ, circuit.SWAP, circuit.CCX,
	}
	c := circuit.New("randtraj", n)
	for len(c.Gates) < length {
		k := kinds[rng.Intn(len(kinds))]
		a := k.Arity()
		if a > n {
			continue
		}
		qs := rng.Perm(n)[:a]
		var params []float64
		for p := 0; p < k.ParamCount(); p++ {
			params = append(params, rng.Uniform(-3, 3))
		}
		c.Append(circuit.Gate{Kind: k, Qubits: qs, Params: params})
	}
	return c.MeasureAll()
}

// requireSameDist fails unless the two distributions are bit-for-bit
// identical (same outcomes, same counts).
func requireSameDist(t *testing.T, label string, got, want *bitstring.Dist) {
	t.Helper()
	wantOut := want.Outcomes()
	if gotN, wantN := len(got.Outcomes()), len(wantOut); gotN != wantN {
		t.Fatalf("%s: %d outcomes, want %d", label, gotN, wantN)
	}
	for _, v := range wantOut {
		if got.Count(v) != want.Count(v) {
			t.Fatalf("%s: count[%v] = %v, want %v", label, v, got.Count(v), want.Count(v))
		}
	}
}

// TestTrajectoryMatchesPerGateOracle pins the compiled-replay rewrite to
// the retained per-gate reference implementation: identical counts for
// every circuit, seed and worker count — the replay engine changed the
// execution strategy, not one realized draw.
func TestTrajectoryMatchesPerGateOracle(t *testing.T) {
	b := testBackend(t)
	ts, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 200
	for ci, c := range oracleCircuits() {
		want, err := samplePerGateOracle(ref, c, 0, shots, mathx.NewRNG(uint64(50+ci)))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range testutil.WorkerMatrix(t) {
			ts.SetWorkers(w)
			got, err := ts.SampleCtx(context.Background(), c, 0, shots, mathx.NewRNG(uint64(50+ci)))
			if err != nil {
				t.Fatalf("circuit %d workers=%d: %v", ci, w, err)
			}
			requireSameDist(t, c.Name, got, want)
		}
	}
}

// TestExecuteBatchDeterministicAcrossBlocks pins the blocked execute
// path: for a fixed (seed, blocks) the counts are identical across
// repeated runs (the block-keyed streams make worker scheduling
// irrelevant by construction), and blocks<=1 is the serial path that
// ExecuteTranspiledCtx runs on the same transpilation.
func TestExecuteBatchDeterministicAcrossBlocks(t *testing.T) {
	ctx := context.Background()
	b := testBackend(t)
	exec, err := NewExecutor(b, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("batchdet", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	const shots = 600

	serial, err := exec.ExecuteCtx(ctx, c, shots, 1, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	viaZero, err := exec.ExecuteCtx(ctx, c, shots, 0, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	requireSameDist(t, "blocks=0", viaZero.Counts, serial.Counts)
	viaTranspiled, err := exec.ExecuteTranspiledCtx(ctx, c, serial.Transpiled, shots, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	requireSameDist(t, "transpiled", viaTranspiled.Counts, serial.Counts)

	first, err := exec.ExecuteCtx(ctx, c, shots, 7, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if first.Counts.Total() != serial.Counts.Total() {
		t.Fatalf("batch total %v, want %v", first.Counts.Total(), serial.Counts.Total())
	}
	again, err := exec.ExecuteCtx(ctx, c, shots, 7, mathx.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	requireSameDist(t, "blocks=7 rerun", again.Counts, first.Counts)
}
