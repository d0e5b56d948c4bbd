package statevector

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/testutil"
)

// allKinds is every unitary gate kind the simulator supports, used to
// build randomized circuits that exercise every kernel.
var allKinds = []circuit.Kind{
	circuit.I, circuit.X, circuit.Y, circuit.Z, circuit.H,
	circuit.S, circuit.Sdg, circuit.T, circuit.Tdg, circuit.SX,
	circuit.RX, circuit.RY, circuit.RZ, circuit.U3,
	circuit.CX, circuit.CZ, circuit.SWAP, circuit.CCX, circuit.CSWAP,
}

// randomCircuit draws `length` gates uniformly over the kinds that fit
// width n, with uniform rotation parameters and distinct random qubits.
func randomCircuit(n, length int, rng *mathx.RNG) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("rand%d", n), n)
	for len(c.Gates) < length {
		k := allKinds[rng.Intn(len(allKinds))]
		a := k.Arity()
		if a > n {
			continue
		}
		qs := rng.Perm(n)[:a]
		var params []float64
		for p := 0; p < k.ParamCount(); p++ {
			params = append(params, rng.Uniform(-2*math.Pi, 2*math.Pi))
		}
		c.Append(circuit.Gate{Kind: k, Qubits: qs, Params: params})
	}
	return c
}

// replayFrom compiles the circuit (fused or not) and replays it onto
// |init⟩ at w kernel workers: RunCtx's compile-then-replay pipeline with
// the fusion and worker seams exposed.
func replayFrom(t testing.TB, c *circuit.Circuit, init bitstring.BitString, fuse bool, w int) *State {
	t.Helper()
	ops, err := compileOps(c.N, c.Gates, fuse)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewBasis(c.N, init)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(w)
	if err := s.replay(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
	return s
}

// naiveRunFrom evolves the circuit through the retained full-scan oracle.
func naiveRunFrom(t *testing.T, c *circuit.Circuit, init bitstring.BitString) *State {
	t.Helper()
	s, err := NewBasis(c.N, init)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if err := s.naiveApply(g); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestKernelMatchesOracleBitwise pins the kernel contract gate by gate:
// State.Apply, from a random basis state, is bit-for-bit identical to
// the naiveApply oracle for every gate kind, width 1-12, and any worker
// count.
func TestKernelMatchesOracleBitwise(t *testing.T) {
	workers := testutil.WorkerMatrix(t)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 3; trial++ {
			rng := mathx.NewRNG(uint64(1000*n + trial))
			c := randomCircuit(n, 30+3*n, rng)
			init := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
			want := naiveRunFrom(t, c, init)
			for _, w := range workers {
				got, err := NewBasis(n, init)
				if err != nil {
					t.Fatal(err)
				}
				got.SetWorkers(w)
				for _, g := range c.Gates {
					if err := got.Apply(g); err != nil {
						t.Fatalf("n=%d trial=%d workers=%d: %v", n, trial, w, err)
					}
				}
				for i := range want.amp {
					if got.amp[i] != want.amp[i] {
						t.Fatalf("n=%d trial=%d workers=%d amp[%d]: kernel %v oracle %v",
							n, trial, w, i, got.amp[i], want.amp[i])
					}
				}
			}
		}
	}
}

// TestApplyMatchesOracleBitwise covers the single-gate path against the
// oracle for each kind in isolation, from a random superposition so no
// amplitude is trivially 0.
func TestApplyMatchesOracleBitwise(t *testing.T) {
	const n = 5
	rng := mathx.NewRNG(77)
	prep := randomCircuit(n, 25, rng)
	for _, k := range allKinds {
		qs := rng.Perm(n)[:k.Arity()]
		var params []float64
		for p := 0; p < k.ParamCount(); p++ {
			params = append(params, rng.Uniform(-3, 3))
		}
		g := circuit.Gate{Kind: k, Qubits: qs, Params: params}
		want := naiveRunFrom(t, prep, 0)
		if err := want.naiveApply(g); err != nil {
			t.Fatal(err)
		}
		got := naiveRunFrom(t, prep, 0)
		if err := got.Apply(g); err != nil {
			t.Fatal(err)
		}
		for i := range want.amp {
			if got.amp[i] != want.amp[i] {
				t.Fatalf("%s amp[%d]: kernel %v oracle %v", g, i, got.amp[i], want.amp[i])
			}
		}
	}
}

// TestFusedMatchesOracleTolerance pins the fusion contract: the fused
// replay agrees with the oracle within 1e-12 per amplitude for random
// circuits from random basis states, across widths and worker counts.
func TestFusedMatchesOracleTolerance(t *testing.T) {
	workers := testutil.WorkerMatrix(t)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 3; trial++ {
			rng := mathx.NewRNG(uint64(9000*n + trial))
			c := randomCircuit(n, 40+3*n, rng)
			init := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
			want := naiveRunFrom(t, c, init)
			for _, w := range workers {
				got := replayFrom(t, c, init, true, w)
				for i := range want.amp {
					dr := real(got.amp[i]) - real(want.amp[i])
					di := imag(got.amp[i]) - imag(want.amp[i])
					if math.Abs(dr) > 1e-12 || math.Abs(di) > 1e-12 {
						t.Fatalf("n=%d trial=%d workers=%d amp[%d]: fused %v oracle %v",
							n, trial, w, i, got.amp[i], want.amp[i])
					}
				}
			}
		}
	}
}

// TestFusionCollapsesRuns inspects the compiled program: a run of dense
// single-qubit gates on one qubit becomes one op, a purely diagonal run
// becomes one diagonal op, and gates on other qubits don't fence fusion.
func TestFusionCollapsesRuns(t *testing.T) {
	c := circuit.New("fuse", 3).
		H(0).T(0).H(0). // dense run on qubit 0...
		X(1).           // ...interleaved with a disjoint gate
		Z(2).S(2).T(2). // diagonal run on qubit 2
		CX(0, 1)        // fences qubits 0 and 1
	ops, err := compileOps(3, c.Gates, true)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: fused dense q0, flip q1, CX, fused diag q2 (flushed at end).
	var kinds []opKind
	for _, o := range ops {
		kinds = append(kinds, o.kind)
	}
	want := []opKind{opDense1, opFlip, opCX, opDiag1}
	if len(kinds) != len(want) {
		t.Fatalf("ops %v want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("op[%d] = %v want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
	// Unfused compilation keeps one op per non-identity gate.
	unfused, err := compileOps(3, c.Gates, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(unfused) != len(c.Gates) {
		t.Fatalf("unfused ops %d want %d", len(unfused), len(c.Gates))
	}
}

// TestQAOAFusionMatchesOracle drives the deep-fusion pipeline end to end
// on the benchmark workload shape: CX·RZ·CX sandwiches collapse to
// two-qubit diagonals, those group into table-driven diagonal passes
// with mixer gates hoisted across them, and the result still agrees with
// the gate-by-gate oracle within 1e-12 for every worker count.
func TestQAOAFusionMatchesOracle(t *testing.T) {
	workers := testutil.WorkerMatrix(t)
	for _, n := range []int{4, 9, 12} {
		c := qaoaCircuit(n, 2)
		want := naiveRunFrom(t, c, 0)
		for _, w := range workers {
			got := replayFrom(t, c, 0, true, w)
			for i := range want.amp {
				dr := real(got.amp[i]) - real(want.amp[i])
				di := imag(got.amp[i]) - imag(want.amp[i])
				if math.Abs(dr) > 1e-12 || math.Abs(di) > 1e-12 {
					t.Fatalf("n=%d workers=%d amp[%d]: fused %v oracle %v",
						n, w, i, got.amp[i], want.amp[i])
				}
			}
		}
	}
}

// TestDiagRunFusionCollapsesCostLayer inspects the compiled benchmark
// program: every CX·RZ·CX sandwich is absorbed — no CX, ZZ, or stray
// diagonal ops survive — and each round's 14-edge cost layer compiles to
// exactly two table-driven diagonal passes.
func TestDiagRunFusionCollapsesCostLayer(t *testing.T) {
	c := qaoaCircuit(14, 3)
	ops, err := compileOps(c.N, c.Gates, true)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[opKind]int{}
	for _, o := range ops {
		counts[o.kind]++
	}
	if counts[opCX] != 0 || counts[opZZ] != 0 || counts[opDiag1] != 0 {
		t.Fatalf("cost layer not fully fused: %d CX, %d ZZ, %d diag ops remain",
			counts[opCX], counts[opZZ], counts[opDiag1])
	}
	if counts[opDiagN] != 6 {
		t.Fatalf("diagonal groups = %d, want 2 per round × 3 rounds", counts[opDiagN])
	}
	if counts[opDense1] != 56 {
		t.Fatalf("dense ops = %d, want 14 H + 42 RX", counts[opDense1])
	}
}

// TestProbabilitiesInto pins the zero-copy contract: a big-enough dst is
// reused, a short one is replaced, and values match Probabilities.
func TestProbabilitiesInto(t *testing.T) {
	s := mustRun(t, circuit.New("bell", 2).H(0).CX(0, 1))
	want := s.Probabilities()
	scratch := make([]float64, 4)
	got := s.ProbabilitiesInto(scratch)
	if &got[0] != &scratch[0] {
		t.Error("sufficient dst was not reused")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p[%d] = %v want %v", i, got[i], want[i])
		}
	}
	if short := s.ProbabilitiesInto(make([]float64, 1)); len(short) != 4 {
		t.Fatalf("short dst: len %d want 4", len(short))
	}
}

// TestDistPreSized pins that the pre-sized Dist matches the probability
// vector (same support, same mass).
func TestDistPreSized(t *testing.T) {
	rng := mathx.NewRNG(11)
	s := mustRun(t, randomCircuit(8, 60, rng))
	d := s.Dist()
	support := 0
	for i, p := range s.Probabilities() {
		if p > 1e-12 {
			support++
			if d.Count(bitstring.BitString(i)) != p {
				t.Fatalf("dist[%d] = %v want %v", i, d.Count(bitstring.BitString(i)), p)
			}
		}
	}
	if d.Support() != support {
		t.Fatalf("support %d want %d", d.Support(), support)
	}
}
