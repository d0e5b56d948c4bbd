package statevector

import (
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/testutil"
)

// TestRunProgramMatchesOracleBitwise pins the replay contract: an unfused
// compiled program replayed with RunProgram is bit-for-bit identical to
// the naiveApply oracle for random circuits, width 1-12, any worker
// count — the same bar the one-shot RunConfigured path clears.
func TestRunProgramMatchesOracleBitwise(t *testing.T) {
	workers := testutil.WorkerMatrix(t)
	for n := 1; n <= 12; n++ {
		for trial := 0; trial < 3; trial++ {
			rng := mathx.NewRNG(uint64(4000*n + trial))
			c := randomCircuit(n, 30+3*n, rng)
			init := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
			p, err := Compile(c, RunConfig{NoFuse: true})
			if err != nil {
				t.Fatal(err)
			}
			want := naiveRunFrom(t, c, init)
			for _, w := range workers {
				got, err := NewBasis(n, init)
				if err != nil {
					t.Fatal(err)
				}
				got.SetWorkers(w)
				if err := got.RunProgram(p); err != nil {
					t.Fatalf("n=%d trial=%d workers=%d: %v", n, trial, w, err)
				}
				for i := range want.amp {
					if got.amp[i] != want.amp[i] {
						t.Fatalf("n=%d trial=%d workers=%d amp[%d]: program %v oracle %v",
							n, trial, w, i, got.amp[i], want.amp[i])
					}
				}
			}
		}
	}
}

// TestRunProgramFusedMatchesOracle pins the fused replay path to the
// oracle within 1e-12 per amplitude (fusion reassociates floating-point
// products, so bitwise equality is not expected).
func TestRunProgramFusedMatchesOracle(t *testing.T) {
	for n := 1; n <= 12; n++ {
		rng := mathx.NewRNG(uint64(5000 * n))
		c := randomCircuit(n, 40+3*n, rng)
		p, err := Compile(c, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want := naiveRunFrom(t, c, 0)
		got, err := NewBasis(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.RunProgram(p); err != nil {
			t.Fatal(err)
		}
		for i := range want.amp {
			dr := real(got.amp[i]) - real(want.amp[i])
			di := imag(got.amp[i]) - imag(want.amp[i])
			if math.Abs(dr) > 1e-12 || math.Abs(di) > 1e-12 {
				t.Fatalf("n=%d amp[%d]: fused program %v oracle %v", n, i, got.amp[i], want.amp[i])
			}
		}
	}
}

// TestProgramReplayIsReusable pins that one Program replayed many times
// (the trajectory sampler's usage) never drifts: every replay from the
// same init is bitwise identical, including replays interleaved with
// runs from other inits.
func TestProgramReplayIsReusable(t *testing.T) {
	const n = 8
	rng := mathx.NewRNG(321)
	c := randomCircuit(n, 50, rng)
	p, err := Compile(c, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(init bitstring.BitString) []complex128 {
		s, err := NewBasis(n, init)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunProgram(p); err != nil {
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

// TestRunProgramTiledBitwise pins the tiling invariant: tiled replay is
// bitwise identical to the untiled program replay for every tile size
// (including degenerate ones beyond the register width) and every worker
// count, fused and unfused.
func TestRunProgramTiledBitwise(t *testing.T) {
	workers := testutil.WorkerMatrix(t)
	for _, noFuse := range []bool{false, true} {
		for n := 2; n <= 12; n += 2 {
			rng := mathx.NewRNG(uint64(6000*n) + boolInt(noFuse))
			c := randomCircuit(n, 40+3*n, rng)
			p, err := Compile(c, RunConfig{NoFuse: noFuse})
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewBasis(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.RunProgram(p); err != nil {
				t.Fatal(err)
			}
			for _, tileBits := range []int{1, 2, 3, 4, n - 1, n, n + 3, DefaultTileBits} {
				if tileBits < 1 {
					continue
				}
				for _, w := range workers {
					got, err := NewBasis(n, 0)
					if err != nil {
						t.Fatal(err)
					}
					got.SetWorkers(w)
					if err := got.RunProgramTiled(p, tileBits); err != nil {
						t.Fatalf("n=%d tileBits=%d workers=%d: %v", n, tileBits, w, err)
					}
					for i := range want.amp {
						if got.amp[i] != want.amp[i] {
							t.Fatalf("n=%d noFuse=%v tileBits=%d workers=%d amp[%d]: tiled %v plain %v",
								n, noFuse, tileBits, w, i, got.amp[i], want.amp[i])
						}
					}
				}
			}
		}
	}
}

// TestRunProgramWidthMismatch pins the replay guard.
func TestRunProgramWidthMismatch(t *testing.T) {
	c := circuit.New("w", 3).H(0)
	p, err := Compile(c, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewBasis(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunProgram(p); err == nil {
		t.Fatal("RunProgram accepted a width-3 program on a width-4 state")
	}
	if err := s.RunProgramTiled(p, 4); err == nil {
		t.Fatal("RunProgramTiled accepted a width-3 program on a width-4 state")
	}
}

// TestPauliOpsMatchGates pins the injection table against the general
// gate path: each table entry is bitwise identical to applying the
// corresponding Pauli gate.
func TestPauliOpsMatchGates(t *testing.T) {
	const n = 6
	rng := mathx.NewRNG(99)
	prep := randomCircuit(n, 30, rng)
	tbl := NewPauliOps(n)
	kinds := []circuit.Kind{circuit.X, circuit.Y, circuit.Z}
	for q := 0; q < n; q++ {
		for k := 0; k < 3; k++ {
			want := naiveRunFrom(t, prep, 0)
			if err := want.Apply(circuit.Gate{Kind: kinds[k], Qubits: []int{q}}); err != nil {
				t.Fatal(err)
			}
			got := naiveRunFrom(t, prep, 0)
			got.ApplyCompiled(tbl[q][k])
			for i := range want.amp {
				if got.amp[i] != want.amp[i] {
					t.Fatalf("pauli[%d][%d] amp[%d]: table %v gate %v", q, k, i, got.amp[i], want.amp[i])
				}
			}
		}
	}
}

func boolInt(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
