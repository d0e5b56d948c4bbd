package statevector

import (
	"context"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustRun(t *testing.T, c *circuit.Circuit) *State {
	t.Helper()
	s, err := RunCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewBounds(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("width 0 should error")
	}
	if _, err := New(MaxQubits + 1); err == nil {
		t.Error("over-max width should error")
	}
	s, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Prob(0) != 1 {
		t.Error("fresh state should be |000⟩")
	}
}

func TestNewBasis(t *testing.T) {
	s, err := NewBasis(3, 0b101)
	if err != nil {
		t.Fatal(err)
	}
	if s.Prob(0b101) != 1 || s.Prob(0) != 0 {
		t.Error("basis state wrong")
	}
	if _, err := NewBasis(2, 4); err == nil {
		t.Error("out-of-range basis should error")
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := mustRun(t, circuit.New("h", 1).H(0))
	if !approx(s.Prob(0), 0.5, 1e-12) || !approx(s.Prob(1), 0.5, 1e-12) {
		t.Errorf("probs %v %v", s.Prob(0), s.Prob(1))
	}
	// HH = I.
	s = mustRun(t, circuit.New("hh", 1).H(0).H(0))
	if !approx(s.Prob(0), 1, 1e-12) {
		t.Errorf("HH|0⟩ prob0 = %v", s.Prob(0))
	}
}

func TestPauliAlgebra(t *testing.T) {
	// X|0⟩ = |1⟩.
	s := mustRun(t, circuit.New("x", 1).X(0))
	if s.Prob(1) != 1 {
		t.Error("X failed")
	}
	// HZH = X.
	s = mustRun(t, circuit.New("hzh", 1).H(0).Z(0).H(0))
	if !approx(s.Prob(1), 1, 1e-12) {
		t.Errorf("HZH|0⟩ = X|0⟩ violated: %v", s.Prob(1))
	}
	// Y|0⟩ = i|1⟩.
	s = mustRun(t, circuit.New("y", 1).Y(0))
	if a := s.Amplitude(1); !approx(real(a), 0, 1e-12) || !approx(imag(a), 1, 1e-12) {
		t.Errorf("Y|0⟩ amplitude = %v", a)
	}
	// S² = Z: phase of |1⟩ flips sign.
	s = mustRun(t, circuit.New("ss", 1).X(0).S(0).S(0))
	if a := s.Amplitude(1); !approx(real(a), -1, 1e-12) {
		t.Errorf("S²|1⟩ = %v want -|1⟩", a)
	}
	// T⁴ = Z.
	s = mustRun(t, circuit.New("tttt", 1).X(0).T(0).T(0).T(0).T(0))
	if a := s.Amplitude(1); !approx(real(a), -1, 1e-12) {
		t.Errorf("T⁴|1⟩ = %v want -|1⟩", a)
	}
	// S·Sdg = I.
	s = mustRun(t, circuit.New("ssdg", 1).X(0).S(0).Sdg(0))
	if a := s.Amplitude(1); !approx(real(a), 1, 1e-12) {
		t.Errorf("S·Sdg = %v", a)
	}
	// T·Tdg = I.
	s = mustRun(t, circuit.New("ttdg", 1).X(0).T(0).Tdg(0))
	if a := s.Amplitude(1); !approx(real(a), 1, 1e-12) {
		t.Errorf("T·Tdg = %v", a)
	}
}

func TestSXSquaredIsX(t *testing.T) {
	s := mustRun(t, circuit.New("sxsx", 1).SX(0).SX(0))
	if !approx(s.Prob(1), 1, 1e-12) {
		t.Errorf("SX² |0⟩ should be |1⟩ (global phase aside): %v", s.Prob(1))
	}
}

func TestBellState(t *testing.T) {
	s := mustRun(t, circuit.New("bell", 2).H(0).CX(0, 1))
	if !approx(s.Prob(0b00), 0.5, 1e-12) || !approx(s.Prob(0b11), 0.5, 1e-12) {
		t.Errorf("bell probs: %v", s.Probabilities())
	}
	if s.Prob(0b01) != 0 || s.Prob(0b10) != 0 {
		t.Error("bell state has odd-parity amplitude")
	}
}

func TestGHZ(t *testing.T) {
	c := circuit.New("ghz", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3)
	s := mustRun(t, c)
	if !approx(s.Prob(0b0000), 0.5, 1e-12) || !approx(s.Prob(0b1111), 0.5, 1e-12) {
		t.Errorf("GHZ probs wrong: %v %v", s.Prob(0), s.Prob(15))
	}
}

func TestCZSymmetric(t *testing.T) {
	a := mustRun(t, circuit.New("cz1", 2).H(0).H(1).CZ(0, 1))
	b := mustRun(t, circuit.New("cz2", 2).H(0).H(1).CZ(1, 0))
	f, err := a.FidelityWith(b)
	if err != nil || !approx(f, 1, 1e-12) {
		t.Errorf("CZ not symmetric: f=%v err=%v", f, err)
	}
}

func TestSWAP(t *testing.T) {
	s := mustRun(t, circuit.New("swap", 2).X(0).SWAP(0, 1))
	if s.Prob(0b10) != 1 {
		t.Errorf("SWAP failed: %v", s.Probabilities())
	}
}

func TestCCXTruthTable(t *testing.T) {
	for in := 0; in < 8; in++ {
		c := circuit.New("ccx", 3)
		for q := 0; q < 3; q++ {
			if in&(1<<q) != 0 {
				c.X(q)
			}
		}
		c.CCX(0, 1, 2)
		s := mustRun(t, c)
		want := in
		if in&1 != 0 && in&2 != 0 {
			want ^= 4
		}
		if !approx(s.Prob(bitstring.BitString(want)), 1, 1e-12) {
			t.Errorf("CCX input %03b: want output %03b, probs %v", in, want, s.Probabilities())
		}
	}
}

func TestCSWAPTruthTable(t *testing.T) {
	for in := 0; in < 8; in++ {
		c := circuit.New("cswap", 3)
		for q := 0; q < 3; q++ {
			if in&(1<<q) != 0 {
				c.X(q)
			}
		}
		c.CSWAP(0, 1, 2)
		s := mustRun(t, c)
		want := in
		if in&1 != 0 {
			b1, b2 := (in>>1)&1, (in>>2)&1
			want = in&1 | b2<<1 | b1<<2
		}
		if !approx(s.Prob(bitstring.BitString(want)), 1, 1e-12) {
			t.Errorf("CSWAP input %03b: want %03b", in, want)
		}
	}
}

func TestRotationsMatchU3(t *testing.T) {
	// RY(θ) == U3(θ, 0, 0); RX(θ) == U3(θ, -π/2, π/2), up to global phase.
	theta := 0.7
	a := mustRun(t, circuit.New("ry", 1).RY(theta, 0))
	b := mustRun(t, circuit.New("u3", 1).U3(theta, 0, 0, 0))
	f, _ := a.FidelityWith(b)
	if !approx(f, 1, 1e-12) {
		t.Errorf("RY vs U3 fidelity %v", f)
	}
	a = mustRun(t, circuit.New("rx", 1).RX(theta, 0))
	b = mustRun(t, circuit.New("u3", 1).U3(theta, -math.Pi/2, math.Pi/2, 0))
	f, _ = a.FidelityWith(b)
	if !approx(f, 1, 1e-12) {
		t.Errorf("RX vs U3 fidelity %v", f)
	}
}

func TestRZPhase(t *testing.T) {
	// RZ on |+⟩ rotates the relative phase: ⟨X⟩ = cos φ.
	phi := 1.1
	s := mustRun(t, circuit.New("rz", 1).H(0).RZ(phi, 0).H(0))
	// After H RZ H: P(0) = cos²(φ/2).
	want := math.Cos(phi/2) * math.Cos(phi/2)
	if !approx(s.Prob(0), want, 1e-12) {
		t.Errorf("P(0) = %v want %v", s.Prob(0), want)
	}
}

func TestNormPreservedRandomCircuit(t *testing.T) {
	f := func(seed uint32) bool {
		rng := mathx.NewRNG(uint64(seed))
		c := circuit.New("rand", 4)
		kinds := []circuit.Kind{circuit.H, circuit.X, circuit.Y, circuit.Z,
			circuit.S, circuit.T, circuit.SX, circuit.RX, circuit.RY, circuit.RZ,
			circuit.CX, circuit.CZ, circuit.SWAP}
		for i := 0; i < 30; i++ {
			k := kinds[rng.Intn(len(kinds))]
			q := rng.Intn(4)
			switch k.Arity() {
			case 1:
				if k.ParamCount() == 1 {
					c.Append(circuit.Gate{Kind: k, Qubits: []int{q}, Params: []float64{rng.Uniform(-3, 3)}})
				} else {
					c.Append(circuit.Gate{Kind: k, Qubits: []int{q}})
				}
			case 2:
				q2 := (q + 1 + rng.Intn(3)) % 4
				c.Append(circuit.Gate{Kind: k, Qubits: []int{q, q2}})
			}
		}
		s, err := RunCtx(context.Background(), c)
		return err == nil && approx(s.Norm(), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestExpectationZ(t *testing.T) {
	s := mustRun(t, circuit.New("z0", 2).X(0))
	if !approx(s.ExpectationZ(0), -1, 1e-12) || !approx(s.ExpectationZ(1), 1, 1e-12) {
		t.Errorf("⟨Z⟩ = %v, %v", s.ExpectationZ(0), s.ExpectationZ(1))
	}
	s = mustRun(t, circuit.New("h", 1).H(0))
	if !approx(s.ExpectationZ(0), 0, 1e-12) {
		t.Errorf("⟨Z⟩ on |+⟩ = %v", s.ExpectationZ(0))
	}
}

func TestDistMatchesProbs(t *testing.T) {
	s := mustRun(t, circuit.New("bell", 2).H(0).CX(0, 1))
	d := s.Dist()
	if d.Support() != 2 {
		t.Errorf("support %d", d.Support())
	}
	if !approx(d.Prob(0), 0.5, 1e-9) || !approx(d.Prob(3), 0.5, 1e-9) {
		t.Errorf("dist %v", d.StringCounts())
	}
}

func TestSampleConvergence(t *testing.T) {
	s := mustRun(t, circuit.New("bell", 2).H(0).CX(0, 1))
	d := s.Sample(20000, mathx.NewRNG(1))
	if d.Total() != 20000 {
		t.Fatalf("total %v", d.Total())
	}
	if !approx(d.Prob(0), 0.5, 0.02) || !approx(d.Prob(3), 0.5, 0.02) {
		t.Errorf("sampled probs %v %v", d.Prob(0), d.Prob(3))
	}
	if d.Count(1) != 0 || d.Count(2) != 0 {
		t.Error("sampled impossible outcome")
	}
}

func TestRunFromInitialState(t *testing.T) {
	// X on qubit 1 from |01⟩ gives |11⟩.
	c := circuit.New("x1", 2).X(1)
	s, err := RunConfiguredCtx(context.Background(), c, 0b01, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Prob(0b11) != 1 {
		t.Errorf("probs %v", s.Probabilities())
	}
}

func TestRunPropagatesBuildError(t *testing.T) {
	c := circuit.New("bad", 2).H(7)
	if _, err := RunCtx(context.Background(), c); err == nil {
		t.Error("expected build error to propagate")
	}
}

func TestIdealDistBV(t *testing.T) {
	// BV with secret 101: output should be exactly the secret.
	secret := bitstring.BitString(0b101)
	n := 3
	c := circuit.New("bv", n+1)
	c.X(n).H(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for q := 0; q < n; q++ {
		if secret.Bit(q) == 1 {
			c.CX(q, n)
		}
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	d, err := IdealDistCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// Data register holds the secret; ancilla in |-⟩ so it is 0/1 with equal
	// probability — marginalize by checking both.
	p := d.Prob(secret) + d.Prob(secret|1<<uint(n))
	if !approx(p, 1, 1e-9) {
		t.Errorf("BV mass on secret = %v", p)
	}
}

func TestFidelityWithMismatch(t *testing.T) {
	a, _ := New(2)
	b, _ := New(3)
	if _, err := a.FidelityWith(b); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestGlobalPhaseInvariance(t *testing.T) {
	// Z X Z X = -I: the result differs from I only by global phase, so
	// fidelity with the untouched state is 1.
	a := mustRun(t, circuit.New("zxzx", 1).Z(0).X(0).Z(0).X(0))
	b, _ := New(1)
	f, _ := a.FidelityWith(b)
	if !approx(f, 1, 1e-12) {
		t.Errorf("global phase changed fidelity: %v", f)
	}
	if !approx(cmplx.Abs(a.Amplitude(0)), 1, 1e-12) {
		t.Errorf("amplitude magnitude %v", cmplx.Abs(a.Amplitude(0)))
	}
}

func BenchmarkRun12QubitGHZ(b *testing.B) {
	c := circuit.New("ghz", 12).H(0)
	for q := 0; q < 11; q++ {
		c.CX(q, q+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCtx(context.Background(), c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSample4096Shots(b *testing.B) {
	c := circuit.New("ghz", 10).H(0)
	for q := 0; q < 9; q++ {
		c.CX(q, q+1)
	}
	s, err := RunCtx(context.Background(), c)
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(4096, rng)
	}
}
