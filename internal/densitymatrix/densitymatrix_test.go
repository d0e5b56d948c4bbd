package densitymatrix

import (
	"context"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewBounds(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero width should error")
	}
	if _, err := New(MaxQubits + 1); err == nil {
		t.Error("over-max should error")
	}
	if _, err := NewBasis(2, 4); err == nil {
		t.Error("out-of-range basis should error")
	}
	d, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(real(d.Trace()), 1, 1e-12) || !approx(d.Purity(), 1, 1e-12) {
		t.Error("fresh state should be pure with unit trace")
	}
	if d.Prob(0) != 1 {
		t.Error("fresh state should be |000⟩")
	}
}

func TestUnitaryAgreesWithStatevector(t *testing.T) {
	// Random circuits: the density-matrix diagonal must equal the
	// state-vector probabilities.
	rng := mathx.NewRNG(77)
	for trial := 0; trial < 8; trial++ {
		c := circuit.New("rand", 3)
		kinds := []circuit.Kind{circuit.H, circuit.X, circuit.Y, circuit.Z,
			circuit.S, circuit.T, circuit.SX, circuit.RX, circuit.RY,
			circuit.RZ, circuit.U3, circuit.CX, circuit.CZ, circuit.SWAP,
			circuit.CCX}
		for i := 0; i < 15; i++ {
			k := kinds[rng.Intn(len(kinds))]
			switch k.Arity() {
			case 1:
				params := make([]float64, k.ParamCount())
				for p := range params {
					params[p] = rng.Uniform(-3, 3)
				}
				c.Append(circuit.Gate{Kind: k, Qubits: []int{rng.Intn(3)}, Params: params})
			case 2:
				a := rng.Intn(3)
				b := (a + 1 + rng.Intn(2)) % 3
				c.Append(circuit.Gate{Kind: k, Qubits: []int{a, b}})
			case 3:
				perm := rng.Perm(3)
				c.Append(circuit.Gate{Kind: k, Qubits: perm})
			}
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		sv, err := statevector.RunCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := New(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range c.Gates {
			if err := dm.Apply(g); err != nil {
				t.Fatal(err)
			}
		}
		if !approx(dm.Purity(), 1, 1e-9) {
			t.Fatalf("trial %d: unitary evolution lost purity: %v", trial, dm.Purity())
		}
		for b := bitstring.BitString(0); b < 8; b++ {
			if !approx(dm.Prob(b), sv.Prob(b), 1e-9) {
				t.Fatalf("trial %d: P(%03b) dm=%v sv=%v\n%s", trial, b, dm.Prob(b), sv.Prob(b), c)
			}
		}
	}
}

func TestCSWAPMatchesStatevector(t *testing.T) {
	for in := 0; in < 8; in++ {
		c := circuit.New("cswap", 3)
		for q := 0; q < 3; q++ {
			if in&(1<<q) != 0 {
				c.X(q)
			}
		}
		c.CSWAP(0, 1, 2)
		sv, err := statevector.RunCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		dm, _ := New(3)
		for _, g := range c.Gates {
			if err := dm.Apply(g); err != nil {
				t.Fatal(err)
			}
		}
		for b := bitstring.BitString(0); b < 8; b++ {
			if !approx(dm.Prob(b), sv.Prob(b), 1e-12) {
				t.Fatalf("input %03b: P(%03b) dm=%v sv=%v", in, b, dm.Prob(b), sv.Prob(b))
			}
		}
	}
}

func TestChannelValidation(t *testing.T) {
	d, _ := New(2)
	if err := d.Channel(5, BitFlip(0.1)); err == nil {
		t.Error("bad qubit should error")
	}
	if err := d.Channel(0, nil); err == nil {
		t.Error("empty Kraus should error")
	}
	// Incomplete Kraus set.
	bad := []Matrix2{{{0.5, 0}, {0, 0.5}}}
	if err := d.Channel(0, bad); err == nil {
		t.Error("incomplete Kraus should error")
	}
}

func TestAllChannelsComplete(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kraus []Matrix2
	}{
		{"depolarizing", Depolarizing(0.3)},
		{"bitflip", BitFlip(0.2)},
		{"phaseflip", PhaseFlip(0.4)},
		{"amplitude", AmplitudeDamping(0.25)},
		{"phasedamp", PhaseDamping(0.15)},
	} {
		if err := ValidateKraus(tc.kraus); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestBitFlipProbability(t *testing.T) {
	d, _ := New(1)
	if err := d.Channel(0, BitFlip(0.3)); err != nil {
		t.Fatal(err)
	}
	if !approx(d.Prob(0), 0.7, 1e-12) || !approx(d.Prob(1), 0.3, 1e-12) {
		t.Errorf("bitflip probs: %v %v", d.Prob(0), d.Prob(1))
	}
	if !approx(real(d.Trace()), 1, 1e-12) {
		t.Errorf("trace %v", d.Trace())
	}
}

func TestAmplitudeDampingDirectional(t *testing.T) {
	// |1⟩ decays to |0⟩; |0⟩ is a fixed point.
	d, _ := NewBasis(1, 1)
	d.Channel(0, AmplitudeDamping(0.4))
	if !approx(d.Prob(0), 0.4, 1e-12) || !approx(d.Prob(1), 0.6, 1e-12) {
		t.Errorf("decay probs: %v %v", d.Prob(0), d.Prob(1))
	}
	d0, _ := New(1)
	d0.Channel(0, AmplitudeDamping(0.4))
	if !approx(d0.Prob(0), 1, 1e-12) {
		t.Error("|0⟩ should be fixed under amplitude damping")
	}
}

func TestPhaseDampingKillsCoherence(t *testing.T) {
	// H|0⟩ then full dephasing: diagonal stays uniform, off-diagonal dies.
	d, _ := New(1)
	d.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{0}})
	if cmplx.Abs(d.At(0, 1)) < 0.49 {
		t.Fatalf("pre-dephasing coherence %v", d.At(0, 1))
	}
	d.Channel(0, PhaseDamping(1))
	if cmplx.Abs(d.At(0, 1)) > 1e-12 {
		t.Errorf("coherence survived full dephasing: %v", d.At(0, 1))
	}
	if !approx(d.Prob(0), 0.5, 1e-12) || !approx(d.Prob(1), 0.5, 1e-12) {
		t.Error("dephasing should not change populations")
	}
}

func TestDepolarizingToMaximallyMixed(t *testing.T) {
	d, _ := New(1)
	d.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{0}})
	d.Channel(0, Depolarizing(1))
	if !approx(d.Purity(), 0.5, 1e-9) {
		t.Errorf("purity after full depolarizing: %v (want 1/2)", d.Purity())
	}
}

func TestChannelPreservesTraceQuick(t *testing.T) {
	f := func(pRaw uint8, kind uint8) bool {
		p := float64(pRaw) / 255
		var kraus []Matrix2
		switch kind % 5 {
		case 0:
			kraus = Depolarizing(p)
		case 1:
			kraus = BitFlip(p)
		case 2:
			kraus = PhaseFlip(p)
		case 3:
			kraus = AmplitudeDamping(p)
		default:
			kraus = PhaseDamping(p)
		}
		d, err := New(2)
		if err != nil {
			return false
		}
		d.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{0}})
		d.Apply(circuit.Gate{Kind: circuit.CX, Qubits: []int{0, 1}})
		if err := d.Channel(0, kraus); err != nil {
			return false
		}
		return approx(real(d.Trace()), 1, 1e-9) && d.Purity() <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDistDiagonal(t *testing.T) {
	d, _ := New(2)
	d.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{0}})
	d.Apply(circuit.Gate{Kind: circuit.CX, Qubits: []int{0, 1}})
	dist := d.Dist()
	if dist.Support() != 2 {
		t.Fatalf("support %d", dist.Support())
	}
	if !approx(dist.Prob(0), 0.5, 1e-9) || !approx(dist.Prob(3), 0.5, 1e-9) {
		t.Errorf("bell diagonal: %v", dist.StringCounts())
	}
}

func TestApplyRejectsUnknownAndInvalid(t *testing.T) {
	d, _ := New(2)
	if err := d.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{9}}); err == nil {
		t.Error("bad qubit should error")
	}
	if err := d.Apply(circuit.Gate{Kind: circuit.Measure, Qubits: []int{0}}); err != nil {
		t.Errorf("measure should be a no-op, got %v", err)
	}
}

func BenchmarkBellWithNoise6Q(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := New(6)
		if err != nil {
			b.Fatal(err)
		}
		d.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{0}})
		for q := 0; q < 5; q++ {
			d.Apply(circuit.Gate{Kind: circuit.CX, Qubits: []int{q, q + 1}})
			d.Channel(q+1, Depolarizing(0.01))
		}
	}
}
