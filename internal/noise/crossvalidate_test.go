package noise

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

// uniformBackend builds a backend with exactly-known uniform error rates,
// so the executors can be validated against closed-form expectations.
func uniformBackend(t *testing.T, n int, err1q, err2q, readout float64) *device.Backend {
	t.Helper()
	topo, err := device.AllToAll(n)
	if err != nil {
		t.Fatal(err)
	}
	cal := &device.Calibration{
		Qubits:  make([]device.QubitCalibration, n),
		Gates1Q: make([]device.GateCalibration, n),
		Gates2Q: make(map[device.Edge]device.GateCalibration),
	}
	for q := 0; q < n; q++ {
		cal.Qubits[q] = device.QubitCalibration{T1: 1, T2: 1, ReadoutError: readout}
		cal.Gates1Q[q] = device.GateCalibration{Error: err1q, Duration: 1e-9}
	}
	for _, e := range topo.Edges() {
		cal.Gates2Q[e] = device.GateCalibration{Error: err2q, Duration: 1e-9}
	}
	b := &device.Backend{
		Name:         "uniform-test",
		Architecture: device.Superconducting,
		Topology:     topo,
		Calibration:  cal,
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

// bitChannel is the classical transition a diagonal one-qubit state
// takes through ExecuteExact's per-gate channels: depolarizing with
// parameter 4p/3 (ρ → (1−4p/3)ρ + (4p/3)·I/2) flips the bit with
// probability 2p/3, amplitude damping decays 1 → 0 with probability γ,
// and phase damping leaves the diagonal alone. It returns P(1) after
// the channels given P(1) = x before.
func bitChannel(x, p, gamma float64) float64 {
	flip := 2 * p / 3
	return (x*(1-flip) + (1-x)*flip) * (1 - gamma)
}

// readoutFlip applies a readout bit-flip of probability r to P(1) = x.
func readoutFlip(x, r float64) float64 { return x*(1-r) + (1-x)*r }

// TestExecuteExactMatchesClosedForm pins DensityExecutor.ExecuteExact's
// channel placement against hand-computed distributions on a uniform
// backend whose gate durations make the damping visible. Every state
// along these circuits stays diagonal, so each channel acts on the
// outcome probabilities as a classical bit transition (bitChannel).
//
//   - X then measure: P(1) = q(1−r) + (1−q)r with q = (1−2p/3)(1−γ),
//     p the 1q error and γ = 1−e^(−d/T1).
//   - X(0), CX(0,1), measure: the CX leaves q on |11⟩ and 1−q on |00⟩,
//     then each qubit takes depolarizing with half the 2q error p₂/2,
//     damping over the 2q duration, and readout.
func TestExecuteExactMatchesClosedForm(t *testing.T) {
	const (
		p1, p2, r = 0.03, 0.08, 0.02
		d1, d2    = 0.02, 0.05 // gate durations, in units of T1 = 1
	)
	b := uniformBackend(t, 2, p1, p2, r)
	for q := range b.Calibration.Gates1Q {
		b.Calibration.Gates1Q[q].Duration = d1
	}
	for e, g := range b.Calibration.Gates2Q {
		g.Duration = d2
		b.Calibration.Gates2Q[e] = g
	}
	exec, err := NewDensityExecutor(b)
	if err != nil {
		t.Fatal(err)
	}
	gamma1, gamma2 := 1-math.Exp(-d1), 1-math.Exp(-d2)

	t.Run("x", func(t *testing.T) {
		q := (1 - 2*p1/3) * (1 - gamma1)
		want := map[bitstring.BitString]float64{1: readoutFlip(q, r)}
		want[0] = 1 - want[1]
		requireExact(t, exec, circuit.New("x", 1).X(0).MeasureAll(), want)
	})
	t.Run("cx", func(t *testing.T) {
		q := (1 - 2*p1/3) * (1 - gamma1)
		// P(bit = 1) after the CX's channels and readout, given the bit
		// left the CX as x.
		one := func(x float64) float64 { return readoutFlip(bitChannel(x, p2/2, gamma2), r) }
		bit := func(v, x float64) float64 {
			if v == 1 {
				return one(x)
			}
			return 1 - one(x)
		}
		want := map[bitstring.BitString]float64{}
		for v := bitstring.BitString(0); v < 4; v++ {
			b0, b1 := float64(v.Bit(0)), float64(v.Bit(1))
			want[v] = q*bit(b0, 1)*bit(b1, 1) + (1-q)*bit(b0, 0)*bit(b1, 0)
		}
		requireExact(t, exec, circuit.New("cx", 2).X(0).CX(0, 1).MeasureAll(), want)
	})
}

// requireExact runs ExecuteExact without shots and compares every
// outcome probability with want to 1e-12.
func requireExact(t *testing.T, exec *DensityExecutor, c *circuit.Circuit, want map[bitstring.BitString]float64) {
	t.Helper()
	exact, sampled, err := exec.ExecuteExact(context.Background(), c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sampled != nil {
		t.Fatal("shots = 0 returned a sampled distribution")
	}
	for v := bitstring.BitString(0); v < bitstring.BitString(1)<<uint(c.N); v++ {
		if got := exact.Prob(v); math.Abs(got-want[v]) > 1e-12 {
			t.Errorf("%s: P(%0*b) = %.15f, closed form %.15f", c.Name, c.N, v, got, want[v])
		}
	}
}

// TestFastExecutorLambdaMatchesRealizedEHD checks the fast executor's
// self-consistency: the realized expected Hamming distance of a
// deterministic-output circuit approaches the configured event intensity
// (minus toggle losses), making EventRates an honest λ ground truth.
func TestFastExecutorLambdaMatchesRealizedEHD(t *testing.T) {
	b := uniformBackend(t, 8, 0.004, 0.01, 0)
	model := Model{GateErrors: true} // single clean channel
	exec, err := NewExecutor(b, model)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("ones", 8)
	for q := 0; q < 8; q++ {
		c.X(q)
	}
	for r := 0; r < 30; r++ {
		c.Barrier()
		for q := 0; q < 8; q++ {
			c.RZ(0.3, q)
		}
	}
	c.MeasureAll()
	run, err := exec.ExecuteCtx(context.Background(), c, 20000, mathx.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	lambda := run.Rates.TotalLambda()
	if lambda <= 0.1 {
		t.Fatalf("test needs a visible rate, got %v", lambda)
	}
	ehd := run.Counts.ExpectedHamming(0b11111111)
	// Toggle losses make EHD slightly below λ; they can never exceed it.
	if ehd > lambda*1.02 {
		t.Errorf("EHD %v exceeds configured λ %v", ehd, lambda)
	}
	if ehd < lambda*0.80 {
		t.Errorf("EHD %v too far below λ %v (excess toggling?)", ehd, lambda)
	}
}

// TestFastExecutorSpectrumIsPoissonLike: for a pooled-Poisson gate
// channel, the full Hamming spectrum around the deterministic output
// should fit a Poisson with IoD ≈ 1.
func TestFastExecutorSpectrumIsPoissonLike(t *testing.T) {
	b := uniformBackend(t, 10, 0.003, 0.008, 0)
	exec, err := NewExecutor(b, Model{GateErrors: true})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("deep", 10)
	for r := 0; r < 40; r++ {
		for q := 0; q < 10; q++ {
			c.SX(q)
		}
		c.Barrier()
	}
	c.MeasureAll()
	run, err := exec.ExecuteCtx(context.Background(), c, 20000, mathx.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	// Ideal output of SX^(4k) is |0...0⟩ (SX has order 4 up to phase).
	spec := run.Counts.HammingSpectrum(0)
	iod, err := mathx.SpectrumIoD(spec)
	if err != nil {
		t.Fatal(err)
	}
	if iod < 0.85 || iod > 1.15 {
		t.Errorf("IoD %v should be ≈ 1 for the pure Poisson channel", iod)
	}
}
