package noise

import (
	"context"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/densitymatrix"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

// uniformBackend builds a backend with exactly-known uniform error rates,
// so trajectory sampling can be validated against closed-form channel
// evolution.
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

// TestTrajectoryMatchesDensityMatrix validates the Monte Carlo Pauli-jump
// trajectories against exact Kraus evolution: injecting a uniform Pauli
// with probability p after a gate equals the depolarizing channel with
// parameter 4p/3 on that gate's qubit.
func TestTrajectoryMatchesDensityMatrix(t *testing.T) {
	const p = 0.12 // per-gate Pauli-jump probability
	b := uniformBackend(t, 2, p, p, 0)

	c := circuit.New("bell", 2).H(0).CX(0, 1)

	// Exact: density matrix with depolarizing(4p/3) after each gate on a
	// uniformly chosen involved qubit — averaging over the qubit choice
	// means half weight per qubit on the CX.
	dm, err := densitymatrix.New(2)
	if err != nil {
		t.Fatal(err)
	}
	ch := densitymatrix.Depolarizing(4 * p / 3)
	half := densitymatrix.Depolarizing(4 * (p / 2) / 3)
	if err := dm.Apply(circuit.Gate{Kind: circuit.H, Qubits: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if err := dm.Channel(0, ch); err != nil {
		t.Fatal(err)
	}
	if err := dm.Apply(circuit.Gate{Kind: circuit.CX, Qubits: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	// CX error: one of the two qubits uniformly — approximate the mixture
	// by applying the half-rate channel to both (exact to first order and
	// adequate at p = 0.12 for the tolerance below).
	if err := dm.Channel(0, half); err != nil {
		t.Fatal(err)
	}
	if err := dm.Channel(1, half); err != nil {
		t.Fatal(err)
	}
	exact := dm.Dist()

	// Monte Carlo.
	ts, err := NewTrajectorySampler(b)
	if err != nil {
		t.Fatal(err)
	}
	const shots = 40000
	sampled, err := ts.SampleCtx(context.Background(), c, 0, shots, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	for v := bitstring.BitString(0); v < 4; v++ {
		want := exact.Prob(v)
		got := sampled.Prob(v)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("P(%02b): trajectory %v vs exact %v", v, got, want)
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
