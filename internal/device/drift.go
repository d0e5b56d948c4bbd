package device

import (
	"fmt"
	"math"

	"qbeep/internal/mathx"
)

// Drifted returns a copy of the backend whose calibration has drifted
// from the published snapshot by the given severity: every error-like
// quantity is multiplied by a log-normal factor with sigma = severity
// (mean-preserving), and T1/T2 by the inverse of an independent factor.
//
// Real devices drift between daily calibrations; the paper (§4.2)
// attributes most of Q-BEEP's regressions to exactly this — λ estimated
// from stale statistics. Pair a Drifted backend (as the executing device)
// with the original (as the λ source) to reproduce that failure mode; the
// stale-calibration tests and ablation do.
func Drifted(b *Backend, severity float64, seed uint64) (*Backend, error) {
	if b == nil {
		return nil, fmt.Errorf("device: nil backend")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if severity < 0 {
		return nil, fmt.Errorf("device: negative drift severity %v", severity)
	}
	rng := mathx.NewRNG(seed)
	factor := func() float64 {
		if severity == 0 {
			return 1
		}
		return lognormalMean1(rng, severity)
	}
	clamp := func(v float64) float64 {
		if v > 0.5 {
			return 0.5
		}
		if v < 0 {
			return 0
		}
		return v
	}
	cal := &Calibration{
		Qubits:  make([]QubitCalibration, len(b.Calibration.Qubits)),
		Gates1Q: make([]GateCalibration, len(b.Calibration.Gates1Q)),
		Gates2Q: make(map[Edge]GateCalibration, len(b.Calibration.Gates2Q)),
	}
	for i, q := range b.Calibration.Qubits {
		t1 := q.T1 / factor()
		t2 := q.T2 / factor()
		if t2 > 2*t1 {
			t2 = 2 * t1
		}
		cal.Qubits[i] = QubitCalibration{
			T1:           t1,
			T2:           t2,
			ReadoutError: clamp(q.ReadoutError * factor()),
		}
	}
	for i, g := range b.Calibration.Gates1Q {
		cal.Gates1Q[i] = GateCalibration{
			Error:    clamp(g.Error * factor()),
			Duration: g.Duration,
		}
	}
	for _, e := range b.Topology.Edges() {
		g := b.Calibration.Gates2Q[e]
		cal.Gates2Q[e] = GateCalibration{
			Error:    clamp(g.Error * factor()),
			Duration: g.Duration,
		}
	}
	return newBackend(b.Name+"-drifted", b.Architecture, b.Topology, cal)
}

// lognormalMean1 draws exp(σZ - σ²/2): log-normal with unit mean.
func lognormalMean1(rng *mathx.RNG, sigma float64) float64 {
	return math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
}
