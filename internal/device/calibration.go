package device

import (
	"fmt"

	"qbeep/internal/mathx"
)

// QubitCalibration holds the per-qubit runtime statistics IBMQ publishes
// daily. Times are in seconds, errors are probabilities.
type QubitCalibration struct {
	T1           float64 `json:"t1"`            // relaxation time
	T2           float64 `json:"t2"`            // dephasing time
	ReadoutError float64 `json:"readout_error"` // P(flip) at measurement
}

// GateCalibration holds per-gate statistics.
type GateCalibration struct {
	Error    float64 `json:"error"`    // infidelity of one application
	Duration float64 `json:"duration"` // seconds
}

// Calibration is the full runtime snapshot of a backend: per-qubit
// coherence and readout plus per-gate-class errors. Single-qubit gates are
// keyed by qubit, two-qubit gates by edge.
type Calibration struct {
	Qubits  []QubitCalibration       `json:"qubits"`
	Gates1Q []GateCalibration        `json:"gates_1q"` // indexed by qubit
	Gates2Q map[Edge]GateCalibration `json:"-"`        // per coupled edge
}

// Validate checks internal consistency against an n-qubit topology.
func (c *Calibration) Validate(t *Topology) error {
	if len(c.Qubits) != t.N() {
		return fmt.Errorf("device: %d qubit calibrations for %d qubits", len(c.Qubits), t.N())
	}
	if len(c.Gates1Q) != t.N() {
		return fmt.Errorf("device: %d 1q gate calibrations for %d qubits", len(c.Gates1Q), t.N())
	}
	for i, q := range c.Qubits {
		if q.T1 <= 0 || q.T2 <= 0 {
			return fmt.Errorf("device: qubit %d has non-positive T1/T2", i)
		}
		if q.ReadoutError < 0 || q.ReadoutError > 1 {
			return fmt.Errorf("device: qubit %d readout error %v outside [0,1]", i, q.ReadoutError)
		}
	}
	for _, e := range t.Edges() {
		if _, ok := c.Gates2Q[e]; !ok {
			return fmt.Errorf("device: missing 2q calibration for edge (%d,%d)", e.A, e.B)
		}
	}
	return nil
}

// Gate2Q returns the calibration of the two-qubit gate on (a,b).
func (c *Calibration) Gate2Q(a, b int) (GateCalibration, bool) {
	g, ok := c.Gates2Q[NormEdge(a, b)]
	return g, ok
}

// GateError returns the calibrated error of a gate on the given
// physical qubits: the single-qubit entry of its qubit, or the two-qubit
// entry of its edge. It is 0 where the calibration has no entry: a qubit
// outside the register, an uncoupled pair, or a wider gate.
func (c *Calibration) GateError(qubits []int) float64 {
	switch len(qubits) {
	case 1:
		if q := qubits[0]; q >= 0 && q < len(c.Gates1Q) {
			return c.Gates1Q[q].Error
		}
	case 2:
		if g, ok := c.Gate2Q(qubits[0], qubits[1]); ok {
			return g.Error
		}
	}
	return 0
}

// MeanT1 returns the average T1 across qubits.
func (c *Calibration) MeanT1() float64 {
	var s float64
	for _, q := range c.Qubits {
		s += q.T1
	}
	return s / float64(len(c.Qubits))
}

// MeanT2 returns the average T2 across qubits.
func (c *Calibration) MeanT2() float64 {
	var s float64
	for _, q := range c.Qubits {
		s += q.T2
	}
	return s / float64(len(c.Qubits))
}

// MeanReadoutError returns the average readout error across qubits.
func (c *Calibration) MeanReadoutError() float64 {
	var s float64
	for _, q := range c.Qubits {
		s += q.ReadoutError
	}
	return s / float64(len(c.Qubits))
}

// CalibrationProfile bounds the parameter ranges a synthetic calibration is
// drawn from. Defaults (see SuperconductingProfile, TrappedIonProfile)
// follow published IBMQ and IonQ figures.
type CalibrationProfile struct {
	T1Lo, T1Hi           float64 // seconds
	T2Lo, T2Hi           float64
	Err1QLo, Err1QHi     float64
	Err2QLo, Err2QHi     float64
	ReadoutLo, ReadoutHi float64
	Dur1Q, Dur2Q         float64 // seconds per gate
	QualityScale         float64 // >1 degrades errors uniformly
}

// SuperconductingProfile mirrors typical IBMQ Falcon-class numbers:
// T1/T2 ~ 50–200 µs, 1q errors ~2e-4–1e-3, CX errors ~5e-3–3e-2,
// readout 1–5 %, 35 ns 1q / 300 ns 2q gates.
func SuperconductingProfile() CalibrationProfile {
	return CalibrationProfile{
		T1Lo: 50e-6, T1Hi: 200e-6,
		T2Lo: 30e-6, T2Hi: 150e-6,
		Err1QLo: 2e-4, Err1QHi: 1e-3,
		Err2QLo: 5e-3, Err2QHi: 3e-2,
		ReadoutLo: 0.01, ReadoutHi: 0.05,
		Dur1Q: 35e-9, Dur2Q: 300e-9,
		QualityScale: 1,
	}
}

// TrappedIonProfile mirrors IonQ-class numbers: second-scale coherence,
// much slower gates, low 1q error, ~1 % 2q error.
func TrappedIonProfile() CalibrationProfile {
	return CalibrationProfile{
		T1Lo: 1, T1Hi: 10,
		T2Lo: 0.2, T2Hi: 1,
		Err1QLo: 5e-5, Err1QHi: 5e-4,
		Err2QLo: 5e-3, Err2QHi: 2e-2,
		ReadoutLo: 0.003, ReadoutHi: 0.01,
		Dur1Q: 10e-6, Dur2Q: 200e-6,
		QualityScale: 1,
	}
}

// GenerateCalibration draws a calibration snapshot for the topology from
// the profile using the deterministic RNG. Error-like quantities are drawn
// log-uniformly (they scatter over orders of magnitude on real devices) and
// scaled by QualityScale, clamped to 0.5.
func GenerateCalibration(t *Topology, p CalibrationProfile, rng *mathx.RNG) *Calibration {
	scale := p.QualityScale
	if scale <= 0 {
		scale = 1
	}
	clamp := func(v float64) float64 {
		if v > 0.5 {
			return 0.5
		}
		return v
	}
	cal := &Calibration{
		Qubits:  make([]QubitCalibration, t.N()),
		Gates1Q: make([]GateCalibration, t.N()),
		Gates2Q: make(map[Edge]GateCalibration, len(t.Edges())),
	}
	for q := 0; q < t.N(); q++ {
		t1 := rng.LogUniform(p.T1Lo, p.T1Hi)
		t2 := rng.LogUniform(p.T2Lo, p.T2Hi)
		// Physical constraint: T2 <= 2·T1.
		if t2 > 2*t1 {
			t2 = 2 * t1
		}
		cal.Qubits[q] = QubitCalibration{
			T1:           t1,
			T2:           t2,
			ReadoutError: clamp(rng.LogUniform(p.ReadoutLo, p.ReadoutHi) * scale),
		}
		cal.Gates1Q[q] = GateCalibration{
			Error:    clamp(rng.LogUniform(p.Err1QLo, p.Err1QHi) * scale),
			Duration: p.Dur1Q,
		}
	}
	for _, e := range t.Edges() {
		cal.Gates2Q[e] = GateCalibration{
			Error:    clamp(rng.LogUniform(p.Err2QLo, p.Err2QHi) * scale),
			Duration: p.Dur2Q,
		}
	}
	return cal
}
