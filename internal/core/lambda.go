// Package core implements the paper's contribution: the pre-induction
// Poisson model of Hamming-spectrum errors (Eq. 2), the Bayesian-network
// state graph over observed bit-strings (Eq. 4), and the iterative
// count-reflow mitigation algorithm (Algorithm 1).
package core

import (
	"fmt"
	"math"

	"qbeep/internal/device"
	"qbeep/internal/obs"
	"qbeep/internal/transpile"
)

// LambdaBreakdown itemizes Eq. 2's terms:
//
//	λ = Σ_q (1 - e^(-t/T1_q)) + Σ_q (1 - e^(-t/T2_q)) + Σ_g σ_g·U_count(g)
//
// where the sums over q run over the physical qubits carrying logical data,
// t is the scheduled end-to-end circuit time, σ_g the calibrated infidelity
// of each basis-gate application, and U_count(g) the post-transpilation
// gate counts. The paper's n_Q(1-e^(-t/T)) form assumes homogeneous qubits;
// we keep the per-qubit sum, which reduces to it for uniform calibration.
type LambdaBreakdown struct {
	T1    float64 // relaxation term
	T2    float64 // dephasing term
	Gates float64 // Σ σ_ij · U_count
	Time  float64 // t_circuit (seconds)
}

// Lambda returns the combined rate.
func (b LambdaBreakdown) Lambda() float64 { return b.T1 + b.T2 + b.Gates }

// EstimateLambda evaluates Eq. 2 for a transpiled circuit on a backend.
// It is computed strictly pre-induction: only the transpiled circuit, the
// schedule time and the calibration snapshot are consulted — never the
// measured results.
func EstimateLambda(res *transpile.Result, b *device.Backend) (LambdaBreakdown, error) {
	if res == nil || res.Circuit == nil {
		return LambdaBreakdown{}, fmt.Errorf("core: nil transpile result")
	}
	if b == nil || b.Calibration == nil {
		return LambdaBreakdown{}, fmt.Errorf("core: nil backend")
	}
	var out LambdaBreakdown
	out.Time = res.Time
	for _, p := range res.Final {
		if p < 0 || p >= len(b.Calibration.Qubits) {
			return LambdaBreakdown{}, fmt.Errorf("core: layout qubit %d outside calibration", p)
		}
		q := b.Calibration.Qubits[p]
		out.T1 += 1 - math.Exp(-res.Time/q.T1)
		out.T2 += 1 - math.Exp(-res.Time/q.T2)
	}
	for _, g := range res.Circuit.Gates {
		if !g.Kind.IsUnitary() {
			continue
		}
		out.Gates += b.Calibration.GateError(g.Qubits)
	}
	// Every estimation path (CLI, simulator, experiments) funnels through
	// here, so this is the one site that keeps the per-backend λ gauge
	// current — calibration drift between snapshots shows up on /metrics
	// as qbeep_quality_lambda{backend=...} moving.
	if b.Name != "" {
		obs.Default.LabeledGauge("quality.lambda", "backend", b.Name).Set(out.Lambda())
	}
	return out, nil
}
