package experiments

import (
	"context"
	"fmt"
	"time"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/hammer"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/obs"
)

// Outcome bundles one circuit induction with all three post-processing
// views, everything marginalized onto the workload's data qubits.
type Outcome struct {
	Workload *algorithms.Workload
	Backend  *device.Backend
	Raw      *bitstring.Dist
	QBeep    *bitstring.Dist
	Hammer   *bitstring.Dist
	Ideal    *bitstring.Dist
	Lambda   core.LambdaBreakdown
	Trace    []float64 // per-iteration fidelity when tracked
}

// runWorkload executes the workload on the backend under the default
// hardware-like noise model and applies Q-BEEP (Eq. 2 λ, with the
// caller's core options — iteration schedule, convergence tolerance,
// top-k mode) and HAMMER. batch > 1 fans the shot loop across the
// worker pool (see Config.Batch). track enables the per-iteration
// fidelity trace (costs one fidelity evaluation per iteration). Every
// completed workload is logged at info level (circuit, backend,
// elapsed) — the progress feed for multi-minute figure runs.
func runWorkload(ctx context.Context, w *algorithms.Workload, b *device.Backend, shots, batch int, opts core.Options, rng *mathx.RNG, track bool) (*Outcome, error) {
	t0 := time.Now()
	exec, err := noise.NewExecutor(b, noise.DefaultModel())
	if err != nil {
		return nil, err
	}
	run, err := exec.ExecuteCtx(ctx, w.Circuit, shots, batch, rng)
	if err != nil {
		return nil, fmt.Errorf("executing %s on %s: %w", w.Circuit.Name, b.Name, err)
	}
	lambda, err := core.EstimateLambda(run.Transpiled, b)
	if err != nil {
		return nil, err
	}
	raw, err := w.MarginalCounts(run.Counts)
	if err != nil {
		return nil, err
	}
	ideal, err := w.MarginalCounts(run.Ideal)
	if err != nil {
		return nil, err
	}
	// Capture the core loop's end-of-run quality stats; recordQuality
	// below merges them with the workload's exact ground truth and
	// forwards everything to the report aggregator and the run ledger.
	var qstats core.QualityStats
	opts.OnQuality = func(q core.QualityStats) { qstats = q }
	var qb *bitstring.Dist
	var trace []float64
	m0 := time.Now()
	if track {
		qb, trace, err = core.MitigateTrackedCtx(ctx, raw, lambda.Lambda(), opts, ideal)
	} else {
		qb, err = core.MitigateCtx(ctx, raw, lambda.Lambda(), opts)
	}
	if err != nil {
		return nil, err
	}
	mitigateWallS := time.Since(m0).Seconds()
	hm, err := hammer.Mitigate(raw, hammer.NewOptions())
	if err != nil {
		return nil, err
	}
	obs.Logger().Info("workload done",
		"circuit", w.Circuit.Name, "backend", b.Name,
		"shots", shots, "elapsed", time.Since(t0))
	out := &Outcome{
		Workload: w,
		Backend:  b,
		Raw:      raw,
		QBeep:    qb,
		Hammer:   hm,
		Ideal:    ideal,
		Lambda:   lambda,
		Trace:    trace,
	}
	recordQuality(out, qstats, mitigateWallS)
	return out, nil
}

// fidelity3 returns (raw, qbeep, hammer) fidelities against the ideal.
func (o *Outcome) fidelity3() (raw, qb, hm float64) {
	return bitstring.Fidelity(o.Ideal, o.Raw),
		bitstring.Fidelity(o.Ideal, o.QBeep),
		bitstring.Fidelity(o.Ideal, o.Hammer)
}

// pst3 returns (raw, qbeep, hammer) PSTs for a deterministic workload.
func (o *Outcome) pst3() (raw, qb, hm float64, err error) {
	if !o.Workload.Deterministic {
		return 0, 0, 0, fmt.Errorf("experiments: %s has no unique answer", o.Workload.Circuit.Name)
	}
	e := o.Workload.Expected
	return o.Raw.Prob(e), o.QBeep.Prob(e), o.Hammer.Prob(e), nil
}

// spectrumAround returns the observed Hamming spectrum centered on the
// workload's expected output.
func (o *Outcome) spectrumAround() []float64 {
	center := o.Workload.Expected
	if !o.Workload.Deterministic {
		center, _ = o.Ideal.Top()
	}
	return o.Raw.HammingSpectrum(center)
}

// errorSpectrumAround returns the Hamming spectrum of the *error* mass
// only (the correct outcome's bucket zeroed and the rest renormalized) —
// the conditional distribution the Poisson model describes. ok is false
// when there is no error mass.
func (o *Outcome) errorSpectrumAround() ([]float64, bool) {
	spec := o.spectrumAround()
	spec[0] = 0
	var sum float64
	for _, v := range spec {
		sum += v
	}
	if sum <= 0 {
		return spec, false
	}
	for i := range spec {
		spec[i] /= sum
	}
	return spec, true
}
