package experiments

import (
	"context"
	"fmt"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/hammer"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/obs"
	"qbeep/internal/runledger"
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
// caller's core options — iteration schedule, convergence tolerance)
// and HAMMER. track enables the per-iteration fidelity
// trace (costs one fidelity evaluation per iteration). The workload runs
// under an "experiments.workload" span and its mitigation
// under an "experiments.mitigate" child, whose duration is the ledger
// record's mitigate stage. Every completed workload is logged at info
// level (circuit, backend, elapsed) — the progress feed for
// multi-minute figure runs.
func runWorkload(ctx context.Context, w *algorithms.Workload, b *device.Backend, shots int, opts core.Options, rng *mathx.RNG, track bool) (*Outcome, error) {
	ctx, sp := obs.Start(ctx, "experiments.workload")
	defer sp.End()
	exec, err := noise.NewExecutor(b, noise.DefaultModel())
	if err != nil {
		return nil, err
	}
	run, err := exec.ExecuteCtx(ctx, w.Circuit, shots, rng)
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
	// Capture the core loop's quality block; recordQuality below adds
	// the workload's exact ground truth and forwards it to the report
	// aggregator and the run ledger.
	var qstats runledger.Quality
	opts.OnQuality = func(q runledger.Quality) { qstats = q }
	var qb *bitstring.Dist
	var trace []float64
	mctx, msp := obs.Start(ctx, "experiments.mitigate")
	if track {
		qb, trace, err = core.MitigateTrackedCtx(mctx, raw, lambda.Lambda(), opts, ideal)
	} else {
		qb, err = core.MitigateCtx(mctx, raw, lambda.Lambda(), opts)
	}
	mitigateWall := msp.End()
	if err != nil {
		return nil, err
	}
	hm, err := hammer.Mitigate(ctx, raw)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("circuit", w.Circuit.Name)
	sp.SetAttr("backend", b.Name)
	obs.Logger().Info("workload done",
		"circuit", w.Circuit.Name, "backend", b.Name,
		"shots", shots, "elapsed", sp.End())
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
	recordQuality(ctx, out, qstats, mitigateWall.Seconds())
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
