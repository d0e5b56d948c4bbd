package core

import (
	"context"
	"fmt"
	"math"

	"qbeep/internal/bitstring"
	"qbeep/internal/obs"
)

// QualityStats is the end-of-run quality record the mitigation loop
// hands to Options.OnQuality: the Hamming-spectrum quality block of a
// runledger.Record (DESIGN.md §16), computed once after the final
// iteration. The ground-truth fields are populated only on tracked
// runs (MitigateTrackedCtx); spectra are centered on the ideal mode when
// one is known, else on the raw mode.
type QualityStats struct {
	// HellingerShift is H(raw, mitigated): how far induction moved the
	// distribution (needs no ground truth).
	HellingerShift float64
	// PosteriorEntropy is the Shannon entropy (bits) of the mitigated
	// distribution.
	PosteriorEntropy float64
	// Iterations actually executed; Converged reports whether the
	// adaptive tolerance (Options.ConvergeTol) was met.
	Iterations int
	Converged  bool
	// SpectrumRef names the spectrum center: "expected" (ideal mode)
	// or "mode" (raw mode). SpectrumBefore/After are per-Hamming-
	// distance probability mass around it, index i = distance i.
	SpectrumRef    string
	SpectrumBefore []float64
	SpectrumAfter  []float64
	// Ground truth (tracked runs only): Bhattacharyya fidelity and
	// Hellinger distance to the ideal, before and after mitigation.
	FidelityRaw        float64
	FidelityMitigated  float64
	HellingerRaw       float64
	HellingerMitigated float64
}

// Options configures the iterative mitigation. NewOptions returns the
// paper's published configuration (§4.1): ε = 0.05, 20 iterations,
// learning rate 1/n.
type Options struct {
	// Iterations is the number of state-graph update rounds.
	Iterations int
	// Epsilon is the edge-weight threshold ε; edges with model weight
	// below it are not materialized.
	Epsilon float64
	// LearningRate returns η for iteration i (1-based). The default is the
	// dampened 1/i schedule that prevents cycling between local nodes.
	LearningRate func(i int) float64
	// Weighter is the edge model; nil selects PoissonEdges with the λ
	// passed to Mitigate.
	Weighter EdgeWeighter
	// OnQuality, when non-nil, receives one QualityStats after the
	// final iteration — the hook the -run-ledger recorder hangs off.
	// The Hamming spectra and entropy are computed only when set
	// (two O(support) passes); the Hellinger shift itself is always
	// observed into the quality.hellinger_shift histogram.
	OnQuality func(QualityStats)
	// ConvergeTol, when positive, exits the update loop early once the
	// per-iteration Hellinger delta (StepStats.Hellinger) falls to or
	// below the tolerance — the flow plateaus well before the paper's
	// fixed 20 rounds on most corpora. Zero keeps the fixed schedule and
	// is bitwise identical to it; the skipped rounds are recorded as
	// iterations_saved on the "core.mitigate" span and counter.
	ConvergeTol float64
}

// NewOptions returns the paper's default configuration.
func NewOptions() Options {
	return Options{
		Iterations:   20,
		Epsilon:      0.05,
		LearningRate: func(i int) float64 { return 1 / float64(i) },
	}
}

func (o *Options) validate() error {
	if o.Iterations <= 0 {
		return fmt.Errorf("core: iterations %d must be positive", o.Iterations)
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("core: epsilon %v outside (0,1)", o.Epsilon)
	}
	if o.ConvergeTol < 0 || math.IsNaN(o.ConvergeTol) {
		return fmt.Errorf("core: converge tolerance %v must be >= 0", o.ConvergeTol)
	}
	return nil
}

// MitigateCtx runs Q-BEEP over raw counts with the pre-induction rate λ
// and returns the mitigated distribution (same total mass,
// re-normalized). The "core.mitigate" span (and its graph-build and
// per-iteration children) parent under the span active in ctx; a
// cancelled ctx stops the run before the next flow iteration and
// returns ctx's error.
func MitigateCtx(ctx context.Context, counts *bitstring.Dist, lambda float64, opts Options) (*bitstring.Dist, error) {
	out, _, err := mitigateCtx(ctx, counts, lambda, opts, nil, 0, scanAuto)
	return out, err
}

// MitigateTrackedCtx is MitigateCtx plus the per-iteration fidelity
// trace against the supplied ideal distribution (Fig. 7(c)). trace[0] is
// the pre-mitigation fidelity; trace[i] the fidelity after iteration i.
// Tracked runs additionally record the per-iteration Hellinger distance
// to ideal into the "core.mitigate.hellinger" histogram and onto the
// iteration spans, so convergence is observable without a callback.
func MitigateTrackedCtx(ctx context.Context, counts *bitstring.Dist, lambda float64, opts Options, ideal *bitstring.Dist) (*bitstring.Dist, []float64, error) {
	if ideal == nil {
		return nil, nil, fmt.Errorf("core: MitigateTrackedCtx requires an ideal distribution")
	}
	return mitigateCtx(ctx, counts, lambda, opts, ideal, 0, scanAuto)
}

// mitigateCtx is the shared run; workers and strat are the graph build's
// seam (BuildStateGraphCtx's worker count, <= 0 for GOMAXPROCS, and its
// scan strategy), through which tests pin the fan-out and force either
// representation end to end.
func mitigateCtx(ctx context.Context, counts *bitstring.Dist, lambda float64, opts Options, ideal *bitstring.Dist, workers int, strat scanStrategy) (*bitstring.Dist, []float64, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if counts == nil || counts.Support() == 0 {
		return nil, nil, fmt.Errorf("core: empty counts")
	}
	if lambda < 0 {
		return nil, nil, fmt.Errorf("core: negative lambda %v", lambda)
	}
	if opts.LearningRate == nil {
		opts.LearningRate = func(i int) float64 { return 1 / float64(i) }
	}
	w := opts.Weighter
	if w == nil {
		w = PoissonEdges{Lambda: lambda}
	}
	ctx, sp := obs.Start(ctx, "core.mitigate")
	// The deferred End covers the error returns (qbeep-lint spanend); a
	// successful run ends the span below, and its duration is the one the
	// core.mitigate timer records.
	defer sp.End()
	// Convergence observations carry the trace ID so the worst sample on
	// /metrics (_window_worst) names the trace to inspect in qbeep-trace.
	traceID := obs.TraceIDFrom(ctx)
	g, err := buildStateGraphCtx(ctx, counts, w, opts.Epsilon, workers, strat)
	if err != nil {
		return nil, nil, err
	}
	var trace []float64
	if ideal != nil {
		trace = append(trace, bitstring.Fidelity(ideal, counts))
	}
	var last StepStats
	// The round body lives in its own scope so the per-iteration span's
	// lifecycle is a straight start→End line (qbeep-lint spanend). It
	// returns whether the adaptive tolerance was met and the loop should
	// exit early, so the converged attrs land on the triggering span.
	iterate := func(i int) bool {
		eta := opts.LearningRate(i)
		// One child span per update round; inert (and free) unless a
		// sink is installed.
		// The round's context parents Step's shard worker spans.
		ictx, isp := obs.Start(ctx, "core.mitigate.iter")
		g.ctx = ictx
		last = g.Step(eta)
		isp.SetAttr("iteration", i)
		isp.SetAttr("eta", eta)
		isp.SetAttr("flow_moved", last.FlowMoved)
		isp.SetAttr("l1_delta", last.L1Delta)
		isp.SetAttr("step_hellinger", last.Hellinger)
		converged := opts.ConvergeTol > 0 && last.Hellinger <= opts.ConvergeTol && i < opts.Iterations
		if converged {
			isp.SetAttr("converged", true)
			isp.SetAttr("iterations_saved", opts.Iterations-i)
		}
		metIterFlow.ObserveTrace(last.FlowMoved, traceID)
		if ideal != nil {
			// Fidelity straight off the node slice: snapshotting a Dist
			// per iteration was the tracked loop's dominant allocation.
			// Hellinger is derived from the same Bhattacharyya sum, so
			// the nodes are scanned once per iteration, not twice.
			f := g.Fidelity(ideal)
			trace = append(trace, f)
			h := hellingerFromFidelity(f)
			metHellinger.ObserveTrace(h, traceID)
			isp.SetAttr("hellinger", h)
		}
		isp.End()
		return converged
	}
	executed := 0
	for i := 1; i <= opts.Iterations; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		executed = i
		if iterate(i) {
			break
		}
	}
	saved := opts.Iterations - executed
	out := g.Dist().Normalized(counts.Total())
	metMitigateRuns.Inc()
	metMitigateIters.Add(int64(executed))
	metMitigateSaved.Add(int64(saved))
	metFlowMoved.ObserveTrace(last.FlowMoved, traceID)
	metFinalL1.ObserveTrace(last.L1Delta, traceID)
	shift := bitstring.Hellinger(counts, out)
	metQualityShift.ObserveTrace(shift, traceID)
	sp.SetAttr("iterations", executed)
	sp.SetAttr("iterations_saved", saved)
	sp.SetAttr("vertices", g.NumVertices())
	sp.SetAttr("hellinger_shift", shift)
	if opts.OnQuality != nil {
		q := QualityStats{
			HellingerShift:   shift,
			PosteriorEntropy: out.Entropy(),
			Iterations:       executed,
			Converged:        opts.ConvergeTol > 0 && last.Hellinger <= opts.ConvergeTol,
		}
		if ideal != nil {
			q.FidelityRaw = trace[0]
			q.FidelityMitigated = trace[len(trace)-1]
			q.HellingerRaw = hellingerFromFidelity(q.FidelityRaw)
			q.HellingerMitigated = hellingerFromFidelity(q.FidelityMitigated)
			if center, ok := ideal.Top(); ok {
				q.SpectrumRef = "expected"
				q.SpectrumBefore = counts.HammingSpectrum(center)
				q.SpectrumAfter = out.HammingSpectrum(center)
			}
		} else if center, ok := counts.Top(); ok {
			q.SpectrumRef = "mode"
			q.SpectrumBefore = counts.HammingSpectrum(center)
			q.SpectrumAfter = out.HammingSpectrum(center)
		}
		opts.OnQuality(q)
	}
	metMitigate.ObserveDuration(sp.End())
	obs.Logger().Debug("mitigation finished",
		"iterations", executed, "iterations_saved", saved, "vertices", g.NumVertices(),
		"edges", g.NumEdges(), "final_l1_delta", last.L1Delta)
	return out, trace, nil
}
