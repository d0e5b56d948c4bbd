package experiments

import (
	"context"
	"sort"

	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/metrics"
	"qbeep/internal/noise"
	"qbeep/internal/par"
	"qbeep/internal/qaoa"
)

// QAOACase is one QAOA solution before/after mitigation (one x-position
// of Fig. 10(a)).
type QAOACase struct {
	Vertices int
	P        int
	Backend  string
	CRRaw    float64
	CRQBeep  float64
	Ratio    float64 // CRQBeep / CRRaw
	Lambda   float64
}

// Figure10Result aggregates the QAOA evaluation.
type Figure10Result struct {
	Cases []QAOACase
	// Relative CR improvement (paper: mean 1.71×, 94.1 % success rate,
	// outliers up to 31.7×).
	Improvement metrics.Summary
	SuccessRate float64
	// CDFs of the CR value before and after (Fig. 10(b)).
	CRRawSorted   []float64
	CRQBeepSorted []float64
	// Estimated Poisson parameters (Fig. 10(c); paper: 0-2 range).
	Lambdas []float64
}

// Figure10 reproduces Fig. 10: a synthetic Sycamore-style QAOA corpus run
// on the backend fleet, scored by Cost Ratio before and after Q-BEEP.
// Shape targets: mean relative CR improvement > 1 with a high success
// rate, the post-mitigation CR CDF shifted right, and λ estimates mostly
// in the 0–2 band.
func Figure10(ctx context.Context, cfg Config) (*Figure10Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	defer figureSpan("10")()
	rng := cfg.rng(10)
	count := cfg.scaled(340, 8)
	instances, err := qaoa.Dataset(ctx, count, 6, 12, 3, rng)
	if err != nil {
		return nil, err
	}
	backends, err := device.CatalogSubset(8, 12)
	if err != nil {
		return nil, err
	}
	res := &Figure10Result{}

	rngs := make([]*mathx.RNG, len(instances))
	for i := range rngs {
		rngs[i] = rng.Split(uint64(i))
	}
	cases := make([]QAOACase, len(instances))
	err = par.ForEachCtx(ctx, len(instances), 0, func(i int) error {
		inst := instances[i]
		b := backends[i%len(backends)]
		exec, err := noise.NewExecutor(b, noise.DefaultModel())
		if err != nil {
			return err
		}
		run, err := exec.ExecuteCtx(ctx, inst.Circuit, cfg.Shots, cfg.Batch, rngs[i])
		if err != nil {
			return err
		}
		lambda, err := core.EstimateLambda(run.Transpiled, b)
		if err != nil {
			return err
		}
		mitigated, err := core.MitigateCtx(ctx, run.Counts, lambda.Lambda(), core.NewOptions())
		if err != nil {
			return err
		}
		crRaw, err := inst.Graph.CostRatio(run.Counts)
		if err != nil {
			return err
		}
		crQB, err := inst.Graph.CostRatio(mitigated)
		if err != nil {
			return err
		}
		cases[i] = QAOACase{
			Vertices: inst.Graph.N,
			P:        inst.P,
			Backend:  b.Name,
			CRRaw:    crRaw,
			CRQBeep:  crQB,
			Ratio:    crImprovement(crRaw, crQB),
			Lambda:   lambda.Lambda(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Cases = cases

	var ratios []float64
	success := 0
	for _, c := range res.Cases {
		ratios = append(ratios, c.Ratio)
		if c.CRQBeep >= c.CRRaw {
			success++
		}
		res.CRRawSorted = append(res.CRRawSorted, c.CRRaw)
		res.CRQBeepSorted = append(res.CRQBeepSorted, c.CRQBeep)
		res.Lambdas = append(res.Lambdas, c.Lambda)
	}
	sort.Float64s(res.CRRawSorted)
	sort.Float64s(res.CRQBeepSorted)
	res.Improvement = metrics.Summarize(ratios)
	if len(res.Cases) > 0 {
		res.SuccessRate = float64(success) / float64(len(res.Cases))
	}

	cfg.printf("\nFigure 10: QAOA, %d solutions, %d backends\n", len(res.Cases), len(backends))
	cfg.printf("  (a) relative CR improvement: %s  (paper: mean 1.71)\n", res.Improvement)
	cfg.printf("      success rate: %.1f%%  (paper: 94.1%%)\n", 100*res.SuccessRate)
	cfg.printf("  (b) CR CDF quartiles (raw -> qbeep):\n")
	for _, q := range []float64{0.25, 0.5, 0.75} {
		cfg.printf("      q%.0f: %.4f -> %.4f\n", q*100,
			mathx.Quantile(res.CRRawSorted, q), mathx.Quantile(res.CRQBeepSorted, q))
	}
	cfg.printf("  (c) Poisson parameter distribution: min=%.3f median=%.3f max=%.3f (paper: 0-2 range)\n",
		mathx.Min(res.Lambdas), mathx.Median(res.Lambdas), mathx.Max(res.Lambdas))
	return res, nil
}

// crImprovement computes the paper's CR_QBEEP/CR_prior ratio, handling
// sign: CR can be negative when the raw distribution is worse than random
// guessing (E[C] > 0). A negative-to-positive transition is reported as
// the magnitude gain capped into the positive axis, matching how the
// paper treats its unplottable outliers.
func crImprovement(before, after float64) float64 {
	const tiny = 1e-9
	if before > tiny {
		return after / before
	}
	if after > tiny {
		// Raw was at or below zero and mitigation recovered signal.
		return 1 + after
	}
	if before < -tiny && after >= before {
		return 1
	}
	return metrics.SafeRatio(-before+1, -after+1, 1)
}
