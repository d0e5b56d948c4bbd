package experiments

import (
	"context"
	"sort"

	"qbeep/internal/algorithms"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/metrics"
	"qbeep/internal/par"
)

// QASMBenchCell is one (algorithm, machine) induction of the Fig. 8/9
// grid.
type QASMBenchCell struct {
	Algorithm string
	Backend   string
	FidRaw    float64
	FidQBeep  float64
	Ratio     float64 // FidQBeep / FidRaw
	Entropy   float64 // ideal output entropy (Fig. 11 x-axis)
}

// QASMBenchResult aggregates the suite evaluation (Figs. 8, 9, 11).
type QASMBenchResult struct {
	Cells       []QASMBenchCell
	ByAlgorithm map[string]metrics.Summary // Fig. 8
	ByBackend   map[string]metrics.Summary // Fig. 9
	Overall     metrics.Summary            // paper: mean +6.67 %, max +17.8 %
	// Fig. 11: entropy vs mean ratio regression (paper: strong inverse
	// correlation, quoted as R² = -0.82, i.e. r ≈ -0.9).
	EntropyFit mathx.LinearFit
}

// RunQASMBench executes the QASMBench-style suite over the whole backend
// catalog and aggregates Figs. 8, 9 and 11 from one pass.
func RunQASMBench(ctx context.Context, cfg Config) (*QASMBenchResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	defer figureSpan("8/9/11")()
	rng := cfg.rng(8)
	backends, err := device.Catalog()
	if err != nil {
		return nil, err
	}
	if scaled := cfg.scaled(len(backends), 4); scaled < len(backends) {
		backends = backends[:scaled]
	}
	res := &QASMBenchResult{
		ByAlgorithm: make(map[string]metrics.Summary),
		ByBackend:   make(map[string]metrics.Summary),
	}
	repeats := cfg.scaled(4, 1) // multiple seeds per cell stabilize ratios

	byAlg := map[string][]float64{}
	byBackend := map[string][]float64{}
	entropyByAlg := map[string]float64{}
	var all []float64

	// Phase 1: one task per (algorithm, backend) cell, each with its own
	// RNG so the grid can run in parallel.
	type task struct {
		alg     string
		w       *algorithms.Workload
		b       *device.Backend
		rng     *mathx.RNG
		entropy float64
	}
	var tasks []task
	for _, entry := range algorithms.Suite() {
		w, err := entry.Build()
		if err != nil {
			return nil, err
		}
		ideal, err := w.IdealDist(ctx)
		if err != nil {
			return nil, err
		}
		entropyByAlg[entry.Name] = ideal.Entropy()
		for _, b := range backends {
			if b.N() < w.Circuit.N {
				continue
			}
			tasks = append(tasks, task{
				alg:     entry.Name,
				w:       w,
				b:       b,
				rng:     rng.Split(uint64(len(tasks))),
				entropy: entropyByAlg[entry.Name],
			})
		}
	}
	// Phase 2: run each cell (repeats inductions) in parallel.
	cells := make([]QASMBenchCell, len(tasks))
	err = par.ForEachCtx(ctx, len(tasks), 0, func(i int) error {
		tk := tasks[i]
		var ratios []float64
		cell := QASMBenchCell{Algorithm: tk.alg, Backend: tk.b.Name, Entropy: tk.entropy}
		for r := 0; r < repeats; r++ {
			out, err := runWorkload(ctx, tk.w, tk.b, cfg.Shots, cfg.Batch, cfg.mitigateOptions(), tk.rng, false)
			if err != nil {
				return err
			}
			fr, fq, _ := out.fidelity3()
			ratios = append(ratios, metrics.SafeRatio(fr, fq, 1))
			cell.FidRaw, cell.FidQBeep = fr, fq
		}
		cell.Ratio = mathx.Mean(ratios)
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	for _, c := range cells {
		byAlg[c.Algorithm] = append(byAlg[c.Algorithm], c.Ratio)
		byBackend[c.Backend] = append(byBackend[c.Backend], c.Ratio)
		all = append(all, c.Ratio)
	}

	for alg, rs := range byAlg {
		res.ByAlgorithm[alg] = metrics.Summarize(rs)
	}
	for bk, rs := range byBackend {
		res.ByBackend[bk] = metrics.Summarize(rs)
	}
	res.Overall = metrics.Summarize(all)

	// Fig. 11 regression: entropy vs per-algorithm mean improvement.
	var xs, ys []float64
	for alg, s := range res.ByAlgorithm {
		xs = append(xs, entropyByAlg[alg])
		ys = append(ys, s.Mean)
	}
	if fit, err := mathx.FitLine(xs, ys); err == nil {
		res.EntropyFit = fit
	}

	printQASMBench(cfg, res)
	return res, nil
}

func printQASMBench(cfg Config, res *QASMBenchResult) {
	cfg.printf("\nFigure 8: relative fidelity change per QASMBench algorithm\n")
	cfg.printf("  %-20s %8s %8s %8s %9s\n", "algorithm", "mean", "max", "min", "entropy")
	algs := sortedKeys(res.ByAlgorithm)
	entropies := map[string]float64{}
	for _, c := range res.Cells {
		entropies[c.Algorithm] = c.Entropy
	}
	for _, alg := range algs {
		s := res.ByAlgorithm[alg]
		cfg.printf("  %-20s %8.4f %8.4f %8.4f %9.3f\n", alg, s.Mean, s.Max, s.Min, entropies[alg])
	}
	cfg.printf("  overall: %s  (paper: mean 1.0667, max 1.178)\n", res.Overall)

	cfg.printf("\nFigure 9: average fidelity change per machine\n")
	cfg.printf("  %-12s %8s %8s\n", "backend", "mean", "max")
	for _, bk := range sortedKeys(res.ByBackend) {
		s := res.ByBackend[bk]
		cfg.printf("  %-12s %8.4f %8.4f\n", bk, s.Mean, s.Max)
	}

	cfg.printf("\nFigure 11: entropy vs improvement: slope=%.4f r=%.3f R2=%.3f (paper: strong inverse, r ≈ -0.9)\n",
		res.EntropyFit.Slope, res.EntropyFit.R, res.EntropyFit.R2)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Figure8 runs the suite evaluation and returns the per-algorithm view.
func Figure8(ctx context.Context, cfg Config) (*QASMBenchResult, error) {
	return RunQASMBench(ctx, cfg)
}

// Figure9 runs the suite evaluation and returns the per-machine view.
func Figure9(ctx context.Context, cfg Config) (*QASMBenchResult, error) {
	return RunQASMBench(ctx, cfg)
}

// Figure11 runs the suite evaluation and returns the entropy analysis.
func Figure11(ctx context.Context, cfg Config) (*QASMBenchResult, error) {
	return RunQASMBench(ctx, cfg)
}
