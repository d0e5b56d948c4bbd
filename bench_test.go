package qbeep

// The benchmark harness regenerates every figure of the paper's
// evaluation (run with -bench and read the custom metrics), plus the
// ablation studies DESIGN.md §5 calls out. Figure benches run the same
// runners as cmd/qbeep-experiments at a reduced corpus scale so a full
// -bench=. pass stays tractable; pass -scale via the command for
// paper-sized corpora.

import (
	"context"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/experiments"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
)

func benchCfg() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Shots = 2048
	return cfg
}

// BenchmarkFigure1 regenerates Fig. 1: the showcase Hamming spectrum and
// the 8-qubit BV mitigation demo.
func BenchmarkFigure1(b *testing.B) {
	var pstGain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		pstGain = res.PSTQBeep / res.PSTRaw
	}
	b.ReportMetric(pstGain, "pst-gain")
}

// BenchmarkFigure2 regenerates Fig. 2: spectrum model comparisons over 8
// BV widths.
func BenchmarkFigure2(b *testing.B) {
	var wins float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		wins = 0
		for _, s := range res {
			if s.HellingerQBeep < s.HellingerHammer {
				wins++
			}
		}
	}
	b.ReportMetric(wins, "qbeep-wins-of-8")
}

// BenchmarkFigure4 regenerates Fig. 4: RB EHD growth and Index of
// Dispersion on both architectures.
func BenchmarkFigure4(b *testing.B) {
	var iod float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		iod = res.MeanIoDSC
	}
	b.ReportMetric(iod, "mean-iod")
}

// BenchmarkFigure6 regenerates Fig. 6: Hellinger-distance validation of
// the five spectrum models.
func BenchmarkFigure6(b *testing.B) {
	var qb float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		qb = res.MeanQBeep
	}
	b.ReportMetric(qb, "qbeep-hellinger")
}

// BenchmarkFigure7 regenerates Fig. 7: the BV PST/fidelity evaluation
// against HAMMER.
func BenchmarkFigure7(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		mean = res.PSTQBeep.Mean
	}
	b.ReportMetric(mean, "mean-pst-gain")
}

// BenchmarkFigure8 regenerates Fig. 8 (and 9/11, which share the sweep):
// QASMBench fidelity changes per algorithm.
func BenchmarkFigure8(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunQASMBench(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Overall.Mean
	}
	b.ReportMetric(mean, "mean-fid-gain")
}

// BenchmarkFigure9 regenerates Fig. 9: per-machine average fidelity
// change (same sweep as Fig. 8, reported by backend).
func BenchmarkFigure9(b *testing.B) {
	var machines float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		machines = float64(len(res.ByBackend))
	}
	b.ReportMetric(machines, "machines")
}

// BenchmarkFigure10 regenerates Fig. 10: QAOA Cost-Ratio improvements.
func BenchmarkFigure10(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Improvement.Mean
	}
	b.ReportMetric(mean, "mean-cr-gain")
}

// BenchmarkFigure11 regenerates Fig. 11: the entropy-vs-improvement
// anticorrelation.
func BenchmarkFigure11(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		r = res.EntropyFit.R
	}
	b.ReportMetric(r, "entropy-r")
}

// ---- Ablations (DESIGN.md §5) ----

// ablationCounts builds a reference noisy BV run once per benchmark.
func ablationCounts(b *testing.B) (raw, ideal *bitstring.Dist, lambda float64) {
	b.Helper()
	w, err := algorithms.BernsteinVazirani(10, 0b1011010011)
	if err != nil {
		b.Fatal(err)
	}
	bk, err := device.ByName("medellin")
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(bk, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	run, err := exec.ExecuteCtx(context.Background(), w.Circuit, 4096, 1, mathx.NewRNG(99))
	if err != nil {
		b.Fatal(err)
	}
	lb, err := core.EstimateLambda(run.Transpiled, bk)
	if err != nil {
		b.Fatal(err)
	}
	rawD, err := w.MarginalCounts(run.Counts)
	if err != nil {
		b.Fatal(err)
	}
	idealD, err := w.MarginalCounts(run.Ideal)
	if err != nil {
		b.Fatal(err)
	}
	return rawD, idealD, lb.Lambda()
}

// BenchmarkAblationEdgeModel compares the Poisson edge model against the
// HAMMER-style fixed inverse-distance weighting inside the same iterative
// engine.
func BenchmarkAblationEdgeModel(b *testing.B) {
	raw, ideal, lambda := ablationCounts(b)
	for _, tc := range []struct {
		name string
		w    core.EdgeWeighter
	}{
		{"poisson", nil}, // nil selects PoissonEdges(λ)
		{"inverse-distance", core.InverseDistanceEdges{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var fid float64
			for i := 0; i < b.N; i++ {
				opts := core.NewOptions()
				opts.Weighter = tc.w
				out, err := core.MitigateCtx(context.Background(), raw, lambda, opts)
				if err != nil {
					b.Fatal(err)
				}
				fid = bitstring.Fidelity(ideal, out)
			}
			b.ReportMetric(fid, "fidelity")
		})
	}
}

// BenchmarkAblationIterations sweeps the iteration count and the
// learning-rate schedule (constant vs the paper's dampened 1/n).
func BenchmarkAblationIterations(b *testing.B) {
	raw, ideal, lambda := ablationCounts(b)
	for _, tc := range []struct {
		name  string
		iters int
		lr    func(int) float64
	}{
		{"iter1-damped", 1, nil},
		{"iter5-damped", 5, nil},
		{"iter20-damped", 20, nil},
		{"iter20-constant", 20, func(int) float64 { return 1 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var fid float64
			for i := 0; i < b.N; i++ {
				opts := core.NewOptions()
				opts.Iterations = tc.iters
				opts.LearningRate = tc.lr
				out, err := core.MitigateCtx(context.Background(), raw, lambda, opts)
				if err != nil {
					b.Fatal(err)
				}
				fid = bitstring.Fidelity(ideal, out)
			}
			b.ReportMetric(fid, "fidelity")
		})
	}
}

// BenchmarkAblationEpsilon sweeps the edge threshold ε, trading state
// graph size (the O(N·r) scalability knob) against mitigation quality.
func BenchmarkAblationEpsilon(b *testing.B) {
	raw, ideal, lambda := ablationCounts(b)
	for _, eps := range []float64{0.01, 0.05, 0.2} {
		b.Run(formatEps(eps), func(b *testing.B) {
			var fid, edges float64
			for i := 0; i < b.N; i++ {
				g, err := core.BuildStateGraphCtx(context.Background(), raw, core.PoissonEdges{Lambda: lambda}, eps, 0)
				if err != nil {
					b.Fatal(err)
				}
				edges = float64(g.NumEdges())
				opts := core.NewOptions()
				opts.Epsilon = eps
				out, err := core.MitigateCtx(context.Background(), raw, lambda, opts)
				if err != nil {
					b.Fatal(err)
				}
				fid = bitstring.Fidelity(ideal, out)
			}
			b.ReportMetric(fid, "fidelity")
			b.ReportMetric(edges, "edges")
		})
	}
}

func formatEps(e float64) string {
	switch e {
	case 0.01:
		return "eps0.01"
	case 0.05:
		return "eps0.05"
	default:
		return "eps0.20"
	}
}

// BenchmarkAblationLambda compares λ sources: the full Eq. 2 model,
// decoherence-only, gate-error-only, and the post-hoc oracle (MLE fit on
// the observed spectrum) — quantifying §3.5's sensitivity claim.
func BenchmarkAblationLambda(b *testing.B) {
	w, err := algorithms.BernsteinVazirani(10, 0b1011010011)
	if err != nil {
		b.Fatal(err)
	}
	bk, err := device.ByName("medellin")
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(bk, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	run, err := exec.ExecuteCtx(context.Background(), w.Circuit, 4096, 1, mathx.NewRNG(99))
	if err != nil {
		b.Fatal(err)
	}
	lb, err := core.EstimateLambda(run.Transpiled, bk)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := w.MarginalCounts(run.Counts)
	if err != nil {
		b.Fatal(err)
	}
	ideal, err := w.MarginalCounts(run.Ideal)
	if err != nil {
		b.Fatal(err)
	}
	// Oracle: MLE Poisson on the observed error spectrum.
	spec := raw.HammingSpectrum(w.Expected)
	spec[0] = 0
	values := make([]int, len(spec))
	for i := range values {
		values[i] = i
	}
	oracle, err := mathx.FitPoissonMLE(values, spec)
	if err != nil {
		b.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		lambda float64
	}{
		{"full-eq2", lb.Lambda()},
		{"decoherence-only", lb.T1 + lb.T2},
		{"gates-only", lb.Gates},
		{"oracle-mle", oracle.Lambda},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var fid float64
			for i := 0; i < b.N; i++ {
				out, err := core.MitigateCtx(context.Background(), raw, tc.lambda, core.NewOptions())
				if err != nil {
					b.Fatal(err)
				}
				fid = bitstring.Fidelity(ideal, out)
			}
			b.ReportMetric(fid, "fidelity")
		})
	}
}

// BenchmarkMitigateThroughput measures raw mitigation cost on a
// 4096-shot, 12-qubit distribution (the post-processing path a vendor
// would run per job).
func BenchmarkMitigateThroughput(b *testing.B) {
	rng := mathx.NewRNG(5)
	raw := bitstring.NewDist(12)
	truth := bitstring.BitString(0b101101001101)
	pois := mathx.Poisson{Lambda: 1.6}
	for i := 0; i < 4096; i++ {
		v := truth
		k := pois.Sample(rng.Float64)
		for j := 0; j < k; j++ {
			v = v.FlipBit(rng.Intn(12))
		}
		raw.Add(v, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MitigateCtx(context.Background(), raw, 1.6, core.NewOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
