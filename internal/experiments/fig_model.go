package experiments

import (
	"context"
	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/par"
)

// ModelDistances is one circuit's Hellinger distances between its observed
// error spectrum and each candidate model (one sample of Fig. 6's CDFs).
type ModelDistances struct {
	Circuit     string
	Backend     string
	QBeep       float64 // Poisson with pre-induction λ (Eq. 2)
	MLEPoisson  float64 // Poisson fit on the observed spectrum
	MLEBinomial float64
	Uniform     float64
	Hammer      float64
}

// Figure6Result aggregates the model-validation corpus.
type Figure6Result struct {
	Samples []ModelDistances
	// Mean Hellinger distances; the paper reports MLE Poisson 0.016,
	// Q-BEEP 0.159, Uniform 0.210, Binomial 0.401.
	MeanQBeep       float64
	MeanMLEPoisson  float64
	MeanMLEBinomial float64
	MeanUniform     float64
	MeanHammer      float64
}

// Figure6 reproduces Fig. 6: across a corpus of single-answer circuits
// (BV, adder, RB; 4–15 qubits), compare five Hamming-spectrum models
// against the observed error spectrum by Hellinger distance. Expected
// ordering (paper): MLE Poisson < Q-BEEP < the non-Poisson models, with
// Q-BEEP the best pre-induction model.
func Figure6(ctx context.Context, cfg Config) (*Figure6Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	defer figureSpan("6")()
	rng := cfg.rng(6)
	total := cfg.scaled(2750, 30)
	backends, err := device.Catalog()
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{}

	// Phase 1 (sequential, deterministic): build the corpus with one
	// pre-split RNG per circuit so phase 2 can fan out.
	type task struct {
		w   *algorithms.Workload
		b   *device.Backend
		rng *mathx.RNG
	}
	tasks := make([]task, 0, total)
	for i := 0; i < total; i++ {
		var w *algorithms.Workload
		switch i % 3 {
		case 0: // BV, width 4-14 data qubits
			n := 4 + rng.Intn(11)
			w, err = algorithms.BernsteinVazirani(n, algorithms.RandomSecret(n, rng))
		case 1: // adder
			w, err = algorithms.Adder()
		default: // RB, width 4-12
			n := 4 + rng.Intn(9)
			w, err = algorithms.RandomizedBenchmarking(n, 1+rng.Intn(6), rng)
		}
		if err != nil {
			return nil, err
		}
		b := pickBackend(backends, w.Circuit.N, i)
		if b == nil {
			continue
		}
		tasks = append(tasks, task{w: w, b: b, rng: rng.Split(uint64(i))})
	}

	// Phase 2 (parallel): execute and score each circuit into its slot.
	samples := make([]*ModelDistances, len(tasks))
	err = par.ForEachCtx(ctx, len(tasks), 0, func(i int) error {
		tk := tasks[i]
		out, err := runWorkload(ctx, tk.w, tk.b, cfg.Shots, cfg.Batch, cfg.mitigateOptions(), tk.rng, false)
		if err != nil {
			return err
		}
		observed, ok := out.errorSpectrumAround()
		if !ok {
			return nil // perfectly clean induction: no error spectrum
		}
		n := len(observed) - 1
		values := make([]int, n+1)
		for d := range values {
			values[d] = d
		}
		mlePois, err := mathx.FitPoissonMLE(values, observed)
		if err != nil {
			return nil
		}
		mleBin, err := mathx.FitBinomialMLE(n, values, observed)
		if err != nil {
			return nil
		}
		samples[i] = &ModelDistances{
			Circuit: tk.w.Circuit.Name,
			Backend: tk.b.Name,
			QBeep: bitstring.HellingerVec(observed[1:],
				poissonErrorSpectrum(out.Lambda.Lambda(), n)[1:]),
			MLEPoisson: bitstring.HellingerVec(observed[1:],
				poissonErrorSpectrum(mlePois.Lambda, n)[1:]),
			MLEBinomial: bitstring.HellingerVec(observed[1:],
				binomialErrorSpectrum(mleBin, n)[1:]),
			Uniform: bitstring.HellingerVec(observed[1:],
				uniformErrorSpectrum(n)[1:]),
			Hammer: bitstring.HellingerVec(observed[1:],
				hammerErrorSpectrum(n)[1:]),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if s != nil {
			res.Samples = append(res.Samples, *s)
		}
	}

	var qb, mp, mb, un, hm []float64
	for _, s := range res.Samples {
		qb = append(qb, s.QBeep)
		mp = append(mp, s.MLEPoisson)
		mb = append(mb, s.MLEBinomial)
		un = append(un, s.Uniform)
		hm = append(hm, s.Hammer)
	}
	res.MeanQBeep = mathx.Mean(qb)
	res.MeanMLEPoisson = mathx.Mean(mp)
	res.MeanMLEBinomial = mathx.Mean(mb)
	res.MeanUniform = mathx.Mean(un)
	res.MeanHammer = mathx.Mean(hm)

	cfg.printf("\nFigure 6: Hellinger distance of Hamming-spectrum models (%d circuits)\n", len(res.Samples))
	cfg.printf("  %-14s %10s %10s  (paper mean)\n", "model", "mean", "median")
	cfg.printf("  %-14s %10.4f %10.4f  (0.016)\n", "MLE Poisson", res.MeanMLEPoisson, mathx.Median(mp))
	cfg.printf("  %-14s %10.4f %10.4f  (0.159)\n", "Q-BEEP", res.MeanQBeep, mathx.Median(qb))
	cfg.printf("  %-14s %10.4f %10.4f  (0.210)\n", "Uniform", res.MeanUniform, mathx.Median(un))
	cfg.printf("  %-14s %10.4f %10.4f  (0.401)\n", "MLE Binomial", res.MeanMLEBinomial, mathx.Median(mb))
	cfg.printf("  %-14s %10.4f %10.4f  (n/a)\n", "HAMMER", res.MeanHammer, mathx.Median(hm))
	// CDF rows (deciles) for the plotted curves.
	cfg.printf("  CDF deciles (Hellinger at q):\n")
	cfg.printf("  %4s %8s %8s %8s %8s %8s\n", "q", "qbeep", "mlePois", "mleBin", "unif", "hammer")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		cfg.printf("  %4.2f %8.4f %8.4f %8.4f %8.4f %8.4f\n", q,
			mathx.Quantile(qb, q), mathx.Quantile(mp, q), mathx.Quantile(mb, q),
			mathx.Quantile(un, q), mathx.Quantile(hm, q))
	}
	return res, nil
}

// pickBackend deterministically selects a backend with capacity for n
// qubits, rotating with i.
func pickBackend(backends []*device.Backend, n, i int) *device.Backend {
	var fit []*device.Backend
	for _, b := range backends {
		if b.N() >= n {
			fit = append(fit, b)
		}
	}
	if len(fit) == 0 {
		return nil
	}
	return fit[i%len(fit)]
}
