package experiments

import (
	"context"
	"fmt"

	"qbeep/internal/algorithms"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/par"
)

// RBPoint is one randomized-benchmarking circuit's summary: transpiled
// gate count vs expected Hamming distance of its errors, plus the Index of
// Dispersion of its error spectrum.
type RBPoint struct {
	Backend   string
	GateCount int
	EHD       float64
	IoD       float64
	IoDValid  bool
}

// Figure4Result holds all three panels of Fig. 4.
type Figure4Result struct {
	Superconducting []RBPoint // (a) + (c): 12-qubit RB across the fleet
	TrappedIon      []RBPoint // (b): 5-qubit RB on the ion backend
	FitSC           mathx.LinearFit
	FitIon          mathx.LinearFit
	MeanIoDSC       float64 // paper: ≈ 0.92
	MeanIoDIon      float64 // paper: ≈ 1.003
}

// Figure4 reproduces Fig. 4: EHD of RB-circuit errors vs gate count on
// (a) 12-qubit superconducting fleets and (b) the 5-qubit trapped-ion
// backend, plus (c) the Index of Dispersion of the same error spectra.
// The paper's findings to match in shape: EHD grows linearly with gate
// count on both architectures (ion R² = 0.88) and the IoD hovers near 1
// (the Poisson signature).
func Figure4(ctx context.Context, cfg Config) (*Figure4Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := cfg.rng(4)
	res := &Figure4Result{}

	// (a)/(c): 12-qubit RB over every catalog backend with >= 12 qubits.
	scBackends, err := allWithAtLeast(12)
	if err != nil {
		return nil, err
	}
	nSC := cfg.scaled(500, 24)
	sc, err := rbSweep(ctx, nSC, 12, scBackends, cfg, rng)
	if err != nil {
		return nil, err
	}
	res.Superconducting = sc

	// (b): 5-qubit RB on the trapped-ion backend.
	ion, err := device.IonBackend()
	if err != nil {
		return nil, err
	}
	nIon := cfg.scaled(125, 12)
	ionPts, err := rbSweep(ctx, nIon, 5, []*device.Backend{ion}, cfg, rng)
	if err != nil {
		return nil, err
	}
	res.TrappedIon = ionPts

	res.FitSC, res.MeanIoDSC, err = fitRB(sc)
	if err != nil {
		return nil, err
	}
	res.FitIon, res.MeanIoDIon, err = fitRB(ionPts)
	if err != nil {
		return nil, err
	}

	cfg.printf("\nFigure 4(a): 12-qubit RB, %d circuits, %d superconducting backends\n",
		len(sc), len(scBackends))
	cfg.printf("  EHD vs gates: slope=%.5f intercept=%.3f R2=%.3f\n",
		res.FitSC.Slope, res.FitSC.Intercept, res.FitSC.R2)
	cfg.printf("Figure 4(b): 5-qubit RB, %d circuits, trapped-ion backend\n", len(ionPts))
	cfg.printf("  EHD vs gates: slope=%.5f intercept=%.3f R2=%.3f (paper: R2=0.88)\n",
		res.FitIon.Slope, res.FitIon.Intercept, res.FitIon.R2)
	cfg.printf("Figure 4(c): Index of Dispersion\n")
	cfg.printf("  mean IoD superconducting=%.3f (paper: 0.92)  trapped-ion=%.3f (paper: 1.003)  Poisson reference=1.0\n",
		res.MeanIoDSC, res.MeanIoDIon)
	return res, nil
}

// allWithAtLeast returns every catalog backend with at least n qubits.
func allWithAtLeast(n int) ([]*device.Backend, error) {
	all, err := device.Catalog()
	if err != nil {
		return nil, err
	}
	var out []*device.Backend
	for _, b := range all {
		if b.N() >= n {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no backend with >= %d qubits", n)
	}
	return out, nil
}

// rbSweep runs count RB circuits of width n with random depths across the
// backends, round-robin.
func rbSweep(ctx context.Context, count, n int, backends []*device.Backend, cfg Config, rng *mathx.RNG) ([]RBPoint, error) {
	// Phase 1: deterministic RB corpus with per-circuit RNGs.
	type task struct {
		w   *algorithms.Workload
		b   *device.Backend
		rng *mathx.RNG
	}
	tasks := make([]task, 0, count)
	for i := 0; i < count; i++ {
		// Depth skews shallow: beyond ~n/2 expected flips the register
		// saturates toward the maximally-mixed state, where EHD plateaus
		// at n/2 and the IoD collapses to the Binomial 0.5 — the regime
		// the paper's corpus (EHD up to ~n/2, IoD ≈ 0.92) mostly avoids.
		layers := 1 + rng.Intn(6)
		w, err := algorithms.RandomizedBenchmarking(n, layers, rng)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task{w: w, b: backends[i%len(backends)], rng: rng.Split(uint64(i))})
	}
	points := make([]RBPoint, count)
	err := par.ForEachCtx(ctx, count, 0, func(i int) error {
		w, b := tasks[i].w, tasks[i].b
		exec, err := noise.NewExecutor(b, noise.DefaultModel())
		if err != nil {
			return err
		}
		run, err := exec.ExecuteCtx(ctx, w.Circuit, cfg.Shots, tasks[i].rng)
		if err != nil {
			return err
		}
		raw, err := w.MarginalCounts(run.Counts)
		if err != nil {
			return err
		}
		// Fig. 4 statistics use the FULL spectrum around the target string
		// (distance-0 bucket included): the paper's EHD is the expected
		// distance of the circuit's real outputs, and its IoD is computed
		// "over each circuit's Hamming spectrum, with a target bit string".
		// A Poisson-distributed flip count then shows up directly as
		// IoD ≈ 1.
		spec := raw.HammingSpectrum(w.Expected)
		pt := RBPoint{
			Backend:   b.Name,
			GateCount: run.Transpiled.Circuit.GateCount(),
		}
		if mean, iod, ok := spectrumMoments(spec); ok {
			pt.EHD = mean
			pt.IoD = iod
			pt.IoDValid = true
		}
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// fitRB regresses EHD on gate count and averages the IoD.
func fitRB(points []RBPoint) (mathx.LinearFit, float64, error) {
	var xs, ys, iods []float64
	for _, p := range points {
		if !p.IoDValid {
			continue
		}
		xs = append(xs, float64(p.GateCount))
		ys = append(ys, p.EHD)
		iods = append(iods, p.IoD)
	}
	fit, err := mathx.FitLine(xs, ys)
	if err != nil {
		return mathx.LinearFit{}, 0, err
	}
	return fit, mathx.Mean(iods), nil
}
