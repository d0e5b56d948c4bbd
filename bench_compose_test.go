package qbeep

// Ablation benches for the composition extensions (paper §3.5 and the
// §4.2 failure analysis): readout+Q-BEEP stacking, ensemble merging, and
// stale-calibration sensitivity.

import (
	"context"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/readout"
)

// BenchmarkAblationComposition compares Q-BEEP alone against readout
// correction + Q-BEEP on the same noisy induction.
func BenchmarkAblationComposition(b *testing.B) {
	w, err := algorithms.BernsteinVazirani(8, 0b10110101)
	if err != nil {
		b.Fatal(err)
	}
	bk, err := device.ByName("galway")
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(bk, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	run, err := exec.ExecuteCtx(context.Background(), w.Circuit, 4096, mathx.NewRNG(55))
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
	flips := make([]float64, 8)
	for i, p := range run.Transpiled.Final[:8] {
		flips[i] = bk.Calibration.Qubits[p].ReadoutError
	}
	rd, err := readout.NewFromRates(flips)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("qbeep-only", func(b *testing.B) {
		var fid float64
		for i := 0; i < b.N; i++ {
			out, err := core.MitigateCtx(context.Background(), raw, lb.Lambda(), core.NewOptions())
			if err != nil {
				b.Fatal(err)
			}
			fid = bitstring.Fidelity(ideal, out)
		}
		b.ReportMetric(fid, "fidelity")
	})
	b.Run("readout-then-qbeep", func(b *testing.B) {
		var fid float64
		for i := 0; i < b.N; i++ {
			corrected, err := rd.Apply(raw)
			if err != nil {
				b.Fatal(err)
			}
			// The readout term is now handled; mitigate the remainder.
			out, err := core.MitigateCtx(context.Background(), corrected, lb.Lambda(), core.NewOptions())
			if err != nil {
				b.Fatal(err)
			}
			fid = bitstring.Fidelity(ideal, out)
		}
		b.ReportMetric(fid, "fidelity")
	})
}

// BenchmarkAblationEnsemble compares single-backend mitigation with the
// e^-λ-weighted three-backend ensemble.
func BenchmarkAblationEnsemble(b *testing.B) {
	w, err := algorithms.BernsteinVazirani(8, 0b10011010)
	if err != nil {
		b.Fatal(err)
	}
	ideal, err := w.IdealDist(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(77)
	var members []core.EnsembleMember
	for _, name := range []string{"galway", "istanbul", "nairobi2"} {
		bk, err := device.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		exec, err := noise.NewExecutor(bk, noise.DefaultModel())
		if err != nil {
			b.Fatal(err)
		}
		run, err := exec.ExecuteCtx(context.Background(), w.Circuit, 2048, rng)
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
		members = append(members, core.EnsembleMember{Counts: raw, Lambda: lb.Lambda()})
	}

	b.Run("single-worst", func(b *testing.B) {
		var fid float64
		worst := members[0]
		for _, m := range members[1:] {
			if m.Lambda > worst.Lambda {
				worst = m
			}
		}
		for i := 0; i < b.N; i++ {
			out, err := core.MitigateCtx(context.Background(), worst.Counts, worst.Lambda, core.NewOptions())
			if err != nil {
				b.Fatal(err)
			}
			fid = bitstring.Fidelity(ideal, out)
		}
		b.ReportMetric(fid, "fidelity")
	})
	b.Run("ensemble", func(b *testing.B) {
		var fid float64
		for i := 0; i < b.N; i++ {
			out, err := core.MitigateEnsemble(context.Background(), members, core.NewOptions())
			if err != nil {
				b.Fatal(err)
			}
			fid = bitstring.Fidelity(ideal, out)
		}
		b.ReportMetric(fid, "fidelity")
	})
}

// BenchmarkAblationStaleCalibration quantifies the §4.2 failure mode:
// λ estimated from a drifted (stale) calibration vs the true one.
func BenchmarkAblationStaleCalibration(b *testing.B) {
	fresh, err := device.ByName("medellin")
	if err != nil {
		b.Fatal(err)
	}
	today, err := device.Drifted(fresh, 1.5, 99)
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(today, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	rng := mathx.NewRNG(17)
	w, err := algorithms.BernsteinVazirani(9, 0b101101011)
	if err != nil {
		b.Fatal(err)
	}
	run, err := exec.ExecuteCtx(context.Background(), w.Circuit, 4096, rng)
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
	lbFresh, err := core.EstimateLambda(run.Transpiled, today)
	if err != nil {
		b.Fatal(err)
	}
	lbStale, err := core.EstimateLambda(run.Transpiled, fresh)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		lambda float64
	}{
		{"true-calibration", lbFresh.Lambda()},
		{"stale-calibration", lbStale.Lambda()},
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
