package qbeep

// Extension benches: quantum-volume uplift and ZNE composition — the
// optional/extension features beyond the paper's evaluation. The
// quantum-volume helpers follow Cross et al., "Validating quantum
// computers using randomized model circuits": square random model
// circuits scored by heavy-output probability (HOP).

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/statevector"
	"qbeep/internal/transpile"
	"qbeep/internal/zne"
)

// BenchmarkQuantumVolumeUplift measures the heavy-output probability of
// QV model circuits on a noisy backend, raw vs Q-BEEP-mitigated. The
// reported metrics show whether mitigation lifts a width across the 2/3
// pass threshold.
func BenchmarkQuantumVolumeUplift(b *testing.B) {
	bk, err := device.ByName("galway")
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(bk, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	var rawMean, qbMean float64
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(31)
		var rawHOPs, qbHOPs []float64
		for trial := 0; trial < 6; trial++ {
			c, err := qvModelCircuit(4, rng)
			if err != nil {
				b.Fatal(err)
			}
			heavy, err := qvHeavySet(c)
			if err != nil {
				b.Fatal(err)
			}
			run, err := exec.ExecuteCtx(context.Background(), c, 2048, 1, rng)
			if err != nil {
				b.Fatal(err)
			}
			lb, err := core.EstimateLambda(run.Transpiled, bk)
			if err != nil {
				b.Fatal(err)
			}
			mitigated, err := core.MitigateCtx(context.Background(), run.Counts, lb.Lambda(), core.NewOptions())
			if err != nil {
				b.Fatal(err)
			}
			hr, err := qvHOP(run.Counts, heavy)
			if err != nil {
				b.Fatal(err)
			}
			hq, err := qvHOP(mitigated, heavy)
			if err != nil {
				b.Fatal(err)
			}
			rawHOPs = append(rawHOPs, hr)
			qbHOPs = append(qbHOPs, hq)
		}
		rawMean = mathx.Mean(rawHOPs)
		qbMean = mathx.Mean(qbHOPs)
	}
	b.ReportMetric(rawMean, "hop-raw")
	b.ReportMetric(qbMean, "hop-qbeep")
}

// BenchmarkZNEComposition measures zero-noise extrapolation of a BV PST
// against the single-scale raw measurement.
func BenchmarkZNEComposition(b *testing.B) {
	bk, err := device.ByName("galway")
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(bk, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	w, err := algorithms.BernsteinVazirani(6, 0b101101)
	if err != nil {
		b.Fatal(err)
	}
	var raw, extrapolated float64
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(9)
		var pts []zne.Point
		for _, scale := range []int{1, 3, 5} {
			folded, err := zne.Fold(w.Circuit, scale)
			if err != nil {
				b.Fatal(err)
			}
			run, err := exec.ExecuteCtx(context.Background(), folded, 4096, 1, rng)
			if err != nil {
				b.Fatal(err)
			}
			counts, err := w.MarginalCounts(run.Counts)
			if err != nil {
				b.Fatal(err)
			}
			p := counts.Prob(w.Expected)
			pts = append(pts, zne.Point{Scale: float64(scale), Value: p})
			if scale == 1 {
				raw = p
			}
		}
		extrapolated, err = zne.ExtrapolateExp(pts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(raw, "pst-raw")
	b.ReportMetric(extrapolated, "pst-zne")
}

// BenchmarkLayoutSearch compares greedy placement against the λ-aware
// layout search (12 random trials) by the realized PST of the induction.
func BenchmarkLayoutSearch(b *testing.B) {
	bk, err := device.ByName("nairobi2")
	if err != nil {
		b.Fatal(err)
	}
	exec, err := noise.NewExecutor(bk, noise.DefaultModel())
	if err != nil {
		b.Fatal(err)
	}
	w, err := algorithms.BernsteinVazirani(8, 0b10110101)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		trials int
	}{
		{"greedy", 0},
		{"search12", 12},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var pst float64
			for i := 0; i < b.N; i++ {
				res, err := transpile.SearchLayout(context.Background(), w.Circuit, bk, tc.trials, 7)
				if err != nil {
					b.Fatal(err)
				}
				run, err := exec.ExecuteTranspiledCtx(context.Background(), w.Circuit, res, 4096, mathx.NewRNG(5))
				if err != nil {
					b.Fatal(err)
				}
				counts, err := w.MarginalCounts(run.Counts)
				if err != nil {
					b.Fatal(err)
				}
				pst = counts.Prob(w.Expected)
			}
			b.ReportMetric(pst, "pst-raw")
		})
	}
}

// qvModelCircuit builds one width-n, depth-n QV model circuit: each layer
// applies a random qubit permutation then a random two-qubit block on
// each adjacent pair. Blocks are built from the universal 3-CX sandwich
// with Haar-ish random U3 rotations — not exactly Haar on SU(4), but
// scrambling enough for heavy-output statistics.
func qvModelCircuit(n int, rng *mathx.RNG) (*circuit.Circuit, error) {
	if n < 2 || n > 12 {
		return nil, fmt.Errorf("qvolume: width %d outside [2,12]", n)
	}
	c := circuit.New(fmt.Sprintf("qv-%d", n), n)
	randU3 := func(q int) {
		c.U3(rng.Uniform(0, math.Pi), rng.Uniform(0, 2*math.Pi), rng.Uniform(0, 2*math.Pi), q)
	}
	block := func(a, b int) {
		randU3(a)
		randU3(b)
		c.CX(a, b)
		randU3(a)
		randU3(b)
		c.CX(b, a)
		randU3(a)
		randU3(b)
		c.CX(a, b)
		randU3(a)
		randU3(b)
	}
	for layer := 0; layer < n; layer++ {
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			block(perm[i], perm[i+1])
		}
		c.Barrier()
	}
	c.MeasureAll()
	return c.Finalize()
}

// qvHeavySet returns the heavy outputs of a circuit: the basis states whose
// ideal probability exceeds the median ideal probability.
func qvHeavySet(c *circuit.Circuit) (map[bitstring.BitString]bool, error) {
	s, err := statevector.RunCtx(context.Background(), c)
	if err != nil {
		return nil, err
	}
	probs := s.Probabilities()
	sorted := append([]float64(nil), probs...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	heavy := make(map[bitstring.BitString]bool)
	for i, p := range probs {
		if p > median {
			heavy[bitstring.BitString(i)] = true
		}
	}
	return heavy, nil
}

// qvHOP returns the heavy-output probability of a measured distribution.
func qvHOP(counts *bitstring.Dist, heavy map[bitstring.BitString]bool) (float64, error) {
	if counts == nil || counts.Total() == 0 {
		return 0, fmt.Errorf("qvolume: empty counts")
	}
	var mass float64
	counts.Each(func(v bitstring.BitString, c float64) {
		if heavy[v] {
			mass += c
		}
	})
	return mass / counts.Total(), nil
}

func TestModelCircuitShape(t *testing.T) {
	rng := mathx.NewRNG(1)
	c, err := qvModelCircuit(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 4 {
		t.Errorf("width %d", c.N)
	}
	// 4 layers × 2 blocks × 3 CX = 24 CX.
	if got := c.TwoQubitCount(); got != 24 {
		t.Errorf("CX count %d want 24", got)
	}
	if !c.HasMeasurement() {
		t.Error("no measurements")
	}
	if _, err := qvModelCircuit(1, rng); err == nil {
		t.Error("width 1 should error")
	}
	if _, err := qvModelCircuit(13, rng); err == nil {
		t.Error("width 13 should error")
	}
}

func TestHeavySetProperties(t *testing.T) {
	rng := mathx.NewRNG(7)
	c, err := qvModelCircuit(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := qvHeavySet(c)
	if err != nil {
		t.Fatal(err)
	}
	// By construction roughly half the outcomes are heavy.
	if len(heavy) < 8 || len(heavy) > 24 {
		t.Errorf("heavy set size %d for 32 outcomes", len(heavy))
	}
	// Ideal HOP of a scrambled circuit approaches (1+ln2)/2 ≈ 0.85.
	s, err := statevector.RunCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	ideal := s.Dist()
	hop, err := qvHOP(ideal, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if hop < 0.75 || hop > 0.95 {
		t.Errorf("ideal HOP %v outside the Porter-Thomas band", hop)
	}
}

func TestHOPValidation(t *testing.T) {
	if _, err := qvHOP(nil, nil); err == nil {
		t.Error("nil counts should error")
	}
	if _, err := qvHOP(bitstring.NewDist(2), nil); err == nil {
		t.Error("empty counts should error")
	}
	d := bitstring.NewDist(2)
	d.Add(0b01, 3)
	d.Add(0b10, 1)
	hop, err := qvHOP(d, map[bitstring.BitString]bool{0b01: true})
	if err != nil || math.Abs(hop-0.75) > 1e-12 {
		t.Errorf("HOP = %v err %v", hop, err)
	}
}

// TestQBEEPRaisesHOP is the extension experiment: Q-BEEP post-processing
// on QV circuits should raise the heavy-output probability on a noisy
// backend, lifting the measured quantum volume.
func TestQBEEPRaisesHOP(t *testing.T) {
	b, err := device.ByName("galway")
	if err != nil {
		t.Fatal(err)
	}
	exec, err := noise.NewExecutor(b, noise.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(11)
	var rawHOPs, qbHOPs []float64
	for trial := 0; trial < 4; trial++ {
		c, err := qvModelCircuit(4, rng)
		if err != nil {
			t.Fatal(err)
		}
		heavy, err := qvHeavySet(c)
		if err != nil {
			t.Fatal(err)
		}
		run, err := exec.ExecuteCtx(context.Background(), c, 2048, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := core.EstimateLambda(run.Transpiled, b)
		if err != nil {
			t.Fatal(err)
		}
		mitigated, err := core.MitigateCtx(context.Background(), run.Counts, lb.Lambda(), core.NewOptions())
		if err != nil {
			t.Fatal(err)
		}
		hr, err := qvHOP(run.Counts, heavy)
		if err != nil {
			t.Fatal(err)
		}
		hq, err := qvHOP(mitigated, heavy)
		if err != nil {
			t.Fatal(err)
		}
		rawHOPs = append(rawHOPs, hr)
		qbHOPs = append(qbHOPs, hq)
	}
	if mathx.Mean(qbHOPs) <= mathx.Mean(rawHOPs) {
		t.Errorf("Q-BEEP should raise mean HOP: %v -> %v", mathx.Mean(rawHOPs), mathx.Mean(qbHOPs))
	}
}
