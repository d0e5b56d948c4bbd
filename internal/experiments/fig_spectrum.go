package experiments

import (
	"context"
	"fmt"
	"sort"

	"qbeep/internal/algorithms"
	"qbeep/internal/bitstring"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

// SpectrumRow is one Hamming-distance bucket of a spectrum comparison.
type SpectrumRow struct {
	Distance int
	Observed float64
	QBeep    float64
	Hammer   float64
}

// SpectrumResult is one circuit's spectrum comparison (one subplot of
// Fig. 1(a) / Fig. 2).
type SpectrumResult struct {
	Qubits          int
	Backend         string
	Lambda          float64
	Rows            []SpectrumRow
	HellingerQBeep  float64 // observed errors vs Q-BEEP prediction
	HellingerHammer float64 // observed errors vs HAMMER weighting
}

// Figure1Result holds both panels of Fig. 1.
type Figure1Result struct {
	Spectrum SpectrumResult // (a): 9-qubit example spectrum
	// (b): top bit-strings of an 8-qubit BV before/after mitigation.
	BV8Raw   map[string]float64
	BV8QBeep map[string]float64
	BV8Ideal map[string]float64
	PSTRaw   float64
	PSTQBeep float64
}

// Figure1 reproduces Fig. 1: (a) an example 9-qubit Hamming spectrum where
// the error cluster sits away from distance 0, with Q-BEEP's predicted
// spectrum tracking it while HAMMER's fixed weighting cannot; (b) raw vs
// Q-BEEP vs ideal probabilities for an 8-qubit BV induction.
func Figure1(ctx context.Context, cfg Config) (*Figure1Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	defer figureSpan("1")()
	rng := cfg.rng(1)

	spec, err := spectrumForBV(ctx, 9, "medellin", cfg, rng)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{Spectrum: *spec}

	// Panel (b): 8-qubit BV.
	w, err := algorithms.BernsteinVazirani(8, algorithms.RandomSecret(8, rng))
	if err != nil {
		return nil, err
	}
	b, err := device.ByName("istanbul")
	if err != nil {
		return nil, err
	}
	out, err := runWorkload(ctx, w, b, cfg.Shots, cfg.Batch, cfg.mitigateOptions(), rng, false)
	if err != nil {
		return nil, err
	}
	res.BV8Raw = out.Raw.Normalized(1).StringCounts()
	res.BV8QBeep = out.QBeep.Normalized(1).StringCounts()
	res.BV8Ideal = out.Ideal.StringCounts()
	res.PSTRaw = out.Raw.Prob(w.Expected)
	res.PSTQBeep = out.QBeep.Prob(w.Expected)

	printSpectrum(cfg, "Figure 1(a): 9-qubit BV Hamming spectrum", spec)
	cfg.printf("\nFigure 1(b): 8-qubit BV, secret %s\n", bitstring.Format(w.Expected, 8))
	cfg.printf("  %-10s %8s %8s %8s\n", "bitstring", "raw", "qbeep", "ideal")
	for _, s := range topStrings(res.BV8QBeep, 6) {
		cfg.printf("  %-10s %8.4f %8.4f %8.4f\n", s, res.BV8Raw[s], res.BV8QBeep[s], res.BV8Ideal[s])
	}
	cfg.printf("  PST: raw %.4f -> qbeep %.4f\n", res.PSTRaw, res.PSTQBeep)
	return res, nil
}

// Figure2 reproduces Fig. 2: spectrum comparisons for BV circuits of 8
// widths, each on a distinct backend.
func Figure2(ctx context.Context, cfg Config) ([]SpectrumResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	defer figureSpan("2")()
	rng := cfg.rng(2)
	widths := []int{5, 6, 8, 9, 10, 12, 13, 14}
	backends := []string{"istanbul", "jakarta2", "kyiv", "lagos2", "medellin", "nairobi2", "oslo2", "pinnacle"}
	out := make([]SpectrumResult, 0, len(widths))
	for i, n := range widths {
		spec, err := spectrumForBV(ctx, n, backends[i], cfg, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, *spec)
		printSpectrum(cfg, fmt.Sprintf("Figure 2: %d-qubit BV on %s", n, backends[i]), spec)
	}
	// Summary: Q-BEEP's prediction should track the observed error
	// spectrum more closely than HAMMER's fixed weighting on the wider
	// circuits, where clustering moves away from distance 0.
	var qbeepWins int
	for _, s := range out {
		if s.HellingerQBeep < s.HellingerHammer {
			qbeepWins++
		}
	}
	cfg.printf("\nFigure 2 summary: Q-BEEP spectrum closer than HAMMER on %d/%d widths\n",
		qbeepWins, len(out))
	return out, nil
}

// spectrumForBV runs one BV induction and assembles the spectrum
// comparison.
func spectrumForBV(ctx context.Context, n int, backend string, cfg Config, rng *mathx.RNG) (*SpectrumResult, error) {
	w, err := algorithms.BernsteinVazirani(n, algorithms.RandomSecret(n, rng))
	if err != nil {
		return nil, err
	}
	b, err := device.ByName(backend)
	if err != nil {
		return nil, err
	}
	out, err := runWorkload(ctx, w, b, cfg.Shots, cfg.Batch, cfg.mitigateOptions(), rng, false)
	if err != nil {
		return nil, err
	}
	observed, ok := out.errorSpectrumAround()
	if !ok {
		return nil, fmt.Errorf("experiments: no error mass on %d-qubit BV (%s)", n, backend)
	}
	qbSpec := poissonErrorSpectrum(out.Lambda.Lambda(), n)
	hmSpec := hammerErrorSpectrum(n)
	res := &SpectrumResult{
		Qubits:          n,
		Backend:         backend,
		Lambda:          out.Lambda.Lambda(),
		HellingerQBeep:  bitstring.HellingerVec(observed[1:], qbSpec[1:]),
		HellingerHammer: bitstring.HellingerVec(observed[1:], hmSpec[1:]),
	}
	for d := 1; d <= n; d++ {
		res.Rows = append(res.Rows, SpectrumRow{
			Distance: d,
			Observed: observed[d],
			QBeep:    qbSpec[d],
			Hammer:   hmSpec[d],
		})
	}
	return res, nil
}

func printSpectrum(cfg Config, title string, s *SpectrumResult) {
	cfg.printf("\n%s (lambda=%.3f)\n", title, s.Lambda)
	cfg.printf("  %4s %9s %9s %9s\n", "dist", "observed", "qbeep", "hammer")
	for _, r := range s.Rows {
		cfg.printf("  %4d %9.4f %9.4f %9.4f\n", r.Distance, r.Observed, r.QBeep, r.Hammer)
	}
	cfg.printf("  Hellinger: qbeep=%.4f hammer=%.4f\n", s.HellingerQBeep, s.HellingerHammer)
}

// topStrings returns the k heaviest keys of a string-count map, sorted by
// weight descending (ties by key).
func topStrings(m map[string]float64, k int) []string {
	keys := make([]string, 0, len(m))
	for s := range m {
		keys = append(keys, s)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] { //qbeep:allow-floatcmp exact tie-break: equal stored counts fall through to the key order
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return keys
}
