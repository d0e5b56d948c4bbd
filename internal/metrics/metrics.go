// Package metrics computes the evaluation metrics the paper reports
// beside PST and fidelity: the Inference Strength of Trial and the
// relative-change summaries of improvement ratios.
package metrics

import (
	"fmt"
	"math"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
)

// IST returns the Inference Strength of Trial: P(correct) over the
// probability of the strongest incorrect outcome — how decisively the
// correct answer stands out after mitigation. ok is false when every
// observation is correct (no incorrect mass; the ratio is unbounded)
// or the distribution is empty.
func IST(counts *bitstring.Dist, correct bitstring.BitString) (ist float64, ok bool) {
	if counts == nil || counts.Total() == 0 {
		return 0, false
	}
	var worst float64
	counts.Each(func(v bitstring.BitString, c float64) {
		if v != correct && c > worst {
			worst = c
		}
	})
	if worst <= 0 {
		return 0, false
	}
	return counts.Count(correct) / worst, true
}

// Summary aggregates a series of per-circuit relative improvements the way
// the paper quotes them: mean, max, and the failure fraction (ratio < 1).
type Summary struct {
	N        int
	Mean     float64
	Median   float64
	Max      float64
	Min      float64
	FracLoss float64 // fraction of ratios below 1 (regressions)
}

// Summarize computes a Summary over improvement ratios.
func Summarize(ratios []float64) Summary {
	if len(ratios) == 0 {
		return Summary{}
	}
	return Summary{
		N:        len(ratios),
		Mean:     mathx.Mean(ratios),
		Median:   mathx.Median(ratios),
		Max:      mathx.Max(ratios),
		Min:      mathx.Min(ratios),
		FracLoss: mathx.FractionBelow(ratios, 1),
	}
}

// String renders the summary the way experiment tables print it.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3f median=%.3f max=%.3f min=%.3f regressions=%.1f%%",
		s.N, s.Mean, s.Median, s.Max, s.Min, 100*s.FracLoss)
}

// SafeRatio returns after/before, or fallback when before is ~0 — used
// when aggregating series that can contain zero baselines (e.g. PST of a
// fully-scrambled circuit).
func SafeRatio(before, after, fallback float64) float64 {
	if before <= 1e-12 || math.IsNaN(before) {
		return fallback
	}
	return after / before
}
