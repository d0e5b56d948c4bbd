// Package hammer implements the HAMMER baseline (Tannu, Das, Ayanzadeh,
// Qureshi — "HAMMER: Boosting Fidelity of Noisy Quantum Circuits by
// Exploiting Hamming Behavior of Erroneous Outcomes", ASPLOS 2022), the
// state of the art Q-BEEP compares against.
//
// HAMMER assumes errors cluster *locally* around correct outcomes: a
// bit-string that has heavy observed neighborhoods at small Hamming
// distances is likely genuine, so its probability is amplified by a
// neighborhood weight that decays with distance — a fixed one-size-fits-all
// weighting, independent of circuit and device, which is precisely the
// limitation Q-BEEP's λ model removes.
package hammer

import (
	"fmt"

	"qbeep/internal/bitstring"
)

// Options configures the baseline.
type Options struct {
	// MaxDistance bounds the neighborhood radius (default 2, HAMMER's
	// published setting: first and second Hamming shells).
	MaxDistance int
	// Decay is the per-distance attenuation of neighbor support
	// (default 0.5: weight 2^-d).
	Decay float64
}

// NewOptions returns HAMMER's published configuration.
func NewOptions() Options {
	return Options{MaxDistance: 2, Decay: 0.5}
}

// Mitigate re-weights counts by local Hamming neighborhood density:
//
//	score(s) = P(s) · Σ_{d(s,s') <= D} decay^d(s,s') · P(s')
//
// (the d = 0 term is s itself) and renormalizes to the original total.
// Strings sitting in dense local neighborhoods — which under HAMMER's
// locality assumption are the genuine outputs — are amplified; isolated
// strings are suppressed toward P(s)². Only observed strings are considered
// (HAMMER's state graph is over observed outcomes too).
func Mitigate(counts *bitstring.Dist, opts Options) (*bitstring.Dist, error) {
	if counts == nil || counts.Support() == 0 {
		return nil, fmt.Errorf("hammer: empty counts")
	}
	if opts.MaxDistance <= 0 {
		return nil, fmt.Errorf("hammer: max distance %d must be positive", opts.MaxDistance)
	}
	if opts.Decay <= 0 || opts.Decay > 1 {
		return nil, fmt.Errorf("hammer: decay %v outside (0,1]", opts.Decay)
	}
	outcomes, probs := counts.Outcomes(), make([]float64, counts.Support())
	for i, s := range outcomes {
		probs[i] = counts.Prob(s)
	}
	n := counts.Width()
	// Precompute decay^d.
	decayPow := make([]float64, opts.MaxDistance+1)
	decayPow[0] = 1
	for d := 1; d <= opts.MaxDistance; d++ {
		decayPow[d] = decayPow[d-1] * opts.Decay
	}
	out := bitstring.NewDist(n)
	for i, s := range outcomes {
		support := probs[i] // d = 0 term
		for j, s2 := range outcomes {
			if j == i {
				continue
			}
			d := bitstring.Hamming(s, s2)
			if d <= opts.MaxDistance {
				support += decayPow[d] * probs[j]
			}
		}
		out.Add(s, probs[i]*support)
	}
	return out.Normalized(counts.Total()), nil
}

// SpectrumWeights returns HAMMER's implied Hamming-spectrum weighting
// profile over distances 0..n — the fixed 2^-d curve plotted as the
// "HAMMER Weighting" series in the paper's Figs. 1, 2 and 6. It is
// normalized to unit mass so it is comparable to the probability spectra.
func SpectrumWeights(n int, opts Options) []float64 {
	w := make([]float64, n+1)
	var sum float64
	for d := 0; d <= n; d++ {
		v := 1.0
		for i := 0; i < d; i++ {
			v *= opts.Decay
		}
		if d > opts.MaxDistance {
			v = 0
		}
		w[d] = v
		sum += v
	}
	if sum > 0 {
		for d := range w {
			w[d] /= sum
		}
	}
	return w
}
