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
	"context"
	"fmt"

	"qbeep/internal/bitstring"
	"qbeep/internal/core"
)

// kernel is HAMMER's published weighting: 2^-d over the first and second
// Hamming shells, 1 at d = 0.
var kernel = core.InverseDistanceEdges{}

// Mitigate re-weights counts by local Hamming neighborhood density:
//
//	score(s) = P(s) · Σ_{d(s,s') <= 2} 2^-d(s,s') · P(s')
//
// (the d = 0 term is s itself) and renormalizes to the original total.
// Strings sitting in dense local neighborhoods — which under HAMMER's
// locality assumption are the genuine outputs — are amplified; isolated
// strings are suppressed toward P(s)². Only observed strings are considered
// (HAMMER's state graph is over observed outcomes too), and each keeps its
// place: the baseline re-weights, it does not move counts between strings.
// The sum over s' ≠ s is core.NeighbourSums under the kernel, so it runs
// on Q-BEEP's state graph and its "core.graph.build" span parents under
// the span active in ctx.
func Mitigate(ctx context.Context, counts *bitstring.Dist) (*bitstring.Dist, error) {
	if counts == nil || counts.Support() == 0 {
		return nil, fmt.Errorf("hammer: empty counts")
	}
	sums, err := core.NeighbourSums(ctx, counts, kernel)
	if err != nil {
		return nil, err
	}
	out, self, i := bitstring.NewDist(counts.Width()), kernel.Weight(0), 0
	counts.Each(func(s bitstring.BitString, c float64) {
		p := c / counts.Total()
		out.Add(s, p*(self*p+sums[i]))
		i++
	})
	return out.Normalized(counts.Total()), nil
}

// SpectrumWeights returns HAMMER's implied Hamming-spectrum weighting
// profile over distances 0..n — the fixed 2^-d curve plotted as the
// "HAMMER Weighting" series in the paper's Figs. 1, 2 and 6. It is
// normalized to unit mass so it is comparable to the probability spectra.
func SpectrumWeights(n int) []float64 {
	w := make([]float64, n+1)
	var sum float64
	for d := range w {
		w[d] = kernel.Weight(d)
		sum += w[d]
	}
	for d := range w {
		w[d] /= sum
	}
	return w
}
