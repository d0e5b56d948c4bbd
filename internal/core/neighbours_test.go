package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qbeep/internal/bitstring"
)

// bruteNeighbourSums is the double loop NeighbourSums stands in for: for
// each observed outcome, ascending, Σ over the other outcomes of
// w(d)·P, with every weight taken from w itself.
func bruteNeighbourSums(counts *bitstring.Dist, w EdgeWeighter) []float64 {
	vals := counts.Outcomes()
	sums := make([]float64, len(vals))
	for i, a := range vals {
		for j, b := range vals {
			if j != i {
				sums[i] += w.Weight(bitstring.Hamming(a, b)) * counts.Prob(b)
			}
		}
	}
	return sums
}

// neighbourSumsTol bounds |NeighbourSums_i − brute_i| on each
// representation. Both sides add the same V−1 non-negative products, so
// on rows each is within γ_V·S_i of the exact sum (Higham's dot-product
// bound, γ_m = m·u/(1−m·u), u = 2⁻⁵³) and they differ by at most twice
// that. A spectrum sum is off by at most κ·u·‖k‖₁·‖P‖₂ in absolute terms,
// κ = 3n+2 and ‖k‖₁ = Σ_d w(d)·C(n,d) (DESIGN.md §7), plus the brute
// side's γ_V·S_i.
func neighbourSumsTol(raw *bitstring.Dist, w EdgeWeighter, spectrum bool, s float64) float64 {
	const u = 0x1p-53
	n, m := raw.Width(), float64(raw.Support())
	gamma := m * u / (1 - m*u)
	if !spectrum {
		return 2 * gamma * s
	}
	var k1, p2 float64
	for d := 1; d <= n; d++ {
		k1 += w.Weight(d) * float64(bitstring.SphereSize(n, d))
	}
	raw.Each(func(_ bitstring.BitString, c float64) {
		p := c / raw.Total()
		p2 += p * p
	})
	return float64(3*n+2)*u*k1*math.Sqrt(p2) + gamma*s
}

// TestNeighbourSumsMatchBrute forces each representation through the
// build's strategy seam at several worker counts: every sum must match
// the brute double loop within neighbourSumsTol, and the worker count
// must not change a bit. The corpora cover HAMMER's kernel (dense,
// uniform and sparse with isolated vertices), a wider 2⁻ᵈ kernel and a
// Poisson kernel whose radius is the whole register.
func TestNeighbourSumsMatchBrute(t *testing.T) {
	cases := []struct {
		name string
		raw  *bitstring.Dist
		w    EdgeWeighter
	}{
		{"hammer-clustered", poissonCounts(10, 0b1011001110, 1.5, 3000, 71), InverseDistanceEdges{}},
		{"hammer-uniform", uniformDist(8, 150, 72), InverseDistanceEdges{}},
		{"hammer-sparse", uniformDist(12, 150, 66), InverseDistanceEdges{}},
		{"halving-maxd6", uniformDist(11, 300, 73), halvingEdges{maxD: 6}},
		{"poisson-full-radius", poissonCounts(9, 0b101100111, 2, 2000, 74), PoissonEdges{Lambda: 2}},
		{"single-outcome", poissonCounts(6, 0b101101, 0, 10, 75), InverseDistanceEdges{}},
	}
	for _, c := range cases {
		want := bruteNeighbourSums(c.raw, c.w)
		for _, rep := range stepReps {
			var ref []float64
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s %s workers=%d", c.name, rep.name, workers)
				got, err := neighbourSums(context.Background(), c.raw, c.w, workers, rep.strat)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d sums want %d", label, len(got), len(want))
				}
				for i := range want {
					if tol := neighbourSumsTol(c.raw, c.w, rep.strat == scanSpectrum, want[i]); math.Abs(got[i]-want[i]) > tol {
						t.Fatalf("%s: sum %d = %v want %v (tol %.3g)", label, i, got[i], want[i], tol)
					}
				}
				if ref == nil {
					ref = got
					continue
				}
				for i := range ref {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s: sum %d = %v, workers=1 gave %v", label, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

func TestNeighbourSumsValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := NeighbourSums(ctx, nil, InverseDistanceEdges{}); err == nil {
		t.Error("nil counts should error")
	}
	if _, err := NeighbourSums(ctx, bitstring.NewDist(3), InverseDistanceEdges{}); err == nil {
		t.Error("empty counts should error")
	}
	d := bitstring.NewDist(3)
	d.Add(0b101, 1)
	if _, err := NeighbourSums(ctx, d, nil); err == nil {
		t.Error("nil weighter should error")
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := NeighbourSums(dead, uniformDist(16, 3000, 76), InverseDistanceEdges{}); err == nil {
		t.Error("a cancelled ctx should stop the build")
	}
}

// halvingEdges is InverseDistanceEdges' 2⁻ᵈ kernel with a wider cutoff:
// weight 2⁻ᵈ for 0 <= d <= maxD, 0 beyond.
type halvingEdges struct{ maxD int }

func (w halvingEdges) Weight(d int) float64 {
	if d < 0 || d > w.maxD {
		return 0
	}
	return 1 / float64(int(1)<<d)
}

// radiusBoundedTable is the weight-table walk that stopped at the
// model's tail cutoff: for the Poisson pmf the first k >= ⌊λ⌋ with
// pmf(k) < ε, for the 2⁻ᵈ kernel the first d with weight < ε, clamped
// to n either way.
func radiusBoundedTable(t *testing.T, w EdgeWeighter, eps float64, n int) weightTable {
	var r int
	switch w := w.(type) {
	case PoissonEdges:
		r = int(math.Floor(w.Lambda))
		for w.Weight(r) >= eps {
			r++
		}
	case InverseDistanceEdges, halvingEdges:
		r = 1
		for r <= n && w.Weight(r) >= eps {
			r++
		}
	default:
		t.Fatalf("no tail cutoff for %T", w)
	}
	var tab weightTable
	for d := 1; d <= r && d <= n; d++ {
		if shell := w.Weight(d); shell >= eps {
			tab.perString[d] = shell / float64(bitstring.SphereSize(n, d))
		}
	}
	return tab
}

// TestWeightTableMatchesRadiusBounded pins newWeightTable's walk over
// every distance 1..n to the tail-cutoff-bounded walk, bit for bit: past
// its mode the Poisson pmf only falls, and so does 2⁻ᵈ, so no shell
// beyond the cutoff passes ε.
func TestWeightTableMatchesRadiusBounded(t *testing.T) {
	var models []EdgeWeighter
	for l := 1; l <= 200; l++ {
		models = append(models, PoissonEdges{Lambda: float64(l) / 10})
	}
	models = append(models, InverseDistanceEdges{}, halvingEdges{maxD: 6}, halvingEdges{maxD: 30})
	for n := 4; n <= 28; n++ {
		for _, w := range models {
			for _, eps := range []float64{0.01, 0.05, 0.2} {
				got, want := newWeightTable(w, eps, n), radiusBoundedTable(t, w, eps, n)
				for d := range want.perString {
					if math.Float64bits(got.perString[d]) != math.Float64bits(want.perString[d]) {
						t.Fatalf("n=%d %+v ε=%g: perString[%d] = %v want %v", n, w, eps, d, got.perString[d], want.perString[d])
					}
				}
			}
		}
	}
}
