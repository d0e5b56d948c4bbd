package hammer

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
)

// referenceMitigate is the O(V²) double loop Mitigate replaced, kept
// verbatim at HAMMER's published setting (MaxDistance 2, Decay 0.5) as
// its oracle.
func referenceMitigate(counts *bitstring.Dist) *bitstring.Dist {
	const maxDistance, decay = 2, 0.5
	outcomes, probs := counts.Outcomes(), make([]float64, counts.Support())
	for i, s := range outcomes {
		probs[i] = counts.Prob(s)
	}
	n := counts.Width()
	// Precompute decay^d.
	decayPow := make([]float64, maxDistance+1)
	decayPow[0] = 1
	for d := 1; d <= maxDistance; d++ {
		decayPow[d] = decayPow[d-1] * decay
	}
	out := bitstring.NewDist(n)
	for i, s := range outcomes {
		support := probs[i] // d = 0 term
		for j, s2 := range outcomes {
			if j == i {
				continue
			}
			d := bitstring.Hamming(s, s2)
			if d <= maxDistance {
				support += decayPow[d] * probs[j]
			}
		}
		out.Add(s, probs[i]*support)
	}
	return out.Normalized(counts.Total())
}

// randomCounts draws support distinct outcomes of an n-bit register,
// each with 1..50 counts.
func randomCounts(n, support int, seed uint64) *bitstring.Dist {
	rng := mathx.NewRNG(seed)
	counts := make(map[bitstring.BitString]float64, support)
	for len(counts) < support {
		counts[bitstring.BitString(rng.Uint64()&(1<<uint(n)-1))] += float64(rng.Intn(50) + 1)
	}
	return bitstring.FromCounts(n, counts)
}

// clusterCounts is HAMMER's home turf: shots on truth, the rest one or
// two bit flips away.
func clusterCounts(n int, truth bitstring.BitString, shots int, seed uint64) *bitstring.Dist {
	rng := mathx.NewRNG(seed)
	raw := bitstring.NewDist(n)
	for i := 0; i < shots; i++ {
		v := truth
		for k := rng.Intn(3); k > 0; k-- {
			v = v.FlipBit(rng.Intn(n))
		}
		raw.Add(v, 1)
	}
	return raw
}

// mitigateTol bounds |Mitigate − referenceMitigate| per outcome. Each
// side's support P_i + S_i <= 2 carries a relative error γ_V
// (γ_m = m·u/(1−m·u), u = 2⁻⁵³), and a spectrum sum S_i is off by at
// most e_S = κ·u·‖k‖₁·‖P‖₂ (κ = 3n+2, ‖k‖₁ = Σ_d 2⁻ᵈ·C(n,d) over
// d <= 2; DESIGN.md §7), so the scores P_i·(P_i + S_i) differ by at most
// P_i·e with e = e_S + 4γ_V. Renormalising to M·score_i/Σ_j score_j then
// moves outcome i by at most M·e·(P_i + r_i)/Σ_j score_j, r_i its share
// of the total and Σ_j score_j >= Σ_j P_j², plus a few roundings of its
// own.
func mitigateTol(counts, want *bitstring.Dist, s bitstring.BitString) float64 {
	const u = 0x1p-53
	n, m, total := counts.Width(), float64(counts.Support()+1), counts.Total()
	var k1, p2 float64
	for d := 1; d <= n; d++ {
		k1 += kernel.Weight(d) * float64(bitstring.SphereSize(n, d))
	}
	counts.Each(func(_ bitstring.BitString, c float64) {
		p2 += (c / total) * (c / total)
	})
	e := float64(3*n+2)*u*k1*math.Sqrt(p2) + 4*m*u/(1-m*u)
	return total*e*(counts.Prob(s)+want.Count(s)/total)/p2 + 8*u*want.Count(s)
}

// TestMitigateMatchesReference holds Mitigate to the double loop within
// mitigateTol on corpora that take the spectrum (n <= 12, dense) and
// CSR rows (wide or sparse registers).
func TestMitigateMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		raw  *bitstring.Dist
	}{
		{"cluster-n6", clusterCounts(6, 0b101101, 1000, 3)},
		{"cluster-n10", clusterCounts(10, 0b1011001110, 4000, 4)},
		{"full-n8", randomCounts(8, 256, 5)},
		{"uniform-n10", randomCounts(10, 600, 6)},
		{"sparse-n12", randomCounts(12, 150, 7)},
		{"cluster-n15", clusterCounts(15, 0x5a5a, 6000, 8)},
		{"uniform-n15", randomCounts(15, 2000, 9)},
	}
	for _, c := range cases {
		got, err := Mitigate(context.Background(), c.raw)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceMitigate(c.raw)
		if got.Support() != want.Support() {
			t.Fatalf("%s: support %d want %d", c.name, got.Support(), want.Support())
		}
		for _, s := range want.Outcomes() {
			if diff, tol := math.Abs(got.Count(s)-want.Count(s)), mitigateTol(c.raw, want, s); diff > tol {
				t.Fatalf("%s: count[%s] = %v want %v (|Δ| %.3g > tol %.3g)",
					c.name, bitstring.Format(s, c.raw.Width()), got.Count(s), want.Count(s), diff, tol)
			}
		}
	}
}

func TestMitigateValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Mitigate(ctx, nil); err == nil {
		t.Error("nil counts should error")
	}
	if _, err := Mitigate(ctx, bitstring.NewDist(3)); err == nil {
		t.Error("empty counts should error")
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Mitigate(dead, randomCounts(16, 3000, 1)); err == nil {
		t.Error("a cancelled ctx should stop the neighbour sums")
	}
}

func TestMitigateAmplifiesSupportedStrings(t *testing.T) {
	// 0000 has many near neighbors observed; 1111 is isolated. HAMMER
	// should boost 0000 relative to 1111.
	d := bitstring.NewDist(4)
	d.Add(0b0000, 40)
	d.Add(0b0001, 20)
	d.Add(0b0010, 20)
	d.Add(0b1111, 40)
	out, err := Mitigate(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	beforeRatio := d.Prob(0b0000) / d.Prob(0b1111)
	afterRatio := out.Prob(0b0000) / out.Prob(0b1111)
	if afterRatio <= beforeRatio {
		t.Errorf("supported string should gain: ratio %v -> %v", beforeRatio, afterRatio)
	}
}

func TestMitigatePreservesTotal(t *testing.T) {
	d := bitstring.NewDist(4)
	d.Add(0b0000, 10)
	d.Add(0b0011, 30)
	d.Add(0b1100, 60)
	out, err := Mitigate(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Total()-d.Total()) > 1e-9 {
		t.Errorf("total %v -> %v", d.Total(), out.Total())
	}
}

func TestMitigateLocalClusterCase(t *testing.T) {
	// HAMMER's home turf: errors at distance 1 from the truth.
	const n = 6
	truth := bitstring.BitString(0b101101)
	rng := mathx.NewRNG(3)
	raw := bitstring.NewDist(n)
	raw.Add(truth, 500)
	for i := 0; i < 500; i++ {
		raw.Add(truth.FlipBit(rng.Intn(n)), 1)
	}
	ideal := bitstring.NewDist(n)
	ideal.Add(truth, 1)
	out, err := Mitigate(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if bitstring.Fidelity(ideal, out) <= bitstring.Fidelity(ideal, raw) {
		t.Error("HAMMER should improve locally-clustered errors")
	}
}

func TestSpectrumWeights(t *testing.T) {
	w := SpectrumWeights(5)
	if len(w) != 6 {
		t.Fatalf("length %d", len(w))
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
	if !(w[0] > w[1] && w[1] > w[2]) {
		t.Errorf("weights should decay: %v", w)
	}
	if w[3] != 0 || w[5] != 0 {
		t.Errorf("weights beyond the second shell should be zero: %v", w)
	}
}

func TestSingleOutcomeUnchanged(t *testing.T) {
	d := bitstring.NewDist(3)
	d.Add(0b101, 42)
	out, err := Mitigate(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Count(0b101) != 42 {
		t.Errorf("single outcome changed: %v", out.StringCounts())
	}
}

// BenchmarkHammerMitigate times one HAMMER re-weighting on a complete
// 10-qubit register (1024 outcomes) and on 4096 outcomes of a 15-qubit
// one.
func BenchmarkHammerMitigate(b *testing.B) {
	for _, c := range []struct{ n, support int }{{10, 1024}, {15, 4096}} {
		raw := randomCounts(c.n, c.support, 11)
		b.Run(fmt.Sprintf("n%d/V%d", c.n, c.support), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Mitigate(context.Background(), raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
