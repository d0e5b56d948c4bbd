package mathx

import (
	"math"
	"slices"
	"testing"
)

// zigDraws is the sample size of the ziggurat distribution tests.
const zigDraws = 1_000_000

// normalCDF is Φ(x).
func normalCDF(x float64) float64 { return math.Erfc(-x/math.Sqrt2) / 2 }

// ksStat returns √n·D, the scaled Kolmogorov–Smirnov distance between
// the sorted sample xs and the CDF cdf. Above 1.95 the sample rejects
// cdf at α = 0.001.
func ksStat(xs []float64, cdf func(float64) float64) float64 {
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := cdf(x)
		d = max(d, f-float64(i)/n, float64(i+1)/n-f)
	}
	return d * math.Sqrt(n)
}

// moments returns the sample mean, variance and kurtosis (μ₄/σ⁴).
func moments(xs []float64) (mean, variance, kurtosis float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var m2, m4 float64
	for _, x := range xs {
		d := (x - mean) * (x - mean)
		m2 += d
		m4 += d * d
	}
	m2 /= float64(len(xs))
	m4 /= float64(len(xs))
	return mean, m2, m4 / (m2 * m2)
}

// TestZigTablesClose: the recurrence run from the base edge r must close
// at the top, so the top strip x_1 × (1 − f(x_1)) has the common area v
// (to 10⁻⁸, the precision of the published 13-digit r and v), and every
// strip's edges step inward.
func TestZigTablesClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		t    *zigTable
		n    int
		v    float64
		f    func(float64) float64
	}{
		{"normal", zigNorm, 128, zigNormV, func(x float64) float64 { return math.Exp(-x * x / 2) }},
		{"exponential", zigExp, 256, zigExpV, func(x float64) float64 { return math.Exp(-x) }},
	} {
		x1 := tc.t.w[1] * (1 << 53)
		if top := x1 * (1 - tc.f(x1)); math.Abs(top-tc.v) > 1e-8*tc.v {
			t.Errorf("%s: top strip area %v, want %v", tc.name, top, tc.v)
		}
		for i := 2; i < tc.n; i++ {
			if !(tc.t.w[i] > tc.t.w[i-1]) || !(tc.t.f[i] < tc.t.f[i-1]) || tc.t.k[i] >= 1<<53 {
				t.Fatalf("%s: strip %d out of order", tc.name, i)
			}
		}
	}
}

// TestZigNormFloat64 checks 10⁶ ziggurat normals: mean, variance and
// kurtosis within five standard errors of 0, 1 and 3, a KS test against
// Φ, and the tail beyond the base strip's edge r — its mass 2Q(r) and,
// by a KS test, its shape.
func TestZigNormFloat64(t *testing.T) {
	rng := NewRNG(1)
	xs := make([]float64, zigDraws)
	for i := range xs {
		xs[i] = rng.ZigNormFloat64()
	}
	mean, variance, kurt := moments(xs)
	se := 1 / math.Sqrt(zigDraws)
	if math.Abs(mean) > 5*se || math.Abs(variance-1) > 5*math.Sqrt2*se || math.Abs(kurt-3) > 5*math.Sqrt(24)*se {
		t.Errorf("mean %v, variance %v, kurtosis %v; want 0, 1, 3", mean, variance, kurt)
	}
	var tail []float64
	for _, x := range xs {
		if math.Abs(x) > zigNormR {
			tail = append(tail, math.Abs(x))
		}
	}
	slices.Sort(xs)
	if ks := ksStat(xs, normalCDF); ks > 1.95 {
		t.Errorf("KS √n·D = %v against Φ", ks)
	}
	q := 1 - normalCDF(zigNormR)
	want := 2 * q * zigDraws
	if got := float64(len(tail)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("%v draws beyond r = %v, want %v", got, zigNormR, want)
	}
	slices.Sort(tail)
	if ks := ksStat(tail, func(x float64) float64 { return 1 - (1-normalCDF(x))/q }); ks > 1.95 {
		t.Errorf("tail beyond r: KS √n·D = %v", ks)
	}
}

// TestZigNormTail checks the base strip's tail sampler on its own: 10⁵
// draws, all beyond r, pass a KS test against the normal conditioned on
// Z > r. (The tail is too rare in TestZigNormFloat64's sample to tell
// it from, say, r plus an exponential.)
func TestZigNormTail(t *testing.T) {
	rng := NewRNG(3)
	xs := make([]float64, 100_000)
	for i := range xs {
		if xs[i] = rng.normTail(); xs[i] <= zigNormR {
			t.Fatalf("tail draw %v not beyond r = %v", xs[i], zigNormR)
		}
	}
	slices.Sort(xs)
	q := 1 - normalCDF(zigNormR)
	if ks := ksStat(xs, func(x float64) float64 { return 1 - (1-normalCDF(x))/q }); ks > 1.95 {
		t.Errorf("KS √n·D = %v against the normal tail beyond r", ks)
	}
}

// TestExpFloat64 checks 10⁶ ziggurat exponentials: mean, variance and
// kurtosis within five standard errors of 1, 1 and 9, a KS test against
// 1 − e^(−x), and the tail beyond r — its mass e^(−r) and, by a KS test,
// its unit-exponential excess.
func TestExpFloat64(t *testing.T) {
	rng := NewRNG(2)
	xs := make([]float64, zigDraws)
	for i := range xs {
		if xs[i] = rng.ExpFloat64(); xs[i] < 0 {
			t.Fatalf("negative draw %v", xs[i])
		}
	}
	mean, variance, kurt := moments(xs)
	se := 1 / math.Sqrt(zigDraws)
	// Standard errors from the exponential's central moments: var(x̂²)
	// = (μ₄ − σ⁴)/n = 8/n; the kurtosis estimate's is about
	// √(μ₈ − μ₄²)/σ⁴ · n^(−1/2) ≈ 200/√n.
	if math.Abs(mean-1) > 5*se || math.Abs(variance-1) > 5*math.Sqrt(8)*se || math.Abs(kurt-9) > 5*200*se {
		t.Errorf("mean %v, variance %v, kurtosis %v; want 1, 1, 9", mean, variance, kurt)
	}
	var tail []float64
	for _, x := range xs {
		if x > zigExpR {
			tail = append(tail, x-zigExpR)
		}
	}
	expCDF := func(x float64) float64 { return -math.Expm1(-x) }
	slices.Sort(xs)
	if ks := ksStat(xs, expCDF); ks > 1.95 {
		t.Errorf("KS √n·D = %v against 1 − e^(−x)", ks)
	}
	want := math.Exp(-zigExpR) * zigDraws
	if got := float64(len(tail)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("%v draws beyond r = %v, want %v", got, zigExpR, want)
	}
	slices.Sort(tail)
	if ks := ksStat(tail, expCDF); ks > 1.95 {
		t.Errorf("excess beyond r: KS √n·D = %v", ks)
	}
}

// TestNormFloat64IsBoxMuller pins NormFloat64 to the Box–Muller
// transform of two Float64 draws: calibration drift and seeded test
// corpora depend on its stream, which the ziggurat sampler must not
// replace.
func TestNormFloat64IsBoxMuller(t *testing.T) {
	got, src := NewRNG(9), NewRNG(9)
	for i := 0; i < 1000; i++ {
		u1 := src.Float64()
		for u1 == 0 {
			u1 = src.Float64()
		}
		want := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*src.Float64())
		if g := got.NormFloat64(); g != want {
			t.Fatalf("draw %d: %v, want %v", i, g, want)
		}
	}
}
