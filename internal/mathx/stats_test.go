package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialPMFKnown(t *testing.T) {
	b := Binomial{N: 4, P: 0.5}
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for k, w := range want {
		if got := b.PMF(k); !approx(got, w, 1e-12) {
			t.Errorf("PMF(%d) = %v want %v", k, got, w)
		}
	}
	if b.PMF(-1) != 0 || b.PMF(5) != 0 {
		t.Error("out-of-range PMF should be 0")
	}
}

func TestBinomialEdgeP(t *testing.T) {
	b0 := Binomial{N: 3, P: 0}
	if b0.PMF(0) != 1 || b0.PMF(1) != 0 {
		t.Error("P=0 should be a point mass at 0")
	}
	b1 := Binomial{N: 3, P: 1}
	if b1.PMF(3) != 1 || b1.PMF(2) != 0 {
		t.Error("P=1 should be a point mass at N")
	}
}

func TestBinomialMoments(t *testing.T) {
	b := Binomial{N: 12, P: 0.3}
	if !approx(b.Mean(), 3.6, 1e-12) || !approx(b.Variance(), 2.52, 1e-12) {
		t.Errorf("mean=%v var=%v", b.Mean(), b.Variance())
	}
	var s float64
	for k := 0; k <= b.N; k++ {
		s += b.PMF(k)
	}
	if !approx(s, 1, 1e-9) {
		t.Errorf("pmf sums to %v", s)
	}
	if b.CDF(b.N) != 1 || b.CDF(-1) != 0 {
		t.Error("CDF boundaries wrong")
	}
}

func TestFitBinomialMLE(t *testing.T) {
	b, err := FitBinomialMLE(10, []int{2, 4}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.P, 0.3, 1e-12) {
		t.Errorf("p̂ = %v want 0.3", b.P)
	}
	if _, err := FitBinomialMLE(0, []int{1}, []float64{1}); err == nil {
		t.Error("zero width should error")
	}
	// Mean beyond N clamps p at 1.
	b, err = FitBinomialMLE(2, []int{5}, []float64{1})
	if err != nil || b.P != 1 {
		t.Errorf("clamp failed: %v %v", b, err)
	}
}

func TestUniformSpectrum(t *testing.T) {
	s := UniformSpectrum(4)
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for k, w := range want {
		if !approx(s[k], w, 1e-12) {
			t.Errorf("uniform[%d] = %v want %v", k, s[k], w)
		}
	}
}

func TestUniformSpectrumSumsToOne(t *testing.T) {
	for n := 1; n <= 20; n++ {
		var sum float64
		for _, p := range UniformSpectrum(n) {
			sum += p
		}
		if !approx(sum, 1, 1e-9) {
			t.Errorf("n=%d: sums to %v", n, sum)
		}
	}
}

func TestWeightedMeanVar(t *testing.T) {
	mean, variance, err := WeightedMeanVar([]int{1, 3}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(mean, 2, 1e-12) || !approx(variance, 1, 1e-12) {
		t.Errorf("mean=%v var=%v", mean, variance)
	}
	if _, _, err := WeightedMeanVar([]int{1}, []float64{}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, err := WeightedMeanVar([]int{1}, []float64{-2}); err == nil {
		t.Error("negative weight should error")
	}
}

func TestIndexOfDispersionPoissonIsOne(t *testing.T) {
	// The IoD of an exact Poisson pmf is 1 — the paper's diagnostic.
	for _, lambda := range []float64{0.5, 1, 3, 7} {
		p := Poisson{Lambda: lambda}
		spec := p.Spectrum(80)
		iod, err := SpectrumIoD(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(iod, 1, 1e-4) {
			t.Errorf("λ=%v: IoD = %v want 1", lambda, iod)
		}
	}
}

func TestIndexOfDispersionBinomialBelowOne(t *testing.T) {
	// Binomial IoD = 1-p < 1: under-dispersed.
	b := Binomial{N: 10, P: 0.4}
	iod, err := SpectrumIoD(b.Spectrum(10))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(iod, 0.6, 1e-6) {
		t.Errorf("binomial IoD = %v want 0.6", iod)
	}
}

func TestIoDZeroMean(t *testing.T) {
	if _, err := IndexOfDispersion([]int{0, 0}, []float64{1, 1}); err == nil {
		t.Error("zero mean should error")
	}
}

func TestFitLineExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 2, 1e-12) || !approx(fit.Intercept, 1, 1e-12) || !approx(fit.R2, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R < 0 {
		t.Error("positive slope should give positive R")
	}
}

func TestFitLineNegativeCorrelation(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{10, 8.1, 5.9, 4.2, 1.8}
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R >= 0 || fit.Slope >= 0 {
		t.Errorf("expected negative correlation, fit=%+v", fit)
	}
	if fit.R2 < 0.98 {
		t.Errorf("near-linear data should have high R², got %v", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("degenerate x should error")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if !approx(Mean(xs), 2.5, 1e-12) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !approx(Median(xs), 2.5, 1e-12) {
		t.Errorf("Median = %v", Median(xs))
	}
	if !approx(Median([]float64{5, 1, 3}), 3, 1e-12) {
		t.Error("odd median wrong")
	}
	if Max(xs) != 4 || Min(xs) != 1 {
		t.Error("Max/Min wrong")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty summaries should be 0")
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Error("empty Max/Min should be infinities")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Error("extreme quantiles wrong")
	}
	if !approx(Quantile(xs, 0.5), 3, 1e-12) {
		t.Errorf("median quantile = %v", Quantile(xs, 0.5))
	}
	if !approx(Quantile(xs, 0.25), 2, 1e-12) {
		t.Errorf("q25 = %v", Quantile(xs, 0.25))
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionBelow(xs, 2.5); !approx(got, 0.5, 1e-12) {
		t.Errorf("FractionBelow = %v", got)
	}
	if FractionBelow(nil, 1) != 0 {
		t.Error("empty FractionBelow should be 0")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	same := true
	a = NewRNG(123)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Intn(8)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/8) > 500 {
			t.Errorf("bucket %d count %d far from %d", i, c, n/8)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Errorf("normal moments: mean=%v var=%v", mean, variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		p := NewRNG(uint64(seed)).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGLogUniform(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.LogUniform(1e-4, 1e-2)
		if v < 1e-4 || v >= 1e-2 {
			t.Fatalf("LogUniform out of range: %v", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("LogUniform with bad bounds should panic")
		}
	}()
	r.LogUniform(0, 1)
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(42)
	a := r.Split(1)
	b := r.Split(2)
	same := 0
	for i := 0; i < 20; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams look correlated: %d collisions", same)
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}
