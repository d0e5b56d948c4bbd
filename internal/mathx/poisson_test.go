package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLogFactorial(t *testing.T) {
	cases := []struct {
		k    int
		want float64
	}{
		{0, 0}, {1, 0}, {2, math.Log(2)}, {5, math.Log(120)}, {10, math.Log(3628800)},
	}
	for _, c := range cases {
		if got := LogFactorial(c.k); !approx(got, c.want, 1e-9) {
			t.Errorf("LogFactorial(%d) = %v want %v", c.k, got, c.want)
		}
	}
	// Table/Lgamma boundary consistency.
	if !approx(LogFactorial(127)+math.Log(128), LogFactorial(128), 1e-6) {
		t.Error("LogFactorial discontinuous at table boundary")
	}
}

func TestLogFactorialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative k")
		}
	}()
	LogFactorial(-1)
}

func TestPoissonPMFKnown(t *testing.T) {
	p := Poisson{Lambda: 2}
	// P(0) = e^-2, P(1) = 2e^-2, P(2) = 2e^-2, P(3) = 4/3 e^-2.
	e2 := math.Exp(-2)
	cases := []struct {
		k    int
		want float64
	}{
		{0, e2}, {1, 2 * e2}, {2, 2 * e2}, {3, 4.0 / 3 * e2}, {-1, 0},
	}
	for _, c := range cases {
		if got := p.PMF(c.k); !approx(got, c.want, 1e-12) {
			t.Errorf("PMF(%d) = %v want %v", c.k, got, c.want)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	p := Poisson{}
	if p.PMF(0) != 1 || p.PMF(1) != 0 {
		t.Error("λ=0 should be a point mass at 0")
	}
	if p.CDF(5) != 1 {
		t.Error("λ=0 CDF should be 1")
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		p := Poisson{Lambda: lambda}
		var s float64
		for k := 0; k < 200; k++ {
			s += p.PMF(k)
		}
		if !approx(s, 1, 1e-9) {
			t.Errorf("λ=%v: pmf sums to %v", lambda, s)
		}
	}
}

func TestPoissonCDFMonotone(t *testing.T) {
	f := func(lRaw uint8, kRaw uint8) bool {
		p := Poisson{Lambda: float64(lRaw%50) / 5}
		k := int(kRaw % 40)
		return p.CDF(k) <= p.CDF(k+1)+1e-12 && p.CDF(-1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoissonQuantile(t *testing.T) {
	p := Poisson{Lambda: 3}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		k := p.Quantile(q)
		if p.CDF(k) < q {
			t.Errorf("Quantile(%v)=%d but CDF=%v", q, k, p.CDF(k))
		}
		if k > 0 && p.CDF(k-1) >= q {
			t.Errorf("Quantile(%v)=%d not minimal", q, k)
		}
	}
	if p.Quantile(0) != 0 {
		t.Error("Quantile(0) should be 0")
	}
}

func TestPoissonMeanVariance(t *testing.T) {
	p := Poisson{Lambda: 4.2}
	if p.Mean() != 4.2 || p.Variance() != 4.2 {
		t.Error("Poisson mean/variance should equal λ")
	}
	// Empirical check via the pmf.
	var mean, varSum float64
	for k := 0; k < 100; k++ {
		mean += float64(k) * p.PMF(k)
	}
	for k := 0; k < 100; k++ {
		d := float64(k) - mean
		varSum += d * d * p.PMF(k)
	}
	if !approx(mean, 4.2, 1e-6) || !approx(varSum, 4.2, 1e-4) {
		t.Errorf("empirical mean=%v var=%v", mean, varSum)
	}
}

func TestPoissonSampleMoments(t *testing.T) {
	rng := NewRNG(7)
	for _, lambda := range []float64{0.5, 3, 50} {
		p := Poisson{Lambda: lambda}
		const n = 20000
		var sum, sq float64
		for i := 0; i < n; i++ {
			v := float64(p.Sample(rng.Float64))
			sum += v
			sq += v * v
		}
		mean := sum / n
		variance := sq/n - mean*mean
		if !approx(mean, lambda, 0.1*lambda+0.05) {
			t.Errorf("λ=%v: sample mean %v", lambda, mean)
		}
		if !approx(variance, lambda, 0.2*lambda+0.1) {
			t.Errorf("λ=%v: sample variance %v", lambda, variance)
		}
	}
	if (Poisson{}).Sample(rng.Float64) != 0 {
		t.Error("λ=0 sample should be 0")
	}
}

// TestPoissonSampleSkewness checks the third moment where a rounded
// normal approximation would show: a Poisson(λ) variate has skewness
// 1/√λ, a rounded normal one about 0. At 10⁶ draws the sample skewness
// has standard error about √(6/N).
func TestPoissonSampleSkewness(t *testing.T) {
	rng := NewRNG(11)
	for _, lambda := range []float64{45, 200} {
		p := Poisson{Lambda: lambda}
		const n = 1_000_000
		var s1, s2, s3 float64
		for i := 0; i < n; i++ {
			// Centre on λ so the power sums stay well conditioned.
			v := float64(p.Sample(rng.Float64)) - lambda
			s1 += v
			s2 += v * v
			s3 += v * v * v
		}
		mean := s1 / n
		m2 := s2/n - mean*mean
		m3 := s3/n - 3*mean*s2/n + 2*mean*mean*mean
		skew := m3 / math.Pow(m2, 1.5)
		if se := math.Sqrt(6.0 / n); math.Abs(skew-1/math.Sqrt(lambda)) > 5*se {
			t.Errorf("λ=%v: skewness %.4f, want %.4f ± %.4f", lambda, skew, 1/math.Sqrt(lambda), 5*se)
		}
		if se := math.Sqrt(lambda / n); math.Abs(mean) > 5*se {
			t.Errorf("λ=%v: mean %.4f off λ by more than %.4f", lambda, mean+lambda, 5*se)
		}
	}
}

func TestFitPoissonMLE(t *testing.T) {
	// Weighted mean of {0:1, 1:2, 2:1} is 1.
	p, err := FitPoissonMLE([]int{0, 1, 2}, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.Lambda, 1, 1e-12) {
		t.Errorf("λ̂ = %v want 1", p.Lambda)
	}
	if _, err := FitPoissonMLE([]int{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitPoissonMLE([]int{1}, []float64{0}); err == nil {
		t.Error("zero weight should error")
	}
	if _, err := FitPoissonMLE([]int{1}, []float64{-1}); err == nil {
		t.Error("negative weight should error")
	}
}

func TestFitPoissonRecoversLambda(t *testing.T) {
	// MLE on the exact pmf recovers λ (up to truncation).
	for _, lambda := range []float64{0.3, 1.7, 4} {
		p := Poisson{Lambda: lambda}
		spec := p.Spectrum(60)
		values := make([]int, len(spec))
		for k := range values {
			values[k] = k
		}
		fit, err := FitPoissonMLE(values, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(fit.Lambda, lambda, 1e-6) {
			t.Errorf("λ=%v: recovered %v", lambda, fit.Lambda)
		}
	}
}

func TestPoissonSpectrum(t *testing.T) {
	p := Poisson{Lambda: 1}
	s := p.Spectrum(5)
	if len(s) != 6 {
		t.Fatalf("spectrum length %d", len(s))
	}
	for k := range s {
		if !approx(s[k], p.PMF(k), 1e-15) {
			t.Errorf("spectrum[%d] mismatch", k)
		}
	}
}
