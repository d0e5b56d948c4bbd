// Package mathx provides the probability distributions and statistics Q-BEEP
// relies on: Poisson/Binomial/Uniform models over the Hamming spectrum,
// maximum-likelihood fits, the Index of Dispersion, and simple regression.
package mathx

import (
	"fmt"
	"math"
)

// logFactorialTable caches ln(k!) for small k; larger arguments use the
// Stirling series via math.Lgamma.
var logFactorialTable = func() [128]float64 {
	var t [128]float64
	for k := 2; k < len(t); k++ {
		t[k] = t[k-1] + math.Log(float64(k))
	}
	return t
}()

// LogFactorial returns ln(k!). It panics on negative k, which is always a
// programmer error.
func LogFactorial(k int) float64 {
	if k < 0 {
		panic(fmt.Sprintf("mathx: LogFactorial(%d)", k))
	}
	if k < len(logFactorialTable) {
		return logFactorialTable[k]
	}
	v, _ := math.Lgamma(float64(k) + 1)
	return v
}

// Poisson is a Poisson distribution with rate Lambda. The zero value
// (λ = 0) is a point mass at 0, which is the correct limit for a perfectly
// clean circuit: every shot lands at Hamming distance zero.
type Poisson struct {
	Lambda float64
}

// PMF returns P(X = k).
func (p Poisson) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	if p.Lambda <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	return math.Exp(float64(k)*math.Log(p.Lambda) - p.Lambda - LogFactorial(k))
}

// CDF returns P(X <= k).
func (p Poisson) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	var s float64
	for i := 0; i <= k; i++ {
		s += p.PMF(i)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Mean returns λ.
func (p Poisson) Mean() float64 { return p.Lambda }

// Variance returns λ.
func (p Poisson) Variance() float64 { return p.Lambda }

// Quantile returns the smallest k with CDF(k) >= q for q in (0,1).
func (p Poisson) Quantile(q float64) int {
	if q <= 0 {
		return 0
	}
	var cum float64
	for k := 0; ; k++ {
		cum += p.PMF(k)
		if cum >= q || k > 10_000 {
			return k
		}
	}
}

// Spectrum returns the pmf evaluated at 0..n, i.e. the model's predicted
// Hamming spectrum truncated to an n-qubit register (not renormalized;
// truncated mass is reported by the model as "beyond register width").
func (p Poisson) Spectrum(n int) []float64 {
	s := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		s[k] = p.PMF(k)
	}
	return s
}

// Sample draws one Poisson variate by Knuth's multiplication method: it
// counts the uniforms whose running product stays above e^-λ. A rate of
// 30 or more is split into equal chunks below 30, each drawn the same
// way; their sum is an exact Poisson(λ) variate, and e^-chunk stays far
// from underflow. src must return uniform floats in [0, 1).
func (p Poisson) Sample(uniform func() float64) int {
	if p.Lambda <= 0 {
		return 0
	}
	chunks := int(p.Lambda/30) + 1
	l := math.Exp(-p.Lambda / float64(chunks))
	k := 0
	for c := 0; c < chunks; c++ {
		prod := uniform()
		for j := 0; prod > l && j <= 10_000; j++ {
			k++
			prod *= uniform()
		}
	}
	return k
}

// FitPoissonMLE returns the maximum-likelihood Poisson for weighted samples:
// λ̂ is the weighted mean. It is used for the paper's "MLE Poisson" Fig. 6
// comparator, which fits the observed Hamming spectrum directly.
func FitPoissonMLE(values []int, weights []float64) (Poisson, error) {
	if len(values) != len(weights) {
		return Poisson{}, fmt.Errorf("mathx: %d values vs %d weights", len(values), len(weights))
	}
	var sum, wsum float64
	for i, v := range values {
		if weights[i] < 0 {
			return Poisson{}, fmt.Errorf("mathx: negative weight %v", weights[i])
		}
		sum += float64(v) * weights[i]
		wsum += weights[i]
	}
	if wsum == 0 {
		return Poisson{}, fmt.Errorf("mathx: zero total weight")
	}
	return Poisson{Lambda: sum / wsum}, nil
}
