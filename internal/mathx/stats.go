package mathx

import (
	"fmt"
	"math"
	"sort"
)

// WeightedMeanVar returns the weighted mean and (population) variance of
// integer-valued samples. It is the workhorse behind the Index of Dispersion.
func WeightedMeanVar(values []int, weights []float64) (mean, variance float64, err error) {
	if len(values) != len(weights) {
		return 0, 0, fmt.Errorf("mathx: %d values vs %d weights", len(values), len(weights))
	}
	var wsum float64
	for i, w := range weights {
		if w < 0 {
			return 0, 0, fmt.Errorf("mathx: negative weight %v", w)
		}
		wsum += w
		mean += float64(values[i]) * w
	}
	if wsum == 0 {
		return 0, 0, fmt.Errorf("mathx: zero total weight")
	}
	mean /= wsum
	for i, w := range weights {
		d := float64(values[i]) - mean
		variance += d * d * w
	}
	variance /= wsum
	return mean, variance, nil
}

// IndexOfDispersion computes σ²/μ for a weighted integer sample (paper
// Eq. 1). An IoD of 1 is the Poisson signature; < 1 indicates
// under-dispersion (tighter clustering), > 1 over-dispersion.
func IndexOfDispersion(values []int, weights []float64) (float64, error) {
	mean, variance, err := WeightedMeanVar(values, weights)
	if err != nil {
		return 0, err
	}
	if mean == 0 {
		return 0, fmt.Errorf("mathx: index of dispersion undefined for zero mean")
	}
	return variance / mean, nil
}

// SpectrumIoD computes the Index of Dispersion of a Hamming spectrum
// (index = distance, value = mass).
func SpectrumIoD(spectrum []float64) (float64, error) {
	values := make([]int, len(spectrum))
	for i := range values {
		values[i] = i
	}
	return IndexOfDispersion(values, spectrum)
}

// LinearFit is an ordinary least-squares line y = Slope·x + Intercept with
// its coefficient of determination R2 and Pearson correlation R.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	R         float64
}

// FitLine fits a least-squares line to (x, y) pairs. At least two distinct
// x values are required.
func FitLine(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("mathx: %d xs vs %d ys", len(x), len(y))
	}
	n := float64(len(x))
	if len(x) < 2 {
		return LinearFit{}, fmt.Errorf("mathx: need at least 2 points, got %d", len(x))
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("mathx: degenerate x (all equal)")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R = sxy / math.Sqrt(sxx*syy)
		fit.R2 = fit.R * fit.R
	}
	return fit, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation (0 for empty input).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[len(c)-1]
	}
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo]*(1-frac) + c[lo+1]*frac
}

// Max returns the maximum of xs (negative infinity for empty input).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs (positive infinity for empty input).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// FractionBelow returns the fraction of xs strictly below threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := 0
	for _, x := range xs {
		if x < threshold {
			c++
		}
	}
	return float64(c) / float64(len(xs))
}
