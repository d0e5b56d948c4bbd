package experiments

import (
	"qbeep/internal/hammer"
	"qbeep/internal/mathx"
)

// The spectrum helpers all describe the *error* portion of the Hamming
// spectrum — distances 1..n, conditioned on an error having occurred —
// which is what the paper's Figs. 1, 2 and 6 plot (their x-axes start at
// distance 1).

// normalizeTail zeroes index 0 and normalizes the rest to unit mass.
func normalizeTail(spec []float64) []float64 {
	out := make([]float64, len(spec))
	var sum float64
	for i := 1; i < len(spec); i++ {
		sum += spec[i]
	}
	if sum <= 0 {
		return out
	}
	for i := 1; i < len(spec); i++ {
		out[i] = spec[i] / sum
	}
	return out
}

// poissonErrorSpectrum is the Q-BEEP model prediction: Poisson(λ) over
// distances 1..n, renormalized.
func poissonErrorSpectrum(lambda float64, n int) []float64 {
	return normalizeTail(mathx.Poisson{Lambda: lambda}.Spectrum(n))
}

// binomialErrorSpectrum is Binomial(n, p) over distances 1..n.
func binomialErrorSpectrum(b mathx.Binomial, n int) []float64 {
	return normalizeTail(b.Spectrum(n))
}

// uniformErrorSpectrum is the uniform-distribution comparator.
func uniformErrorSpectrum(n int) []float64 {
	return normalizeTail(mathx.UniformSpectrum(n))
}

// hammerErrorSpectrum is HAMMER's fixed weighting profile over distances.
func hammerErrorSpectrum(n int) []float64 {
	return normalizeTail(hammer.SpectrumWeights(n))
}

// spectrumMoments returns the weighted mean distance of an error spectrum
// (EHD of errors) and its Index of Dispersion. ok is false when the
// spectrum is empty or the IoD undefined.
func spectrumMoments(spec []float64) (mean, iod float64, ok bool) {
	values := make([]int, len(spec))
	for i := range values {
		values[i] = i
	}
	m, v, err := mathx.WeightedMeanVar(values, spec)
	if err != nil || m == 0 {
		return 0, 0, false
	}
	return m, v / m, true
}
