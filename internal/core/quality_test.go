package core

import (
	"context"
	"testing"

	"qbeep/internal/bitstring"
)

// qualityFixture is the TestMitigateTrackedTrace distribution: truth
// 000, errors clustered nearby.
func qualityFixture() (raw, ideal *bitstring.Dist) {
	raw = bitstring.NewDist(3)
	raw.Add(0b000, 50)
	raw.Add(0b001, 20)
	raw.Add(0b010, 20)
	raw.Add(0b111, 10)
	ideal = bitstring.NewDist(3)
	ideal.Add(0b000, 1)
	return raw, ideal
}

// TestOnQualityUntracked: the hook fires once with mode-centered
// spectra and a consistent Hellinger shift.
func TestOnQualityUntracked(t *testing.T) {
	raw, _ := qualityFixture()
	opts := NewOptions()
	var got []QualityStats
	opts.OnQuality = func(q QualityStats) { got = append(got, q) }
	out, err := MitigateCtx(context.Background(), raw, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("OnQuality fired %d times, want 1", len(got))
	}
	q := got[0]
	if want := bitstring.Hellinger(raw, out); !approx(q.HellingerShift, want, 1e-12) {
		t.Errorf("hellinger shift %v, want %v", q.HellingerShift, want)
	}
	if q.HellingerShift <= 0 {
		t.Error("mitigation moved mass; shift must be positive")
	}
	if !approx(q.PosteriorEntropy, out.Entropy(), 1e-12) {
		t.Errorf("posterior entropy %v, want %v", q.PosteriorEntropy, out.Entropy())
	}
	if q.Iterations != opts.Iterations || q.Converged {
		t.Errorf("fixed schedule: iterations=%d converged=%v", q.Iterations, q.Converged)
	}
	if q.SpectrumRef != "mode" {
		t.Errorf("untracked runs center on the raw mode, got %q", q.SpectrumRef)
	}
	if len(q.SpectrumBefore) != 4 || len(q.SpectrumAfter) != 4 {
		t.Fatalf("3-qubit spectra must have 4 distance bins: %v / %v", q.SpectrumBefore, q.SpectrumAfter)
	}
	var before, after float64
	for i := range q.SpectrumBefore {
		before += q.SpectrumBefore[i]
		after += q.SpectrumAfter[i]
	}
	if !approx(before, 1, 1e-9) || !approx(after, 1, 1e-9) {
		t.Errorf("spectra must each sum to 1: %v / %v", before, after)
	}
	if q.FidelityRaw != 0 || q.FidelityMitigated != 0 {
		t.Error("untracked runs must not report ground-truth fidelity")
	}
}

// TestOnQualityTracked: with an ideal, the hook reports ground-truth
// fidelity/Hellinger and expected-centered spectra, and mitigation
// concentrates mass at distance 0.
func TestOnQualityTracked(t *testing.T) {
	raw, ideal := qualityFixture()
	opts := NewOptions()
	var q QualityStats
	opts.OnQuality = func(s QualityStats) { q = s }
	out, trace, err := MitigateTrackedCtx(context.Background(), raw, 1, opts, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(q.FidelityRaw, trace[0], 1e-12) || !approx(q.FidelityMitigated, trace[len(trace)-1], 1e-12) {
		t.Errorf("fidelities %v/%v disagree with trace %v/%v", q.FidelityRaw, q.FidelityMitigated, trace[0], trace[len(trace)-1])
	}
	if q.HellingerMitigated >= q.HellingerRaw {
		t.Errorf("mitigation should reduce Hellinger distance: %v -> %v", q.HellingerRaw, q.HellingerMitigated)
	}
	if q.SpectrumRef != "expected" {
		t.Errorf("tracked runs center on the ideal mode, got %q", q.SpectrumRef)
	}
	if q.SpectrumAfter[0] <= q.SpectrumBefore[0] {
		t.Errorf("mass at distance 0 should grow: %v -> %v", q.SpectrumBefore[0], q.SpectrumAfter[0])
	}
	if !approx(q.SpectrumAfter[0], out.Prob(0b000), 1e-9) {
		t.Errorf("spectrum bin 0 %v should equal mitigated P(truth) %v", q.SpectrumAfter[0], out.Prob(0b000))
	}
}

// TestOnQualityConverged: with an adaptive tolerance loose enough to
// trigger, the hook reports convergence and the executed count.
func TestOnQualityConverged(t *testing.T) {
	raw, _ := qualityFixture()
	opts := NewOptions()
	opts.ConvergeTol = 0.5 // trips immediately
	var q QualityStats
	opts.OnQuality = func(s QualityStats) { q = s }
	if _, err := MitigateCtx(context.Background(), raw, 1, opts); err != nil {
		t.Fatal(err)
	}
	if !q.Converged {
		t.Error("loose tolerance must report converged")
	}
	if q.Iterations >= opts.Iterations {
		t.Errorf("early exit expected: executed %d of %d", q.Iterations, opts.Iterations)
	}
}
