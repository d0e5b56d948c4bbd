package metrics

import (
	"math"
	"strings"
	"testing"

	"qbeep/internal/bitstring"
)

func TestIST(t *testing.T) {
	d := bitstring.NewDist(3)
	d.Add(0b101, 80)
	d.Add(0b100, 16)
	d.Add(0b001, 4)
	got, ok := IST(d, 0b101)
	if !ok || got != 5 {
		t.Errorf("IST = %v ok=%v, want 5 true", got, ok)
	}
	// All mass correct: the ratio is unbounded, reported as not-ok.
	pure := bitstring.NewDist(3)
	pure.Add(0b101, 100)
	if _, ok := IST(pure, 0b101); ok {
		t.Error("no incorrect mass must report ok=false")
	}
	if _, ok := IST(nil, 0); ok {
		t.Error("nil counts must report ok=false")
	}
	if _, ok := IST(bitstring.NewDist(3), 0); ok {
		t.Error("empty counts must report ok=false")
	}
	// Correct answer never observed: IST is 0, but well-defined.
	if got, ok := IST(d, 0b111); !ok || got != 0 {
		t.Errorf("unobserved correct: %v ok=%v, want 0 true", got, ok)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{0.5, 1.0, 2.0, 4.5})
	if s.N != 4 {
		t.Errorf("N = %d", s.N)
	}
	if s.Max != 4.5 || s.Min != 0.5 {
		t.Errorf("max/min %v/%v", s.Max, s.Min)
	}
	if math.Abs(s.Mean-2.0) > 1e-12 {
		t.Errorf("mean %v", s.Mean)
	}
	if math.Abs(s.FracLoss-0.25) > 1e-12 {
		t.Errorf("fracLoss %v", s.FracLoss)
	}
	if !strings.Contains(s.String(), "n=4") {
		t.Errorf("String: %s", s)
	}
	if Summarize(nil).N != 0 || Summarize(nil).String() != "n=0" {
		t.Error("empty summary wrong")
	}
}

func TestSafeRatio(t *testing.T) {
	if r := SafeRatio(0.5, 1.0, 99); r != 2 {
		t.Errorf("SafeRatio = %v", r)
	}
	if r := SafeRatio(0, 1, 99); r != 99 {
		t.Errorf("fallback = %v", r)
	}
	if r := SafeRatio(math.NaN(), 1, 7); r != 7 {
		t.Errorf("NaN fallback = %v", r)
	}
}
