package qbeep

import (
	"context"
	"math"
	"reflect"
	"testing"
)

func TestCorrectReadout(t *testing.T) {
	// Exact confusion of a point mass on a 2-qubit register.
	flips := []float64{0.1, 0.05}
	counts := Counts{}
	truth := "10" // qubit1=1, qubit0=0
	for _, tc := range []struct {
		s string
		p float64
	}{
		{"10", (1 - 0.1) * (1 - 0.05)},
		{"11", (1 - 0.05) * 0.1},
		{"00", (1 - 0.1) * 0.05},
		{"01", 0.1 * 0.05},
	} {
		counts[tc.s] = tc.p * 1000
	}
	out, err := CorrectReadout(counts, flips)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[truth]-1000) > 1e-6 {
		t.Errorf("recovered %v want 1000: %v", out[truth], out)
	}
	if _, err := CorrectReadout(Counts{"0": 1}, []float64{0.6}); err == nil {
		t.Error("rate >= 0.5 should error")
	}
	if _, err := CorrectReadout(Counts{"01": 1}, []float64{0.1}); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestBackendReadoutRates(t *testing.T) {
	rates, err := BackendReadoutRates("istanbul", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 5 {
		t.Fatalf("rates %v", rates)
	}
	for _, r := range rates {
		if r <= 0 || r >= 0.5 {
			t.Errorf("rate %v out of plausible range", r)
		}
	}
	if _, err := BackendReadoutRates("istanbul", 0); err == nil {
		t.Error("zero width should error")
	}
	if _, err := BackendReadoutRates("nope", 3); err == nil {
		t.Error("unknown backend should error")
	}
}

func TestReadoutThenQBEEPComposition(t *testing.T) {
	// Full pipeline on a synthetic BV: readout correction before Q-BEEP
	// should not hurt, and the composed result should beat raw.
	secret := "101101"
	src, err := BernsteinVaziraniQASM(secret)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateCtx(context.Background(), src, "dresden", 4096, 5) // dresden: noisy 7-qubit chain
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := DataQubits(len(secret))
	raw, err := MarginalizeCounts(sim.Raw, keep)
	if err != nil {
		t.Fatal(err)
	}

	pstRaw, err := PST(raw, secret)
	if err != nil {
		t.Fatal(err)
	}
	flips := make([]float64, len(secret))
	for i := range flips {
		flips[i] = 0.02 // conservative readout estimate for the synthetic fleet
	}
	corrected, err := CorrectReadout(raw, flips)
	if err != nil {
		t.Fatal(err)
	}
	composed, err := MitigateCtx(context.Background(), corrected, sim.Lambda.Total(), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	pstComposed, err := PST(composed, secret)
	if err != nil {
		t.Fatal(err)
	}
	if pstComposed <= pstRaw {
		t.Errorf("composition should beat raw: %v -> %v", pstRaw, pstComposed)
	}
}

func TestMitigateEnsemblePublic(t *testing.T) {
	secret := "10110"
	src, err := BernsteinVaziraniQASM(secret)
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := DataQubits(len(secret))
	var runs []EnsembleRun
	for i, backend := range []string{"galway", "istanbul", "nairobi2"} {
		sim, err := SimulateCtx(context.Background(), src, backend, 2048, uint64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := MarginalizeCounts(sim.Raw, keep)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, EnsembleRun{Counts: raw, Lambda: sim.Lambda.Total()})
	}
	merged, err := MitigateEnsembleCtx(context.Background(), runs, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	pst, err := PST(merged, secret)
	if err != nil {
		t.Fatal(err)
	}
	// Each member's raw PST:
	worst := 1.0
	for _, r := range runs {
		p, err := PST(r.Counts, secret)
		if err != nil {
			t.Fatal(err)
		}
		if p < worst {
			worst = p
		}
	}
	if pst <= worst {
		t.Errorf("ensemble PST %v should beat the worst raw member %v", pst, worst)
	}
	if _, err := MitigateEnsembleCtx(context.Background(), nil, NewOptions()); err == nil {
		t.Error("empty ensemble should error")
	}
	if _, err := MitigateEnsembleCtx(context.Background(), []EnsembleRun{{Counts: Counts{"0x": 1}}}, NewOptions()); err == nil {
		t.Error("bad counts should error")
	}
}

// TestMitigateEnsembleConvergeTol: the ensemble honours ConvergeTol. The
// step Hellinger is at most 1, so a tolerance of 1 stops every run after
// its first round, and the ensemble must equal the one-round schedule bit
// for bit (and differ from the full one it would run if the tolerance
// were dropped).
func TestMitigateEnsembleConvergeTol(t *testing.T) {
	runs := []EnsembleRun{
		{Counts: Counts{"0101": 800, "0111": 90, "0001": 70, "1101": 40, "0100": 30}, Lambda: 1.2},
		{Counts: Counts{"0101": 600, "0111": 150, "0001": 110, "1101": 90, "1100": 50}, Lambda: 1.8},
	}
	mitigate := func(opts Options) Counts {
		t.Helper()
		out, err := MitigateEnsembleCtx(context.Background(), runs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := NewOptions()
	early := NewOptions()
	early.ConvergeTol = 1
	one := NewOptions()
	one.Iterations = 1
	got, want := mitigate(early), mitigate(one)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ConvergeTol 1: %v, want the one-round ensemble %v", got, want)
	}
	if reflect.DeepEqual(mitigate(full), want) {
		t.Fatal("the full schedule equals one round: the corpus cannot tell the schedules apart")
	}
}
