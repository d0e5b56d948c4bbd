package qbeep

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestEndToEndBVPipeline(t *testing.T) {
	secret := "10110101"
	src, err := BernsteinVaziraniQASM(secret)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "OPENQASM 2.0;") {
		t.Fatal("not QASM")
	}
	sim, err := SimulateCtx(context.Background(), src, "istanbul", 4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Lambda.Total() <= 0 {
		t.Errorf("lambda %v", sim.Lambda.Total())
	}
	// Drop the ancilla before scoring.
	keep, err := DataQubits(len(secret))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarginalizeCounts(sim.Raw, keep)
	if err != nil {
		t.Fatal(err)
	}
	mitigated, err := MitigateCtx(context.Background(), raw, sim.Lambda.Total(), NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	pstRaw, err := PST(raw, secret)
	if err != nil {
		t.Fatal(err)
	}
	pstQB, err := PST(mitigated, secret)
	if err != nil {
		t.Fatal(err)
	}
	if pstQB < pstRaw {
		t.Errorf("mitigation reduced PST: %v -> %v", pstRaw, pstQB)
	}
	// Total mass preserved.
	var totRaw, totQB float64
	for _, c := range raw {
		totRaw += c
	}
	for _, c := range mitigated {
		totQB += c
	}
	if math.Abs(totRaw-totQB) > 1e-6 {
		t.Errorf("mass changed: %v -> %v", totRaw, totQB)
	}
}

func TestMitigateValidatesInput(t *testing.T) {
	if _, err := MitigateCtx(context.Background(), Counts{}, 1, NewOptions()); err == nil {
		t.Error("empty counts should error")
	}
	if _, err := MitigateCtx(context.Background(), Counts{"01": 1, "011": 1}, 1, NewOptions()); err == nil {
		t.Error("mixed widths should error")
	}
	if _, err := MitigateCtx(context.Background(), Counts{"01": 1}, -1, NewOptions()); err == nil {
		t.Error("negative lambda should error")
	}
	if _, err := MitigateCtx(context.Background(), Counts{"01": 1}, 1, Options{}); err == nil {
		t.Error("zero options should error")
	}
}

// TestCtxEntriesCancelled: every public ctx entry that parses,
// transpiles, simulates or mitigates returns ctx's error on a
// cancelled ctx.
func TestCtxEntriesCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	counts := Counts{"101": 90, "100": 10}
	src, err := BernsteinVaziraniQASM("101")
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		call func() error
	}{
		{"MitigateCtx", func() error {
			_, err := MitigateCtx(ctx, counts, 1, NewOptions())
			return err
		}},
		{"MitigateTrackedCtx", func() error {
			_, _, err := MitigateTrackedCtx(ctx, counts, 1, NewOptions(), Counts{"101": 1})
			return err
		}},
		{"MitigateEnsembleCtx", func() error {
			_, err := MitigateEnsembleCtx(ctx, []EnsembleRun{{Counts: counts, Lambda: 1}}, NewOptions())
			return err
		}},
		{"EstimateLambdaQASMCtx", func() error {
			_, err := EstimateLambdaQASMCtx(ctx, src, "galway")
			return err
		}},
		{"SimulateCtx", func() error {
			_, err := SimulateCtx(ctx, src, "galway", 64, 1)
			return err
		}},
		{"SimulateExactCtx", func() error {
			_, _, err := SimulateExactCtx(ctx, src, "galway", 64, 1)
			return err
		}},
		{"TranspileQASMCtx", func() error {
			_, _, err := TranspileQASMCtx(ctx, src, "galway")
			return err
		}},
		{"FoldQASMCtx", func() error {
			_, err := FoldQASMCtx(ctx, src, 3)
			return err
		}},
	}
	for _, e := range entries {
		if err := e.call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.name, err)
		}
	}
}

func TestMitigateTrackedTrace(t *testing.T) {
	raw := Counts{"000": 70, "001": 15, "010": 10, "111": 5}
	ideal := Counts{"000": 1}
	out, trace, err := MitigateTrackedCtx(context.Background(), raw, 1, NewOptions(), ideal)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 21 {
		t.Errorf("trace length %d", len(trace))
	}
	if out == nil {
		t.Fatal("nil output")
	}
	if trace[len(trace)-1] < trace[0] {
		t.Errorf("fidelity regressed: %v -> %v", trace[0], trace[len(trace)-1])
	}
}

func TestEstimateLambdaQASM(t *testing.T) {
	src, _ := BernsteinVaziraniQASM("1011")
	lb, err := EstimateLambdaQASMCtx(context.Background(), src, "galway")
	if err != nil {
		t.Fatal(err)
	}
	if lb.Total() <= 0 || lb.Time <= 0 {
		t.Errorf("lambda %+v", lb)
	}
	if _, err := EstimateLambdaQASMCtx(context.Background(), src, "nope"); err == nil {
		t.Error("unknown backend should error")
	}
	if _, err := EstimateLambdaQASMCtx(context.Background(), "not qasm", "galway"); err == nil {
		t.Error("bad QASM should error")
	}
}

// TestEstimateLambdaQASMIonBackend is the regression test for the
// backend-name inconsistency: SimulateCtx/SimulateExactCtx accepted
// "ion-5" while EstimateLambdaQASMCtx rejected it (it consulted the catalog
// directly). All three must resolve names identically.
func TestEstimateLambdaQASMIonBackend(t *testing.T) {
	src, err := BernsteinVaziraniQASM("1011")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := EstimateLambdaQASMCtx(context.Background(), src, "ion-5")
	if err != nil {
		t.Fatalf("EstimateLambdaQASMCtx rejects ion-5 while SimulateCtx accepts it: %v", err)
	}
	if lb.Total() <= 0 || lb.Time <= 0 {
		t.Errorf("ion-5 lambda %+v", lb)
	}
	// Same pipeline through SimulateCtx must agree on the estimate.
	sim, err := SimulateCtx(context.Background(), src, "ion-5", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lb.Total(), sim.Lambda.Total(); got != want {
		t.Errorf("lambda mismatch: EstimateLambdaQASMCtx %v vs SimulateCtx %v", got, want)
	}
}

func TestBackendsCatalog(t *testing.T) {
	bs, err := Backends()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 17 { // 16 superconducting + 1 ion
		t.Fatalf("catalog size %d", len(bs))
	}
	var ion bool
	for _, b := range bs {
		if b.Qubits <= 0 || b.MeanT1 <= 0 {
			t.Errorf("%s: bad info %+v", b.Name, b)
		}
		if b.Architecture == "trapped-ion" {
			ion = true
		}
	}
	if !ion {
		t.Error("ion backend missing")
	}
}

func TestSuiteCircuits(t *testing.T) {
	names := SuiteNames()
	if len(names) < 12 {
		t.Fatalf("suite size %d", len(names))
	}
	src, ideal, data, err := SuiteCircuit("cat_state_n4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "qreg q[4];") {
		t.Errorf("unexpected QASM: %s", src)
	}
	if len(ideal) != 2 {
		t.Errorf("cat ideal: %v", ideal)
	}
	if len(data) != 4 {
		t.Errorf("cat data qubits: %v", data)
	}
	// An ancilla-carrying circuit reports fewer data qubits than its
	// register width.
	lpnSrc, _, lpnData, err := SuiteCircuit("lpn_n5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lpnSrc, "qreg q[5];") || len(lpnData) != 4 {
		t.Errorf("lpn: %d data qubits", len(lpnData))
	}
	if _, _, _, err := SuiteCircuit("bogus"); err == nil {
		t.Error("unknown suite name should error")
	}
}

func TestSimulateOnIonBackend(t *testing.T) {
	src, _ := BernsteinVaziraniQASM("101")
	sim, err := SimulateCtx(context.Background(), src, "ion-5", 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Raw) == 0 {
		t.Error("no counts")
	}
}

func TestFidelityAndPSTHelpers(t *testing.T) {
	a := Counts{"00": 1}
	b := Counts{"00": 1}
	f, err := Fidelity(a, b)
	if err != nil || math.Abs(f-1) > 1e-12 {
		t.Errorf("fidelity %v err %v", f, err)
	}
	if _, err := Fidelity(a, Counts{"000": 1}); err == nil {
		t.Error("width mismatch should error")
	}
	if _, err := PST(a, "000"); err == nil {
		t.Error("PST width mismatch should error")
	}
	p, err := PST(Counts{"01": 3, "10": 1}, "01")
	if err != nil || p != 0.75 {
		t.Errorf("PST %v err %v", p, err)
	}
}

func TestTranspileQASM(t *testing.T) {
	src, _ := BernsteinVaziraniQASM("1101")
	out, dur, err := TranspileQASMCtx(context.Background(), src, "carthage")
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Errorf("duration %v", dur)
	}
	for _, forbidden := range []string{"ccx", " h ", "swap"} {
		if strings.Contains(out, forbidden+" q[") {
			t.Errorf("non-basis gate %q survived transpilation", forbidden)
		}
	}
	if !strings.Contains(out, "cx q[") {
		t.Error("no CX in routed circuit")
	}
}

func TestMarginalizeCounts(t *testing.T) {
	c := Counts{"101": 5, "001": 3} // qubit2 qubit1 qubit0
	m, err := MarginalizeCounts(c, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m["01"] != 8 {
		t.Errorf("marginal %v", m)
	}
	if _, err := MarginalizeCounts(c, []int{9}); err == nil {
		t.Error("bad keep list should error")
	}
	if _, err := DataQubits(0); err == nil {
		t.Error("zero width should error")
	}
}

func TestSimulateExact(t *testing.T) {
	src, err := BernsteinVaziraniQASM("101")
	if err != nil {
		t.Fatal(err)
	}
	exact, sampled, err := SimulateExactCtx(context.Background(), src, "auckland", 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	var mass float64
	for _, c := range exact {
		mass += c
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("exact mass %v", mass)
	}
	var shots float64
	for _, c := range sampled {
		shots += c
	}
	if shots != 2000 {
		t.Errorf("sampled shots %v", shots)
	}
	// Zero shots: no sampled map.
	_, none, err := SimulateExactCtx(context.Background(), src, "auckland", 0, 0)
	if err != nil || none != nil {
		t.Errorf("zero-shot: %v %v", none, err)
	}
	// Over-wide circuit rejected.
	wide, _ := BernsteinVaziraniQASM("10110101011")
	if _, _, err := SimulateExactCtx(context.Background(), wide, "galway", 0, 0); err == nil {
		t.Error("over-wide should error")
	}
}
