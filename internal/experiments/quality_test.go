package experiments

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"qbeep/internal/algorithms"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/runledger"
)

// runQualityWorkload executes one tiny deterministic BV workload.
func runQualityWorkload(t *testing.T) *Outcome {
	t.Helper()
	w, err := algorithms.BernsteinVazirani(4, 0b1011)
	if err != nil {
		t.Fatal(err)
	}
	b, err := device.ByName("eldorado")
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig()
	out, err := runWorkload(context.Background(), w, b, 256, 1, cfg.mitigateOptions(), mathx.NewRNG(99), false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunWorkloadEmitsLedgerRecord: with a ledger installed, every
// workload appends one record with the full quality block.
func TestRunWorkloadEmitsLedgerRecord(t *testing.T) {
	resetQualitySamples()
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	f := obs.LedgerFlags{Path: path}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	activeFigure.Store("test-fig")
	out := runQualityWorkload(t)
	activeFigure.Store("")
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	recs, err := runledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 ledger record, got %d", len(recs))
	}
	r := recs[0]
	if r.Tool != "qbeep-experiments" || r.Figure != "test-fig" || r.Backend != "eldorado" {
		t.Fatalf("identity: %+v", r)
	}
	if r.Circuit == "" || r.CircuitHash == "" || r.Lambda <= 0 || r.Shots != 256 {
		t.Fatalf("run metadata: %+v", r)
	}
	q := r.Quality
	if q.HellingerShift <= 0 || q.PosteriorEntropy <= 0 || q.Iterations <= 0 {
		t.Fatalf("quality block: %+v", q)
	}
	if q.PSTRaw <= 0 || q.PSTMitigated <= 0 || q.PSTImprovement <= 0 {
		t.Fatalf("deterministic workload must carry PST: %+v", q)
	}
	if q.SpectrumRef != "expected" || len(q.SpectrumBefore) != 5 || len(q.SpectrumAfter) != 5 {
		t.Fatalf("4-qubit expected-centered spectra: %+v", q)
	}
	if q.SpectrumBefore[0] != q.PSTRaw || q.SpectrumAfter[0] != q.PSTMitigated {
		t.Fatalf("spectrum bin 0 must equal PST: %+v", q)
	}
	if len(out.Trace) != 0 {
		t.Fatal("untracked run grew a trace")
	}
	if mwall, ok := runledger.MetricValue(&r, runledger.MetricMitigateWallS); !ok || mwall <= 0 {
		t.Fatalf("mitigate stage timing missing: %+v", r.Stages)
	}
}

// TestQualitySummaryInReport: workloads feed the per-figure aggregates
// Finalize attaches to the RunReport, ledger or not.
func TestQualitySummaryInReport(t *testing.T) {
	rep := NewRunReport(QuickConfig(), time.Now())
	activeFigure.Store("qtest")
	_ = runQualityWorkload(t)
	_ = runQualityWorkload(t)
	activeFigure.Store("")
	rep.Finalize()

	var found *FigureQuality
	for i := range rep.Quality {
		if rep.Quality[i].Figure == "qtest" {
			found = &rep.Quality[i]
		}
	}
	if found == nil {
		t.Fatalf("no qtest quality group: %+v", rep.Quality)
	}
	if found.N != 2 {
		t.Fatalf("want 2 samples, got %+v", found)
	}
	if found.HellingerShift.Mean <= 0 || found.FidelityMitigated.Mean <= 0 {
		t.Fatalf("aggregates empty: %+v", found)
	}
	if found.PSTImprovement.N != 2 {
		t.Fatalf("deterministic workloads must aggregate PST improvement: %+v", found)
	}
	// Identical seeds: byte-identical workloads, so the spread is zero.
	if found.HellingerShift.Min != found.HellingerShift.Max {
		t.Fatalf("equal seeds must produce identical samples: %+v", found.HellingerShift)
	}
}
