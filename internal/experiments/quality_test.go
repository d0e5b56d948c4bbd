package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qbeep/internal/algorithms"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/runledger"
)

// runQualityWorkload executes one tiny deterministic BV workload.
func runQualityWorkload(t *testing.T) *Outcome {
	t.Helper()
	return runQualityWorkloadCtx(t, context.Background())
}

// runQualityWorkloadCtx is runQualityWorkload under the span in ctx.
func runQualityWorkloadCtx(t *testing.T, ctx context.Context) *Outcome {
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
	out, err := runWorkload(ctx, w, b, 256, cfg.mitigateOptions(), mathx.NewRNG(99), false)
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

// TestLedgerCarriesLoopQuality: on a workload with no single correct
// answer, the ledger record's iteration count, convergence flag and
// spectra are exactly the mitigation loop's quality block.
func TestLedgerCarriesLoopQuality(t *testing.T) {
	resetQualitySamples()
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	f := obs.LedgerFlags{Path: path}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	w, err := algorithms.CatState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := device.ByName("eldorado")
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig()
	opts := cfg.mitigateOptions()
	opts.ConvergeTol = 0.5 // trips on the first iteration
	out, err := runWorkload(context.Background(), w, b, 256, opts, mathx.NewRNG(99), false)
	if err != nil {
		t.Fatal(err)
	}
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
	// The loop is deterministic: rerunning it on the same counts and λ
	// reproduces the block runWorkload handed to the ledger.
	var loop runledger.Quality
	opts.OnQuality = func(q runledger.Quality) { loop = q }
	if _, err := core.MitigateCtx(context.Background(), out.Raw, out.Lambda.Lambda(), opts); err != nil {
		t.Fatal(err)
	}
	if !loop.Converged || loop.Iterations >= opts.Iterations || loop.SpectrumRef != "mode" {
		t.Fatalf("fixture must converge early on a mode-centered run: %+v", loop)
	}
	got := recs[0].Quality
	if got.Iterations != loop.Iterations || got.Converged != loop.Converged || got.SpectrumRef != loop.SpectrumRef ||
		!reflect.DeepEqual(got.SpectrumBefore, loop.SpectrumBefore) || !reflect.DeepEqual(got.SpectrumAfter, loop.SpectrumAfter) {
		t.Fatalf("ledger quality %+v lost the loop's %+v", got, loop)
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

// TestWorkloadLedgerJoinsTrace: run through RunFigure under a traced
// "qbeep.experiments" root, a workload's ledger record carries the root's
// trace ID and the figure tag, its mitigate stage's wall_s is exactly the
// "experiments.mitigate" span's duration, and the report entry's elapsed
// time is exactly the "experiments.figure" span's.
func TestWorkloadLedgerJoinsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.ndjson")
	f := obs.LedgerFlags{Path: path}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	var sink obs.CollectorSink
	obs.SetSpanSink(&sink)
	defer obs.SetSpanSink(nil)
	ctx, root := obs.Start(context.Background(), "qbeep.experiments")
	rep := NewRunReport(QuickConfig(), time.Now())
	ferr := rep.RunFigure(ctx, "join", func(ctx context.Context) error {
		runQualityWorkloadCtx(t, ctx)
		return nil
	})
	root.End()
	obs.SetSpanSink(nil)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}

	spans := map[string][]obs.SpanEvent{}
	for _, e := range sink.Events() {
		spans[e.Name] = append(spans[e.Name], e)
	}
	for _, name := range []string{"qbeep.experiments", "experiments.figure", "experiments.workload", "experiments.mitigate"} {
		if len(spans[name]) != 1 {
			t.Fatalf("%d %q spans, want 1", len(spans[name]), name)
		}
	}
	traceID := spans["qbeep.experiments"][0].TraceID
	recs, err := runledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 ledger record, got %d", len(recs))
	}
	r := recs[0]
	if r.TraceID == 0 || r.TraceID != traceID || r.Figure != "join" {
		t.Fatalf("record trace %d figure %q; want trace %d figure \"join\"", r.TraceID, r.Figure, traceID)
	}
	mwall, ok := runledger.MetricValue(&r, runledger.MetricMitigateWallS)
	if want := spans["experiments.mitigate"][0].Duration.Seconds(); !ok || mwall != want {
		t.Fatalf("mitigate wall_s = %v, span says %v", mwall, want)
	}
	if len(rep.Figures) != 1 || rep.Figures[0].ElapsedNS != spans["experiments.figure"][0].Duration.Nanoseconds() {
		t.Fatalf("report figures %+v disagree with the figure span %v", rep.Figures, spans["experiments.figure"][0].Duration)
	}
}
