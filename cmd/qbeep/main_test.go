package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"qbeep/internal/obs"
	"qbeep/internal/runledger"
	"qbeep/internal/tracefile"
)

// TestPipelineTraceEndToEnd runs the real pipeline with the -trace
// machinery pointed at a temp file, then analyzes the NDJSON with the
// same library qbeep-trace uses: the whole run must hang off one
// "qbeep.pipeline" root with the mitigation iterations as descendants,
// and the critical path must be rooted there.
func TestPipelineTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	countsPath := filepath.Join(dir, "counts.json")
	// The workload must move both allocation counters on every run. The
	// runtime counts a small allocation (≤ 32 KiB) only when its P's
	// cached span is refilled, and a large one when it is made: a
	// four-string corpus mitigates in well under a millisecond and can
	// finish inside one cached span, reading zero bytes and objects.
	// Every 16-bit string within Hamming distance 3 of zero (697 strings)
	// gives a dense state graph whose CSR rows are large allocations, so
	// the root's deltas always move and the build out-allocates every
	// other span by a wide margin. One P runs every span in sequence on
	// one goroutine: the counters are process-wide, so concurrent scan
	// and Step workers would otherwise double-count into their parents'
	// deltas and make the ranking below depend on scheduling. The CPU
	// delta cannot be made certain (the thread clock advances in
	// scheduler ticks, and a thread migration mixes two threads'
	// clocks), so no assertion rests on it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	counts := map[string]int{}
	for v := 0; v < 1<<16; v++ {
		if bits.OnesCount(uint(v)) <= 3 {
			counts[fmt.Sprintf("%016b", v)] = 1 + v%5
		}
	}
	counts[fmt.Sprintf("%016b", 0)] = 5000
	raw, err := json.Marshal(counts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(countsPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.ndjson")

	// Resources on, as `qbeep -trace` runs by default: the recorded spans
	// must carry CPU/allocation deltas end to end.
	tf := obs.TraceFlags{Path: tracePath, Resources: true}
	stopTrace, err := tf.Start()
	if err != nil {
		t.Fatal(err)
	}
	const iterations = 5
	perr := pipeline(config{
		countsPath: countsPath,
		lambda:     1.4,
		iterations: iterations,
		epsilon:    0.05,
		outPath:    filepath.Join(dir, "out.json"),
	})
	if err := stopTrace(); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	forest, err := tracefile.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(forest.Traces))
	}
	tr := forest.Traces[0]
	root := tr.Root()
	if root == nil || root.Name != "qbeep.pipeline" {
		t.Fatalf("root span = %+v", root)
	}
	if lam, ok := root.Attr("lambda"); !ok || lam != 1.4 {
		t.Fatalf("root lambda attr = %v, %v", lam, ok)
	}

	byName := map[string][]*tracefile.Span{}
	for _, s := range tr.Spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if n := len(byName["core.mitigate"]); n != 1 {
		t.Fatalf("core.mitigate spans = %d, want 1", n)
	}
	iters := byName["core.mitigate.iter"]
	if len(iters) != iterations {
		t.Fatalf("core.mitigate.iter spans = %d, want %d", len(iters), iterations)
	}
	for _, it := range iters {
		if it.Parent == nil || it.Parent.Name != "core.mitigate" {
			t.Fatalf("iteration span parented under %+v", it.Parent)
		}
		if _, ok := it.Attr("flow_moved"); !ok {
			t.Fatalf("iteration span missing flow_moved attr: %+v", it.SpanEvent)
		}
	}

	path := tracefile.CriticalPath(forest.Slowest())
	if len(path) == 0 || path[0].Name != "qbeep.pipeline" {
		t.Fatalf("critical path does not start at the pipeline root: %v", path)
	}

	// Resource attribution rode along: the stream reports resources, the
	// root accumulated allocation deltas (graph build + iterations all
	// allocate), the state-graph build is the run's largest allocator,
	// and the hotspots report renders its resource rankings.
	if !forest.HasResources() {
		t.Fatal("capture-enabled trace carries no resource data")
	}
	if root.AllocBytes == 0 || root.AllocObjects == 0 {
		t.Fatalf("pipeline root has empty alloc deltas: %+v", root.SpanEvent)
	}
	hs := forest.Hotspots()
	sort.Slice(hs, func(i, j int) bool { return hs[i].SelfAllocBytes > hs[j].SelfAllocBytes })
	if hs[0].Name != "core.graph.build" {
		t.Fatalf("largest self-allocator = %s, want core.graph.build: %+v", hs[0].Name, hs)
	}
	var hot strings.Builder
	if err := tracefile.WriteHotspots(&hot, forest, 5); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hotspots by self-CPU", "hotspots by self-allocations", "core.mitigate"} {
		if !strings.Contains(hot.String(), want) {
			t.Fatalf("hotspots report missing %q:\n%s", want, hot.String())
		}
	}
}

// TestPipelineConvergeTolTrace runs the pipeline with a loose -converge-tol
// and verifies the adaptive early exit leaves its evidence in the trace:
// fewer iteration spans than the schedule, a positive iterations_saved on
// the core.mitigate span, and the hotspots summary line.
func TestPipelineConvergeTolTrace(t *testing.T) {
	dir := t.TempDir()
	countsPath := filepath.Join(dir, "counts.json")
	counts := map[string]int{"0101": 3812, "0111": 120, "0001": 88, "1101": 60}
	raw, err := json.Marshal(counts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(countsPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.ndjson")

	tf := obs.TraceFlags{Path: tracePath}
	stopTrace, err := tf.Start()
	if err != nil {
		t.Fatal(err)
	}
	const iterations = 20
	perr := pipeline(config{
		countsPath:  countsPath,
		lambda:      1.4,
		iterations:  iterations,
		epsilon:     0.05,
		convergeTol: 0.05, // loose: this tiny corpus settles within a few steps
		outPath:     filepath.Join(dir, "out.json"),
	})
	if err := stopTrace(); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	forest, err := tracefile.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := forest.Slowest()
	if tr == nil {
		t.Fatal("no trace captured")
	}
	var mitigate *tracefile.Span
	iterSpans := 0
	for _, s := range tr.Spans {
		switch s.Name {
		case "core.mitigate":
			mitigate = s
		case "core.mitigate.iter":
			iterSpans++
		}
	}
	if mitigate == nil {
		t.Fatal("core.mitigate span missing")
	}
	if iterSpans >= iterations {
		t.Fatalf("ran %d iteration spans, expected an early exit below %d", iterSpans, iterations)
	}
	saved, ok := mitigate.Attr("iterations_saved")
	if !ok {
		t.Fatalf("core.mitigate missing iterations_saved attr: %+v", mitigate.SpanEvent)
	}
	if n, isNum := saved.(float64); !isNum || int(n) != iterations-iterSpans {
		t.Fatalf("iterations_saved = %v, want %d", saved, iterations-iterSpans)
	}
	if total, spans := forest.IterationsSaved(); total != int64(iterations-iterSpans) || spans == 0 {
		t.Fatalf("forest.IterationsSaved() = %d/%d", total, spans)
	}
	var hot strings.Builder
	if err := tracefile.WriteHotspots(&hot, forest, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hot.String(), "adaptive early exit:") {
		t.Fatalf("hotspots report missing early-exit summary:\n%s", hot.String())
	}
}

// TestPipelineRunLedger runs the pipeline with a run ledger installed
// and checks the appended record: identity from buildinfo, the staged
// wall clocks, and the OnQuality block the mitigation loop delivered.
func TestPipelineRunLedger(t *testing.T) {
	dir := t.TempDir()
	countsPath := filepath.Join(dir, "counts.json")
	counts := map[string]int{"0101": 3812, "0111": 120, "0001": 88, "1101": 60}
	raw, err := json.Marshal(counts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(countsPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ledgerPath := filepath.Join(dir, "ledger.ndjson")

	lf := obs.LedgerFlags{Path: ledgerPath}
	stopLedger, err := lf.Start()
	if err != nil {
		t.Fatal(err)
	}
	perr := pipeline(config{
		countsPath: countsPath,
		lambda:     1.4,
		iterations: 5,
		epsilon:    0.05,
		outPath:    filepath.Join(dir, "out.json"),
	})
	if err := stopLedger(); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}

	recs, err := runledger.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d ledger records, want 1", len(recs))
	}
	r := recs[0]
	if r.Tool != "qbeep" || r.Lambda != 1.4 || r.Circuit != "counts.json" {
		t.Fatalf("record identity: %+v", r)
	}
	if r.CircuitHash == "" || r.Time == "" || r.GoVersion == "" {
		t.Fatalf("record stamps: %+v", r)
	}
	if r.Shots != 4080 {
		t.Fatalf("shots = %v, want the summed counts 4080", r.Shots)
	}
	stages := map[string]bool{}
	for _, s := range r.Stages {
		stages[s.Name] = true
	}
	if !stages["load"] || !stages["mitigate"] || stages["estimate"] {
		t.Fatalf("stages = %+v (want load+mitigate, no estimate for -lambda runs)", r.Stages)
	}
	q := r.Quality
	if q.HellingerShift <= 0 || q.PosteriorEntropy <= 0 || q.Iterations != 5 {
		t.Fatalf("quality block: %+v", q)
	}
	// No ground truth on this path: the spectrum centers on the mode.
	if q.SpectrumRef != "mode" || len(q.SpectrumBefore) != 5 || len(q.SpectrumAfter) != 5 {
		t.Fatalf("spectra: %+v", q)
	}
	if q.FidelityRaw != 0 || q.PSTRaw != 0 {
		t.Fatalf("ground-truth fields must stay empty: %+v", q)
	}
}

// TestPipelineLambdaFromQASM covers the estimation path: with no -lambda
// the pipeline parses the circuit, estimates λ on the named backend, and
// the parse/transpile spans join the same trace.
func TestPipelineLambdaFromQASM(t *testing.T) {
	dir := t.TempDir()
	countsPath := filepath.Join(dir, "counts.json")
	if err := os.WriteFile(countsPath, []byte(`{"00": 900, "01": 60, "10": 40}`), 0o644); err != nil {
		t.Fatal(err)
	}
	qasmPath := filepath.Join(dir, "bell.qasm")
	const src = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`
	if err := os.WriteFile(qasmPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.ndjson")

	tf := obs.TraceFlags{Path: tracePath}
	stopTrace, err := tf.Start()
	if err != nil {
		t.Fatal(err)
	}
	perr := pipeline(config{
		countsPath: countsPath,
		lambda:     -1,
		qasmPath:   qasmPath,
		backend:    "istanbul",
		iterations: 2,
		epsilon:    0.05,
		outPath:    filepath.Join(dir, "out.json"),
	})
	if err := stopTrace(); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	forest, err := tracefile.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := forest.Slowest()
	if tr == nil {
		t.Fatal("no trace captured")
	}
	seen := map[string]bool{}
	for _, s := range tr.Spans {
		seen[s.Name] = true
	}
	for _, want := range []string{"qbeep.pipeline", "qasm.parse", "transpile", "core.mitigate"} {
		if !seen[want] {
			t.Fatalf("trace missing span %q (have %v)", want, seen)
		}
	}
}

// TestPipelineLedgerJoinsTrace runs the estimate path with both -trace
// and -run-ledger: the record carries the pipeline's trace ID, and every
// ledger stage's wall_s is exactly the duration of the span covering it
// ("qbeep.load", "qbeep.estimate", "qbeep.mitigate") — trace and ledger
// read one clock.
func TestPipelineLedgerJoinsTrace(t *testing.T) {
	dir := t.TempDir()
	countsPath := filepath.Join(dir, "counts.json")
	if err := os.WriteFile(countsPath, []byte(`{"00": 900, "01": 60, "10": 40}`), 0o644); err != nil {
		t.Fatal(err)
	}
	qasmPath := filepath.Join(dir, "bell.qasm")
	const src = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`
	if err := os.WriteFile(qasmPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.ndjson")
	ledgerPath := filepath.Join(dir, "ledger.ndjson")
	tf := obs.TraceFlags{Path: tracePath}
	stopTrace, err := tf.Start()
	if err != nil {
		t.Fatal(err)
	}
	lf := obs.LedgerFlags{Path: ledgerPath}
	stopLedger, err := lf.Start()
	if err != nil {
		stopTrace()
		t.Fatal(err)
	}
	perr := pipeline(config{
		countsPath: countsPath,
		lambda:     -1,
		qasmPath:   qasmPath,
		backend:    "istanbul",
		iterations: 3,
		epsilon:    0.05,
		outPath:    filepath.Join(dir, "out.json"),
	})
	if err := stopTrace(); err != nil {
		t.Fatal(err)
	}
	if err := stopLedger(); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	forest, err := tracefile.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(forest.Traces))
	}
	tr := forest.Traces[0]
	byName := map[string]*tracefile.Span{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	recs, err := runledger.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d ledger records, want 1", len(recs))
	}
	r := recs[0]
	if root := tr.Root(); root == nil || r.TraceID == 0 || r.TraceID != root.TraceID {
		t.Fatalf("record trace %d does not join the pipeline trace (root %+v)", r.TraceID, root)
	}
	if len(r.Stages) != 3 {
		t.Fatalf("stages = %+v, want load, estimate, mitigate", r.Stages)
	}
	for _, st := range r.Stages {
		sp := byName["qbeep."+st.Name]
		if sp == nil || sp.Parent == nil || sp.Parent.Name != "qbeep.pipeline" {
			t.Fatalf("stage %q has no span under qbeep.pipeline: %+v", st.Name, sp)
		}
		if want := sp.Duration.Seconds(); st.WallS != want {
			t.Errorf("stage %q wall_s = %v, span says %v", st.Name, st.WallS, want)
		}
	}
}
