package benchparse

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseFixture(t *testing.T, name string) (*Output, error) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return Parse(f)
}

func TestParseBenchmem(t *testing.T) {
	out, err := parseFixture(t, "bench_benchmem.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(out.Results))
	}
	if out.Go != "linux/amd64" || !strings.Contains(out.CPU, "Xeon") {
		t.Fatalf("metadata = %q / %q", out.Go, out.CPU)
	}
	run, ok := out.Find("BenchmarkRun")
	if !ok {
		t.Fatal("BenchmarkRun missing (GOMAXPROCS suffix not stripped?)")
	}
	if run.Iterations != 902 || run.NsOp != 1180190 || run.BOp != 361829 || run.AllocsOp != 107 {
		t.Fatalf("BenchmarkRun = %+v", run)
	}
	// A genuine zero-allocation result parses as 0, not as "not measured".
	probs, _ := out.Find("BenchmarkProbabilitiesInto")
	if probs.BOp != 0 || probs.AllocsOp != 0 {
		t.Fatalf("BenchmarkProbabilitiesInto = %+v", probs)
	}
}

func TestParseNoBenchmem(t *testing.T) {
	out, err := parseFixture(t, "bench_nobenchmem.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(out.Results))
	}
	// Sub-benchmark paths survive; only the -P suffix is stripped.
	sub, ok := out.Find("BenchmarkBuildStateGraph/V4096/lambda1")
	if !ok {
		t.Fatalf("sub-benchmark name mangled; got %+v", out.Results)
	}
	if sub.NsOp != 7892534 {
		t.Fatalf("sub-benchmark ns/op = %v", sub.NsOp)
	}
	// Without -benchmem the memory columns are "not measured", not zero.
	if sub.BOp != -1 || sub.AllocsOp != -1 {
		t.Fatalf("missing -benchmem should read -1/-1, got %d/%d", sub.BOp, sub.AllocsOp)
	}
}

func TestParseFailedBuild(t *testing.T) {
	_, err := parseFixture(t, "bench_failedbuild.txt")
	if err == nil || !strings.Contains(err.Error(), "build failed") {
		t.Fatalf("failed-build transcript accepted: %v", err)
	}
}

func TestParseFailVerdict(t *testing.T) {
	const transcript = "BenchmarkX-4 \t 10 \t 100 ns/op\n--- FAIL: TestBroken\nFAIL\n"
	if _, err := Parse(strings.NewReader(transcript)); err == nil {
		t.Fatal("FAIL verdict accepted")
	}
}

func TestStripProcSuffix(t *testing.T) {
	type split struct {
		name  string
		procs int
	}
	cases := map[string]split{
		"BenchmarkRun-4":                      {"BenchmarkRun", 4},
		"BenchmarkRun-128":                    {"BenchmarkRun", 128},
		"BenchmarkRun":                        {"BenchmarkRun", 1},
		"BenchmarkBuild/V512/lambda1-4":       {"BenchmarkBuild/V512/lambda1", 4},
		"BenchmarkForEachTinyTasks/workers1":  {"BenchmarkForEachTinyTasks/workers1", 1},
		"BenchmarkOdd-name":                   {"BenchmarkOdd-name", 1},
		"BenchmarkForEachTinyTasks/workers-4": {"BenchmarkForEachTinyTasks/workers", 4},
	}
	for in, want := range cases {
		if name, procs := splitProcSuffix(in); name != want.name || procs != want.procs {
			t.Errorf("splitProcSuffix(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

// TestProcsRecordedPerRow: the GOMAXPROCS suffix becomes Result.Procs,
// a transcript at one setting yields it, and a mixed one (-cpu 1,2) is
// refused rather than averaged into one row.
func TestProcsRecordedPerRow(t *testing.T) {
	const one = "BenchmarkStep \t 10 \t 100 ns/op\nBenchmarkRun \t 10 \t 200 ns/op\n"
	const two = "BenchmarkStep-2 \t 10 \t 60 ns/op\nBenchmarkRun-2 \t 10 \t 120 ns/op\n"
	for _, c := range []struct {
		transcript string
		procs      int
		ok         bool
	}{{one, 1, true}, {two, 2, true}, {one + two, 0, false}} {
		out, err := Parse(strings.NewReader(c.transcript))
		if err != nil {
			t.Fatal(err)
		}
		procs, err := Procs(out.Results)
		if (err == nil) != c.ok || procs != c.procs {
			t.Fatalf("Procs = %d, %v; want %d (ok=%v)", procs, err, c.procs, c.ok)
		}
	}
}

func TestRatios(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkRun", NsOp: 1000},
		{Name: "BenchmarkNaiveRun", NsOp: 3650},
		{Name: "BenchmarkProbabilitiesInto", NsOp: 10, AllocsOp: 0},
		{Name: "BenchmarkStateGraphStep/V4096/lambda1", NsOp: 5, AllocsOp: -1},
	}
	r := Ratios(results)
	if math.Abs(r["fused_speedup_vs_naive"]-3.65) > 1e-9 {
		t.Fatalf("fused ratio = %v", r["fused_speedup_vs_naive"])
	}
	if v, ok := r["probabilities_into_allocs_per_op"]; !ok || v != 0 {
		t.Fatalf("alloc invariant = %v (present=%v)", v, ok)
	}
	// Step ran without -benchmem: its alloc invariant must not report 0.
	if _, ok := r["step_allocs_per_op"]; ok {
		t.Fatal("unmeasured alloc invariant reported")
	}
	// Brute benchmarks absent: no build ratio.
	if _, ok := r["build_speedup_vs_brute_V4096_lambda1"]; ok {
		t.Fatal("ratio reported with missing benchmarks")
	}
}

func TestRatiosScaleKeys(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkMitigate/V1e5", NsOp: 4.2e9},
		{Name: "BenchmarkMitigate/V1e5_topk8", NsOp: 1.4e9},
		{Name: "BenchmarkMitigate/V1e6", NsOp: 3.75e9},
		{Name: "BenchmarkBuildStateGraph/V4096/lambda1", NsOp: 5e6, AllocsOp: 29},
	}
	r := Ratios(results)
	if math.Abs(r["mitigate_topk_speedup_v1e5"]-3.0) > 1e-9 {
		t.Fatalf("topk speedup = %v", r["mitigate_topk_speedup_v1e5"])
	}
	// Budgets convert ns/op to seconds.
	if math.Abs(r["mitigate_v1e6_seconds"]-3.75) > 1e-9 {
		t.Fatalf("v1e6 budget = %v", r["mitigate_v1e6_seconds"])
	}
	if v, ok := r["build_allocs_v4096_lambda1"]; !ok || v != 29 {
		t.Fatalf("build alloc invariant = %v (present=%v)", v, ok)
	}
}

func TestCompareBudgetCeiling(t *testing.T) {
	base := &Baseline{Derived: map[string]float64{
		"mitigate_v1e6_seconds":      9.0,
		"build_allocs_v4096_lambda1": 64,
	}}
	within := []Result{
		{Name: "BenchmarkMitigate/V1e6", NsOp: 3.8e9},
		{Name: "BenchmarkBuildStateGraph/V4096/lambda1", NsOp: 5e6, AllocsOp: 31},
	}
	for _, f := range Compare(base, within, 0.25) {
		if f.Regression {
			t.Fatalf("within-budget run flagged: %+v", f)
		}
	}
	// Budgets are absolute ceilings: no threshold slack on the way up.
	over := []Result{
		{Name: "BenchmarkMitigate/V1e6", NsOp: 9.3e9},
		{Name: "BenchmarkBuildStateGraph/V4096/lambda1", NsOp: 5e6, AllocsOp: 140},
	}
	findings := Compare(base, over, 0.25)
	if len(findings) != 2 {
		t.Fatalf("findings = %+v", findings)
	}
	for _, f := range findings {
		if !f.Regression {
			t.Fatalf("blown ceiling not flagged: %+v", f)
		}
	}
}

func TestCompareFlagsSyntheticRegression(t *testing.T) {
	base := &Baseline{Derived: map[string]float64{
		"fused_speedup_vs_naive":           3.65,
		"probabilities_into_allocs_per_op": 0,
	}}
	healthy := []Result{
		{Name: "BenchmarkRun", NsOp: 1000},
		{Name: "BenchmarkNaiveRun", NsOp: 3500},
		{Name: "BenchmarkProbabilitiesInto", NsOp: 10, AllocsOp: 0},
	}
	for _, f := range Compare(base, healthy, 0.25) {
		if f.Regression {
			t.Fatalf("healthy run flagged: %+v", f)
		}
	}
	// Injected regression: fusion win collapses to 1.2×.
	regressed := []Result{
		{Name: "BenchmarkRun", NsOp: 3000},
		{Name: "BenchmarkNaiveRun", NsOp: 3600},
		{Name: "BenchmarkProbabilitiesInto", NsOp: 10, AllocsOp: 0},
	}
	findings := Compare(base, regressed, 0.25)
	hit := false
	for _, f := range findings {
		if f.Key == "fused_speedup_vs_naive" {
			hit = f.Regression
		}
	}
	if !hit {
		t.Fatalf("collapsed fusion ratio not flagged: %+v", findings)
	}
	// An allocation creeping into a pinned-zero hot loop always gates.
	leaky := []Result{{Name: "BenchmarkProbabilitiesInto", NsOp: 10, AllocsOp: 2}}
	findings = Compare(base, leaky, 0.25)
	if len(findings) != 1 || !findings[0].Regression {
		t.Fatalf("alloc leak not flagged: %+v", findings)
	}
}

func TestCompareThreshold(t *testing.T) {
	base := &Baseline{Derived: map[string]float64{"fused_speedup_vs_naive": 4.0}}
	results := []Result{
		{Name: "BenchmarkRun", NsOp: 1000},
		{Name: "BenchmarkNaiveRun", NsOp: 3200}, // ratio 3.2 = baseline − 20%
	}
	if f := Compare(base, results, 0.25); f[0].Regression {
		t.Fatalf("within-threshold drop flagged: %+v", f)
	}
	if f := Compare(base, results, 0.10); !f[0].Regression {
		t.Fatalf("past-threshold drop not flagged: %+v", f)
	}
}

func TestBaselinesParseAndRecompute(t *testing.T) {
	// The checked-in baselines must parse under the unified schema, and
	// their derived keys must be consistent with what Ratios recomputes
	// from their own entries — the files cannot drift from the
	// definitions. Speedup ratios must match exactly; alloc invariants
	// and wall-clock budgets are ceilings (the recorded value may carry
	// headroom over the measurement), so the recomputed value must only
	// stay at or under them.
	for _, path := range []string{"../../BENCH_core.json", "../../BENCH_sim.json"} {
		base, err := LoadBaseline(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(base.Benchmarks) == 0 || len(base.Derived) == 0 {
			t.Fatalf("%s: empty baseline", path)
		}
		results := make([]Result, 0, len(base.Benchmarks))
		for _, e := range base.Benchmarks {
			results = append(results, Result{Name: e.Name, NsOp: e.NsOp, BOp: e.BOp, AllocsOp: e.AllocsOp})
		}
		recomputed := Ratios(results)
		for key, want := range base.Derived {
			got, ok := recomputed[key]
			if !ok {
				t.Errorf("%s: derived %q not recomputable from its own entries", path, key)
				continue
			}
			_, isAlloc := KnownAllocInvariants[key]
			_, isBudget := KnownBudgets[key]
			if isAlloc || isBudget {
				if got > want {
					t.Errorf("%s: ceiling %q = %v exceeded by its own entries (%v)", path, key, want, got)
				}
				continue
			}
			if math.Abs(got-want) > 0.01+1e-9 {
				t.Errorf("%s: derived %q = %v, recomputed %v", path, key, want, got)
			}
		}
	}
}

func TestTrajectoryAppendIdempotentAndOrdered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	tr, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 0 {
		t.Fatalf("missing file should load empty, got %d rows", len(tr.Rows))
	}
	row := func(commit, date, suite string, ns float64) Row {
		return Row{Commit: commit, Date: date, Suite: suite,
			Benchmarks: []Entry{{Name: "BenchmarkRun", NsOp: ns}}}
	}
	// Out-of-order appends...
	tr.Append(row("bbb", "2026-08-07", "sim", 1200))
	tr.Append(row("aaa", "2026-08-05", "sim", 1180))
	tr.Append(row("aaa", "2026-08-05", "core", 540))
	// ...and a re-run at an existing (commit, suite) replaces, not duplicates.
	tr.Append(row("bbb", "2026-08-07", "sim", 1190))
	// The same commit and suite at another GOMAXPROCS is a row of its own,
	// ordered after the lower core count.
	two := row("aaa", "2026-08-05", "core", 300)
	two.GOMAXPROCS = 2
	tr.Append(two)
	tr.Append(two)
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 4 {
		t.Fatalf("got %d rows, want 4: %+v", len(back.Rows), back.Rows)
	}
	wantOrder := []string{"core/aaa/0", "core/aaa/2", "sim/aaa/0", "sim/bbb/0"}
	for i, w := range wantOrder {
		r := back.Rows[i]
		got := fmt.Sprintf("%s/%s/%d", r.Suite, r.Commit, r.GOMAXPROCS)
		if got != w {
			t.Fatalf("row %d = %s, want %s (rows %+v)", i, got, w, back.Rows)
		}
	}
	if back.Rows[3].Benchmarks[0].NsOp != 1190 {
		t.Fatalf("re-append did not replace: %+v", back.Rows[3])
	}
}
