package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qbeep/internal/benchparse"
)

// healthyTranscript reproduces the sim baseline's ratios (fused ≈ 3.65×
// naive); regressedTranscript collapses the fusion win to ≈ 1.2×.
const healthyTranscript = `goos: linux
goarch: amd64
cpu: Test CPU
BenchmarkRun-4               	     902	   1180190 ns/op	  361829 B/op	     107 allocs/op
BenchmarkRunUnfused-4        	     524	   2194326 ns/op	  345892 B/op	     187 allocs/op
BenchmarkNaiveRun-4          	     278	   4307752 ns/op	  262195 B/op	       2 allocs/op
BenchmarkProbabilitiesInto-4 	  112064	     10631 ns/op	       0 B/op	       0 allocs/op
PASS
`

const regressedTranscript = `goos: linux
goarch: amd64
cpu: Test CPU
BenchmarkRun-4               	     300	   3580000 ns/op	  361829 B/op	     107 allocs/op
BenchmarkRunUnfused-4        	     524	   2194326 ns/op	  345892 B/op	     187 allocs/op
BenchmarkNaiveRun-4          	     278	   4307752 ns/op	  262195 B/op	       2 allocs/op
BenchmarkProbabilitiesInto-4 	  112064	     10631 ns/op	       0 B/op	       0 allocs/op
PASS
`

// setup writes a transcript and the real BENCH_sim.json baseline into a
// temp dir and returns (dir, transcriptPath).
func setup(t *testing.T, transcript string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(transcript), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_sim.json"), base, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, in
}

func TestCompareHealthyPasses(t *testing.T) {
	dir, in := setup(t, healthyTranscript)
	var out bytes.Buffer
	err := run([]string{
		"-suites", "sim", "-input", in, "-compare",
		"-baseline-dir", dir, "-trajectory", "",
		"-commit", "test", "-date", "2026-08-08",
	}, &out)
	if err != nil {
		t.Fatalf("healthy compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fused_speedup_vs_naive") {
		t.Fatalf("compare output missing ratio lines:\n%s", out.String())
	}
}

// TestCompareSyntheticRegressionExitsNonZero is the gate's acceptance
// check: an injected fusion-ratio collapse must fail the run (main turns
// the error into exit status 1).
func TestCompareSyntheticRegressionExitsNonZero(t *testing.T) {
	dir, in := setup(t, regressedTranscript)
	var out bytes.Buffer
	err := run([]string{
		"-suites", "sim", "-input", in, "-compare",
		"-baseline-dir", dir, "-trajectory", "",
		"-commit", "test", "-date", "2026-08-08",
	}, &out)
	if err == nil {
		t.Fatalf("regressed compare passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "sim/fused_speedup_vs_naive") {
		t.Fatalf("error does not name the regressed invariant: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("compare output missing verdict:\n%s", out.String())
	}
}

func TestTrajectoryRecording(t *testing.T) {
	dir, in := setup(t, healthyTranscript)
	traj := filepath.Join(dir, "BENCH_trajectory.json")
	args := []string{
		"-suites", "sim", "-input", in,
		"-baseline-dir", dir, "-trajectory", traj,
		"-commit", "abc123", "-date", "2026-08-08",
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	// Re-running at the same commit replaces the row, not duplicates it.
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	tr, err := benchparse.LoadTrajectory(traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(tr.Rows))
	}
	row := tr.Rows[0]
	if row.Commit != "abc123" || row.Suite != "sim" || row.Date != "2026-08-08" || row.GOMAXPROCS != 4 {
		t.Fatalf("row = %+v", row)
	}
	if len(row.Benchmarks) != 4 || row.Derived["fused_speedup_vs_naive"] == 0 {
		t.Fatalf("row content = %+v", row)
	}
}

// TestMissingTrajectoryRowWarns: gate-only runs (-trajectory ”) warn
// when the checked-in trajectory lacks a row for the current commit,
// and stay quiet once the row exists.
func TestMissingTrajectoryRowWarns(t *testing.T) {
	dir, in := setup(t, healthyTranscript)
	gateArgs := []string{
		"-suites", "sim", "-input", in, "-compare",
		"-baseline-dir", dir, "-trajectory", "",
		"-commit", "abc123", "-date", "2026-08-08",
	}
	var out bytes.Buffer
	if err := run(gateArgs, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no") || !strings.Contains(out.String(), "row for commit abc123") {
		t.Fatalf("expected missing-row warning:\n%s", out.String())
	}

	// Record a row at that commit, then the warning disappears.
	var rec bytes.Buffer
	if err := run([]string{
		"-suites", "sim", "-input", in,
		"-baseline-dir", dir, "-trajectory", filepath.Join(dir, "BENCH_trajectory.json"),
		"-commit", "abc123", "-date", "2026-08-08",
	}, &rec); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(gateArgs, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "row for commit abc123") {
		t.Fatalf("warning persisted after recording:\n%s", out.String())
	}
}

func TestBadInvocations(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-suites", "nope", "-trajectory", ""}, &out); err == nil {
		t.Fatal("unknown suite accepted")
	}
	if err := run([]string{"-suites", "core,sim", "-input", "x.txt"}, &out); err == nil {
		t.Fatal("-input with two suites accepted")
	}
	if err := run([]string{"-suites", "sim", "-threshold", "1.5"}, &out); err == nil {
		t.Fatal("threshold 1.5 accepted")
	}
	if err := run([]string{"-version"}, &out); err != nil || !strings.Contains(out.String(), "qbeep-bench version") {
		t.Fatalf("-version: %v, %q", err, out.String())
	}
}
