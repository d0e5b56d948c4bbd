// Command qbeep-bench is the benchmark trajectory harness: it runs the
// repo's bench suites (the same selections as `make bench-core` /
// `make bench-sim`), parses the `go test -bench` output, appends one row
// per suite to BENCH_trajectory.json, and — with -compare — recomputes
// the derived ratio invariants (fused/naive, engine/brute, zero-alloc
// hot loops) against the BENCH_<suite>.json baselines, exiting non-zero
// when one regresses past -threshold:
//
//	qbeep-bench -suites core,sim                 # record a trajectory row
//	qbeep-bench -suites sim -compare             # gate against BENCH_sim.json
//	qbeep-bench -suites sim -input bench.txt ... # parse a saved transcript
//
// Ratios gate instead of absolute ns/op because they cancel machine
// speed: a shared CI runner moves every benchmark together, leaving the
// engine-vs-reference quotients stable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"qbeep/internal/benchparse"
	"qbeep/internal/buildinfo"
)

// suiteCmd is one `go test -bench` invocation of a suite.
type suiteCmd struct {
	pkg   string
	bench string
}

// suites mirrors the Makefile's bench-core / bench-sim selections; the
// Makefile stays the human entry point, this map the machine one.
var suites = map[string][]suiteCmd{
	"core": {
		{pkg: "./internal/core", bench: "StateGraph|BenchmarkMitigate$"},
		{pkg: "./internal/par", bench: "ForEachTinyTasks"},
	},
	"sim": {
		{pkg: "./internal/statevector", bench: "BenchmarkRun$|BenchmarkRunProgram$|BenchmarkRunUnfused$|BenchmarkNaiveRun$|BenchmarkProbabilitiesInto$"},
		{pkg: "./internal/densitymatrix", bench: "BenchmarkDensityEvolve$"},
	},
	// smoke mirrors bench-smoke: record-only (no BENCH_smoke.json
	// baseline, so -compare on it fails honestly on the missing file).
	"smoke": {
		{pkg: ".", bench: "BenchmarkMitigateThroughput"},
	},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qbeep-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qbeep-bench", flag.ContinueOnError)
	var (
		suitesFlag  = fs.String("suites", "core,sim", "comma-separated bench suites to run (core, sim)")
		input       = fs.String("input", "", "parse this saved transcript instead of running (requires a single -suites entry)")
		commit      = fs.String("commit", "", "commit recorded in trajectory rows (default: build VCS revision)")
		date        = fs.String("date", "", "date recorded in trajectory rows, YYYY-MM-DD (default: today)")
		trajectory  = fs.String("trajectory", "BENCH_trajectory.json", "trajectory file to append to ('' disables)")
		compare     = fs.Bool("compare", false, "gate derived ratios against BENCH_<suite>.json baselines")
		baselineDir = fs.String("baseline-dir", ".", "directory holding the BENCH_<suite>.json baselines")
		threshold   = fs.Float64("threshold", 0.25, "allowed fractional drop in a speedup ratio before -compare fails")
		benchtime   = fs.String("benchtime", "", "forwarded to go test -benchtime (e.g. 1x, 100ms)")
		version     = buildinfo.AddVersionFlag(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.Summary("qbeep-bench"))
		return nil
	}
	names := splitSuites(*suitesFlag)
	if len(names) == 0 {
		return fmt.Errorf("no suites selected")
	}
	if *input != "" && len(names) != 1 {
		return fmt.Errorf("-input labels one suite; got -suites %q", *suitesFlag)
	}
	if *commit == "" {
		*commit = buildinfo.Read().ShortRevision()
	}
	if *date == "" {
		*date = time.Now().UTC().Format("2006-01-02")
	}
	if *threshold < 0 || *threshold >= 1 {
		return fmt.Errorf("threshold %v outside [0,1)", *threshold)
	}

	var regressed []string
	for _, name := range names {
		cmds, ok := suites[name]
		if !ok {
			known := make([]string, 0, len(suites))
			for k := range suites {
				known = append(known, k)
			}
			sort.Strings(known)
			return fmt.Errorf("unknown suite %q (have %s)", name, strings.Join(known, ", "))
		}
		parsed, err := collect(name, cmds, *input, *benchtime, out)
		if err != nil {
			return err
		}
		derived := benchparse.Ratios(parsed.Results)
		printSuite(out, name, parsed, derived)

		if *trajectory != "" {
			procs, err := benchparse.Procs(parsed.Results)
			if err != nil {
				return fmt.Errorf("suite %s: %w", name, err)
			}
			row := benchparse.Row{
				Commit:     *commit,
				Date:       *date,
				Suite:      name,
				GOMAXPROCS: procs,
				Go:         parsed.Go,
				CPU:        parsed.CPU,
				Benchmarks: benchparse.EntriesFromResults(parsed.Results),
				Derived:    derived,
			}
			if err := appendRow(*trajectory, row); err != nil {
				return err
			}
			fmt.Fprintf(out, "recorded %s@%s (GOMAXPROCS=%d) into %s\n", name, *commit, procs, *trajectory)
		}

		if *compare {
			basePath := filepath.Join(*baselineDir, "BENCH_"+name+".json")
			base, err := benchparse.LoadBaseline(basePath)
			if err != nil {
				return err
			}
			findings := benchparse.Compare(base, parsed.Results, *threshold)
			if len(findings) == 0 {
				return fmt.Errorf("suite %s: no derived invariant of %s was measurable — ran the wrong benchmarks?", name, basePath)
			}
			for _, f := range findings {
				verdict := "ok"
				if f.Regression {
					verdict = "REGRESSION"
					regressed = append(regressed, fmt.Sprintf("%s/%s", name, f.Key))
				}
				fmt.Fprintf(out, "compare %-40s baseline %8.2f  current %8.2f  %s\n",
					name+"/"+f.Key, f.Baseline, f.Current, verdict)
			}
		}
	}
	if *trajectory == "" {
		// Gate-only runs skip recording; remind the operator when the
		// checked-in trajectory has no row for this tree, so the history
		// BENCH_trajectory.json tells stays gap-free (make bench-record).
		warnMissingTrajectoryRows(out, filepath.Join(*baselineDir, "BENCH_trajectory.json"), names, *commit)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d invariant(s) regressed past threshold: %s",
			len(regressed), strings.Join(regressed, ", "))
	}
	return nil
}

// warnMissingTrajectoryRows prints one warning per selected suite that
// has no trajectory row at commit. Purely advisory: the gate's verdict
// is unaffected, and an unreadable trajectory only warns once.
func warnMissingTrajectoryRows(out io.Writer, path string, suiteNames []string, commit string) {
	tr, err := benchparse.LoadTrajectory(path)
	if err != nil {
		fmt.Fprintf(out, "warning: cannot read %s: %v\n", path, err)
		return
	}
	have := map[string]bool{}
	for _, r := range tr.Rows {
		if r.Commit == commit {
			have[r.Suite] = true
		}
	}
	for _, name := range suiteNames {
		if !have[name] {
			fmt.Fprintf(out, "warning: %s has no %s row for commit %s — run `make bench-record` to keep the trajectory current\n",
				path, name, commit)
		}
	}
}

// collect produces one suite's parsed results, either from a saved
// transcript or by running the suite's go test invocations.
func collect(name string, cmds []suiteCmd, input, benchtime string, out io.Writer) (*benchparse.Output, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return benchparse.Parse(f)
	}
	merged := &benchparse.Output{}
	for _, c := range cmds {
		args := []string{"test", "-run", "^$", "-bench", c.bench, "-benchmem"}
		if benchtime != "" {
			args = append(args, "-benchtime", benchtime)
		}
		args = append(args, c.pkg)
		fmt.Fprintf(out, "running: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("suite %s: go test %s: %w\n%s", name, c.pkg, err, raw)
		}
		parsed, err := benchparse.Parse(strings.NewReader(string(raw)))
		if err != nil {
			return nil, fmt.Errorf("suite %s: %w", name, err)
		}
		merged.Results = append(merged.Results, parsed.Results...)
		if merged.Go == "" {
			merged.Go = parsed.Go
		}
		if merged.CPU == "" {
			merged.CPU = parsed.CPU
		}
	}
	return merged, nil
}

// appendRow loads, appends (idempotently) and saves the trajectory.
func appendRow(path string, row benchparse.Row) error {
	tr, err := benchparse.LoadTrajectory(path)
	if err != nil {
		return err
	}
	if tr.Description == "" {
		tr.Description = "Benchmark trajectory, one row per (commit, suite, gomaxprocs), appended by cmd/qbeep-bench. Rows are ordered by date, suite, commit, gomaxprocs; re-running at a commit and core count replaces its row. Derived ratios are the machine-stable signal; ns_op is advisory."
	}
	tr.Append(row)
	return tr.Save(path)
}

func printSuite(out io.Writer, name string, parsed *benchparse.Output, derived map[string]float64) {
	fmt.Fprintf(out, "suite %s: %d benchmarks\n", name, len(parsed.Results))
	for _, r := range parsed.Results {
		if r.AllocsOp >= 0 {
			fmt.Fprintf(out, "  %-48s %14.0f ns/op %10d B/op %8d allocs/op\n", r.Name, r.NsOp, r.BOp, r.AllocsOp)
		} else {
			fmt.Fprintf(out, "  %-48s %14.0f ns/op\n", r.Name, r.NsOp)
		}
	}
	keys := make([]string, 0, len(derived))
	for k := range derived {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  derived %-42s %12.2f\n", k, derived[k])
	}
}

func splitSuites(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
