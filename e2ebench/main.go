// Command e2ebench is the end-to-end Q-BEEP benchmark: it generates one of
// three seeded workloads, serves it closed-loop with a single client, checks
// every request's output and prints the metrics as one JSON line. With
// --trace 0 the requests go through the public qbeep API and the
// end-to-end metrics are printed; with --trace 1 each layer's public
// function is called in turn under a benchmark-side span and the
// per-layer metrics are printed. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"qbeep"
)

const maxSetups = 1000

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     size
	setups   int    // least set-up repetitions; setup_s is their median
	spans    string // NDJSON path for the traced run's spans, "" to skip
}

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds int
	var trace int
	var smoke bool
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics through the qbeep API; 1: per-layer metrics")
	flag.BoolVar(&smoke, "smoke", false, "run at the tiny smoke-test size")
	flag.StringVar(&cfg.spans, "spans", "", "with --trace 1, write the spans to this NDJSON file\n(default .bench_build/spans/<workload>-seed<n>.ndjson)")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.ndjson", cfg.workload, cfg.seed))
	}
	cfg.size, cfg.setups = fullSize, 3
	if smoke {
		cfg.size, cfg.setups = smokeSize, 1
	}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and prints the environment record,
// a summary line and, last, the result.
func run(ctx context.Context, cfg config, w io.Writer) (result, error) {
	// Set-up repeats at least cfg.setups times, and while the repetitions
	// take under a second in all (up to maxSetups), so that a set-up of a
	// few milliseconds is still a steady median.
	var reqs []request
	var setups []float64
	for spent := 0.0; len(setups) < cfg.setups || (spent < 1 && len(setups) < maxSetups); {
		t0 := time.Now()
		var err error
		if reqs, err = generate(cfg.workload, cfg.seed, cfg.size); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	if err := writeJSON(w, map[string]any{"env": environment(cfg)}); err != nil {
		return result{}, err
	}
	var res result
	var summary map[string]any
	var err error
	if cfg.trace {
		res, summary, err = measureTraced(ctx, cfg, reqs)
	} else {
		res, summary, err = measureAPI(ctx, cfg, reqs)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	if err != nil {
		return result{}, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if err := writeJSON(w, map[string]any{"summary": summary}); err != nil {
		return result{}, err
	}
	return res, writeJSON(w, res)
}

// warmUp serves requests in order until a whole pass is done or a second
// has gone, so lazily grown heaps and pools are in place before timing.
// Like the timed loops it collects garbage before each request: a request
// then pays for its own collections only, and the peak resident memory is
// that of the largest request rather than of wherever the collector's
// cycle happened to fall.
func warmUp(ctx context.Context, reqs []request, opts qbeep.Options) error {
	t0 := time.Now()
	for i := range reqs {
		runtime.GC()
		if _, err := runAPI(ctx, &reqs[i], opts); err != nil {
			return fmt.Errorf("warm-up request %s: %w", reqs[i].Name, err)
		}
		if time.Since(t0) > time.Second {
			break
		}
	}
	return nil
}

// measureAPI is the untraced run: one client serves the requests through
// the public API in whole passes until cfg.seconds have passed, so every
// run times the same mix. Latency is the request alone; output checks and
// fidelity scoring follow it untimed, and requests_per_s counts completed
// requests per second of request time.
func measureAPI(ctx context.Context, cfg config, reqs []request) (result, map[string]any, error) {
	opts := qbeep.NewOptions()
	if err := warmUp(ctx, reqs, opts); err != nil {
		return result{}, nil, err
	}
	var lat, gains []float64
	var res result
	var failures []string
	for t0, i := time.Now(), 0; i%len(reqs) != 0 || time.Since(t0) < cfg.seconds; i++ {
		r := &reqs[i%len(reqs)]
		runtime.GC() // see warmUp
		start := time.Now()
		out, err := runAPI(ctx, r, opts)
		d := time.Since(start)
		res.Attempted++
		if err == nil {
			err = checkOutput(r, out)
		}
		var gain float64
		if err == nil {
			gain, err = fidelityGain(r, out)
		}
		if err != nil {
			res.Failed++
			failures = append(failures, fmt.Sprintf("%s: %v", r.Name, err))
			continue
		}
		lat = append(lat, d.Seconds()*1e3)
		gains = append(gains, gain)
	}
	res.Correct = res.Failed == 0
	if len(lat) == 0 {
		return res, nil, fmt.Errorf("no request completed: %v", failures)
	}
	sumMS := 0.0
	for _, l := range lat {
		sumMS += l
	}
	window := len(reqs) * ((minWindow + len(reqs) - 1) / len(reqs))
	p95 := windowedQuantile(lat, window, 0.95)
	res.Metrics = map[string]metric{
		"requests_per_s": {float64(len(lat)) / (sumMS / 1e3), "1/s"},
		"latency_p50_ms": {windowedQuantile(lat, window, 0.50), "ms"},
		"latency_p95_ms": {p95, "ms"},
		"fidelity_gain":  {mean(gains), "fidelity"},
	}
	summary := map[string]any{
		"workload": cfg.workload, "mode": "untraced", "latency_window": window,
		"latency_samples": len(lat), "samples_beyond_p95": countAbove(lat, p95),
		"failed_ratio": float64(res.Failed) / float64(res.Attempted),
		"failures":     firstN(failures, 5),
	}
	return res, summary, nil
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile is the linear-interpolation quantile (type 7) of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minWindow is the fewest requests a latency window holds.
const minWindow = 20

// windowedQuantile is the median over consecutive windows of lat of each
// window's q-quantile, or the q-quantile of all of lat when it holds fewer
// than two windows. A window is a whole number of passes, so each one
// holds every request of the mix equally often. Over a whole run every
// request repeats once per pass, so the sorted latencies form one cluster
// per request; a quantile that falls between two clusters reads the
// extreme of one of them (the slowest of a few hundred runs of the
// third-slowest circuit, for p95 on circuits) and moves with the host's
// worst moments. The median of per-window quantiles reads the same
// request's typical time instead.
func windowedQuantile(lat []float64, window int, q float64) float64 {
	if len(lat) < 2*window {
		return quantile(lat, q)
	}
	var qs []float64
	for i := 0; i+window <= len(lat); i += window {
		qs = append(qs, quantile(lat[i:i+window], q))
	}
	return median(qs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// environment is recorded with every result.
func environment(cfg config) map[string]any {
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(),
		"trace": cfg.trace, "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go_version": runtime.Version(), "cpu_model": cpuModel(), "commit": commit(),
	}
}
