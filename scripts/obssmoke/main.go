// Command obssmoke is the CI observability smoke check: it stands up
// the debug server on an ephemeral port, scrapes /healthz and /metrics
// over real HTTP, and fails unless the exposition is Prometheus text
// carrying at least one counter, gauge and histogram family. `make
// obs-smoke` runs it after exercising qbeep-trace on the golden
// fixture.
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"qbeep"
	"qbeep/internal/obs"
	"qbeep/internal/par"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke:", err)
		os.Exit(1)
	}
	fmt.Println("obs-smoke: metrics scrape ok")
}

func run() error {
	obs.Default.Counter("smoke.hits").Inc()
	obs.Default.Gauge("smoke.level").Set(3.5)
	obs.Default.Histogram("smoke.latency").Observe(0.012)
	// A trace-stamped worst observation must surface as _window_worst.
	obs.Default.Histogram("smoke.stamped").ObserveTrace(0.5, 7)
	// One real fan-out batch populates the par_worker_busy_ratio gauges.
	if err := par.ForEachCtx(context.Background(), 8, 2, func(int) error { return nil }); err != nil {
		return err
	}
	// A real tiny mitigation and λ estimation drive the quality families
	// live: the core loop observes qbeep_quality_hellinger_shift, Eq. 2
	// estimation sets the per-backend qbeep_quality_lambda gauge.
	if _, err := qbeep.Mitigate(qbeep.Counts{"000": 900, "001": 50, "010": 30, "100": 20}, 1.2, qbeep.NewOptions()); err != nil {
		return err
	}
	const bell = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`
	if _, err := qbeep.EstimateLambdaQASM(bell, "istanbul"); err != nil {
		return err
	}
	// PST improvement lives in the experiments layer; a synthetic
	// observation checks the family renders on the same exposition.
	obs.Default.Histogram("quality.pst_improvement").ObserveTrace(1.34, 9)

	ds, err := obs.ServeDebug("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		if err := ds.Shutdown(5 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "obssmoke: shutdown:", err)
		}
	}()

	health, err := get(ds.Addr(), "/healthz", "")
	if err != nil {
		return err
	}
	if health != "ok\n" {
		return fmt.Errorf("/healthz body = %q, want ok", health)
	}

	metrics, err := get(ds.Addr(), "/metrics", obs.PromContentType)
	if err != nil {
		return err
	}
	for _, want := range []string{
		"# TYPE qbeep_smoke_hits_total counter",
		"# TYPE qbeep_smoke_level gauge",
		"# TYPE qbeep_smoke_latency histogram",
		`qbeep_smoke_latency_bucket{le="+Inf"} 1`,
		"# TYPE qbeep_runtime_goroutines gauge",
		// Perf-observatory families: build identity, process resource
		// telemetry, the trace↔metrics worst-observation link, and the
		// per-worker busy-ratio spread from the par fan-out.
		"# TYPE qbeep_build_info gauge",
		"# TYPE qbeep_runtime_heap_allocs_bytes gauge",
		`qbeep_smoke_stamped_window_worst{trace="7"} 0.5`,
		"# TYPE qbeep_par_worker_busy_ratio_min gauge",
		"# TYPE qbeep_par_worker_busy_ratio_mean gauge",
		"# TYPE qbeep_par_worker_busy_ratio_max gauge",
		// Quality-observatory families (DESIGN.md §16): the mitigation
		// above observed the shift histogram, estimation labeled the λ
		// gauge, and the synthetic PST ratio carried its trace stamp.
		"# TYPE qbeep_quality_hellinger_shift histogram",
		"# TYPE qbeep_quality_lambda gauge",
		`qbeep_quality_lambda{backend="istanbul"} `,
		"# TYPE qbeep_quality_pst_improvement histogram",
		`qbeep_quality_pst_improvement_window_worst{trace="9"} 1.34`,
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
	return nil
}

// get fetches path from the debug server and, when wantType is
// non-empty, checks the Content-Type header.
func get(addr, path, wantType string) (string, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if wantType != "" {
		if ct := resp.Header.Get("Content-Type"); ct != wantType {
			return "", fmt.Errorf("GET %s: Content-Type = %q, want %q", path, ct, wantType)
		}
	}
	return string(body), nil
}
