package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qbeep"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the printed metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at the smoke size in both modes and checks
// that the last line printed is a correct result naming exactly the
// metrics BENCHMARK.json lists for that mode, each with its unit.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.ndjson")
				cfg := config{
					workload: name, seed: 3, seconds: 200 * time.Millisecond,
					trace: trace, size: smokeSize, setups: 2, spans: spans,
				}
				var out bytes.Buffer
				if _, err := run(context.Background(), cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result correct=%v attempted=%d failed=%d; output:\n%s",
						res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace {
					if _, err := os.Stat(spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

// The traced run fails a request whose layer-by-layer output differs
// from the API's in any bit, and the output check catches broken
// mitigation results.
func TestChecksCatchBadOutputs(t *testing.T) {
	good := output{
		raw:       qbeep.Counts{"00": 3, "01": 1},
		mitigated: qbeep.Counts{"00": 3.5, "01": 0.5},
		lambda:    0.5,
	}
	if err := sameBits(good, good); err != nil {
		t.Fatalf("identical outputs differ: %v", err)
	}
	nudged := good
	nudged.mitigated = qbeep.Counts{"00": 3.5000000000000004, "01": 0.5}
	if sameBits(good, nudged) == nil {
		t.Error("one-ulp difference in a mitigated count not detected")
	}
	r := &request{Counts: good.raw}
	if err := checkOutput(r, good); err != nil {
		t.Fatalf("good output rejected: %v", err)
	}
	bad := map[string]qbeep.Counts{
		"mass not conserved": {"00": 3.5, "01": 1},
		"outside support":    {"00": 3, "11": 1},
		"negative count":     {"00": 4.5, "01": -0.5},
	}
	for name, mit := range bad {
		if checkOutput(r, output{raw: good.raw, mitigated: mit}) == nil {
			t.Errorf("%s: not detected", name)
		}
	}
}

func TestWindowedQuantile(t *testing.T) {
	// Three windows of four: each window's median is its second value
	// interpolated halfway to its third, and the windows' medians are 2,
	// 6 and 4, so the windowed median is 4.
	lat := []float64{1, 1, 3, 9, 5, 5, 7, 7, 3, 3, 5, 5}
	if got := windowedQuantile(lat, 4, 0.5); got != 4 {
		t.Errorf("windowed median = %v, want 4", got)
	}
	// Fewer than two windows: the quantile of all the latencies.
	if got, want := windowedQuantile(lat, 8, 0.5), quantile(lat, 0.5); got != want {
		t.Errorf("short run: windowed median = %v, want %v", got, want)
	}
}
