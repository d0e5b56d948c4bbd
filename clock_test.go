package qbeep

import (
	"context"
	"testing"

	"qbeep/internal/obs"
)

// TestTimersReadTheSpanClock pins the one-clock contract across the
// layers: in a traced simulate→mitigate run with one span of each timed
// name, every metric timer grew by exactly that span's duration — the
// timer observes what the span's End returned, not a clock of its own.
func TestTimersReadTheSpanClock(t *testing.T) {
	names := []string{
		"qasm.parse", "transpile", "transpile.decompose", "transpile.layout", "transpile.route",
		"transpile.optimize", "transpile.schedule",
		"sim.run", "noise.execute", "core.graph.build", "core.mitigate",
	}
	type reading struct {
		count int64
		sum   float64
	}
	before := map[string]reading{}
	for _, n := range names {
		tm := obs.Default.Timer(n)
		before[n] = reading{tm.Count(), tm.Sum()}
	}

	var sink obs.CollectorSink
	obs.SetSpanSink(&sink)
	defer obs.SetSpanSink(nil)
	src, err := BernsteinVaziraniQASM("1011")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sim, err := SimulateCtx(ctx, src, "istanbul", 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MitigateCtx(ctx, sim.Raw, sim.Lambda.Total(), NewOptions()); err != nil {
		t.Fatal(err)
	}
	obs.SetSpanSink(nil)

	spans := map[string][]obs.SpanEvent{}
	for _, e := range sink.Events() {
		spans[e.Name] = append(spans[e.Name], e)
	}
	for _, n := range names {
		if len(spans[n]) != 1 {
			t.Fatalf("%s: %d spans, want 1", n, len(spans[n]))
		}
		tm := obs.Default.Timer(n)
		b := before[n]
		if got := tm.Count(); got != b.count+1 {
			t.Errorf("%s: timer count grew by %d, want 1", n, got-b.count)
		}
		if got, want := tm.Sum(), b.sum+spans[n][0].Duration.Seconds(); got != want {
			t.Errorf("%s: timer sum %v, want %v (previous sum plus the span's duration)", n, got, want)
		}
	}
}
