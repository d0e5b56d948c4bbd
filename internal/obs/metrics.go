package obs

import (
	"expvar"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use; updates are single atomic adds.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions (last write
// wins). Updates are single atomic stores / CAS loops.
type Gauge struct {
	bits atomic.Uint64
}

// Set records v as the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add offsets the current value by v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histWindow is the number of recent observations a histogram keeps for
// quantile estimates. Count/sum/min/max cover the full lifetime.
const histWindow = 512

// histBuckets are the fixed upper bounds of the lifetime bucket counts
// (decades from 10 ns to 10 ks): wide enough for both the duration
// metrics (seconds) and the dimensionless convergence telemetry. An
// implicit +Inf bucket catches the overflow.
var histBuckets = [...]float64{
	1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3, 1e4,
}

// Histogram records float64 observations: exact count/sum/min/max and
// fixed exponential bucket counts over the metric's lifetime, plus a
// sliding window of the last histWindow observations for quantiles.
// Observe takes one short mutex hold; hot loops should accumulate
// locally and observe once per batch.
type Histogram struct {
	mu         sync.Mutex
	count      int64
	sum        float64
	min, max   float64
	worstTrace uint64                      // trace ID of the max observation (0 = untraced)
	buckets    [len(histBuckets) + 1]int64 // per-bucket (non-cumulative); last is +Inf
	window     [histWindow]float64
	wlen       int // filled prefix of window
	wpos       int // next overwrite position
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveTrace(v, 0) }

// ObserveTrace records one sample stamped with the trace it was observed
// under (obs.TraceIDFrom; 0 means untraced). When the sample becomes the
// histogram's worst observation, the trace ID rides along and is exposed
// on /metrics as the <name>_window_worst series — the trace↔metrics link
// that turns "p99 spiked" into "open this trace in qbeep-trace".
func (h *Histogram) ObserveTrace(v float64, trace uint64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
		h.worstTrace = trace
	}
	h.count++
	h.sum += v
	b := len(histBuckets)
	for i, ub := range histBuckets {
		if v <= ub {
			b = i
			break
		}
	}
	h.buckets[b]++
	h.window[h.wpos] = v
	h.wpos = (h.wpos + 1) % histWindow
	if h.wlen < histWindow {
		h.wlen++
	}
	h.mu.Unlock()
}

// BucketBounds returns the shared upper bounds of the lifetime buckets
// (the +Inf bucket is implicit).
func BucketBounds() []float64 {
	return append([]float64(nil), histBuckets[:]...)
}

// CumulativeBuckets returns the Prometheus-style cumulative counts, one
// per bound plus the trailing +Inf bucket (always equal to Count).
func (h *Histogram) CumulativeBuckets() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int64, len(h.buckets))
	var acc int64
	for i, c := range h.buckets {
		acc += c
		out[i] = acc
	}
	return out
}

// Count returns the lifetime number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the lifetime sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// WorstTrace returns the trace ID stamped on the histogram's worst
// (maximum) observation and that observation's value. A zero trace ID
// means the worst sample was recorded outside any trace.
func (h *Histogram) WorstTrace() (trace uint64, value float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.worstTrace, h.max
}

// Quantile estimates the q-quantile (q in [0,1]) over the recent window
// using linear interpolation between order statistics. It returns 0 when
// nothing has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	samples := append([]float64(nil), h.window[:h.wlen]...)
	h.mu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	if q <= 0 {
		return samples[0]
	}
	if q >= 1 {
		return samples[len(samples)-1]
	}
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(samples) {
		return samples[lo]
	}
	return samples[lo]*(1-frac) + samples[lo+1]*frac
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	h.mu.Unlock()
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	return s
}

// Timer is a histogram over durations, recorded in seconds. Call sites
// observe the duration their span's End returns, so a timer and the
// trace read one clock.
type Timer struct {
	Histogram
}

// ObserveDuration records one duration.
func (t *Timer) ObserveDuration(d time.Duration) { t.Observe(d.Seconds()) }

// ObserveDurationTrace records one duration stamped with its trace ID
// (see Histogram.ObserveTrace).
func (t *Timer) ObserveDurationTrace(d time.Duration, trace uint64) {
	t.ObserveTrace(d.Seconds(), trace)
}

// Registry is a named collection of metrics. Get-or-create lookups take
// a read lock; callers on hot paths should cache the returned pointer
// (package-level vars are the idiom used across internal/).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry the pipeline instruments into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// LabeledGauge returns the gauge for one (family, label=value) series,
// creating it on first use. The registry stays a flat namespace: the
// series is stored under the key `family{label="value"}`, which the
// Prometheus writer splits back into a labeled sample under a single
// # TYPE line per family (qbeep_quality_lambda{backend="istanbul"}).
// Label names are sanitized like metric names; values have quotes,
// backslashes, and control characters escaped. Hot paths should cache
// the returned pointer per (family, value) pair — the lookup builds
// the composite key.
func (r *Registry) LabeledGauge(family, label, value string) *Gauge {
	var b strings.Builder
	b.Grow(len(family) + len(label) + len(value) + 5)
	b.WriteString(family)
	b.WriteByte('{')
	for _, c := range label {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	b.WriteString("=\"")
	for _, c := range value {
		switch c {
		case '\\', '"':
			b.WriteByte('\\')
			b.WriteRune(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			if c < 0x20 {
				b.WriteByte('_')
			} else {
				b.WriteRune(c)
			}
		}
	}
	b.WriteString("\"}")
	return r.Gauge(b.String())
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a JSON-marshalable view of every metric, keyed by
// name within its kind.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	out := map[string]any{}
	if len(counters) > 0 {
		m := map[string]int64{}
		for k, v := range counters {
			m[k] = v.Value()
		}
		out["counters"] = m
	}
	if len(gauges) > 0 {
		m := map[string]float64{}
		for k, v := range gauges {
			m[k] = v.Value()
		}
		out["gauges"] = m
	}
	if len(timers) > 0 {
		m := map[string]HistogramSnapshot{}
		for k, v := range timers {
			m[k] = v.Snapshot()
		}
		out["timers_seconds"] = m
	}
	if len(hists) > 0 {
		m := map[string]HistogramSnapshot{}
		for k, v := range hists {
			m[k] = v.Snapshot()
		}
		out["histograms"] = m
	}
	return out
}

// publishOnce guards the process-global expvar namespace, which panics
// on duplicate names.
var publishOnce sync.Once

// PublishExpvar exports the Default registry as the expvar variable
// "qbeep_metrics" (visible at /debug/vars). Safe to call repeatedly.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("qbeep_metrics", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
