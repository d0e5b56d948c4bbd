package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanEvent is the record a sink receives when a span ends.
//
// TraceID groups every span of one logical operation (one CLI pipeline
// run, one Execute call, ...). SpanID identifies the span within its
// trace and ParentID names the span that was active in the context when
// Start was called (0 for a trace root). IDs are allocated sequentially
// per trace — the root is span 1 and sequential code numbers its spans
// in start order — so single-threaded traces are fully deterministic
// and golden tests over them stay stable.
//
// CPU, AllocBytes and AllocObjects are the span's resource deltas,
// present only when capture was on (SetResourceCapture) while the span
// ran — optional wire fields, so traces recorded before resource
// capture existed still parse. See resource.go for what the deltas do
// and do not attribute under concurrent fan-out.
type SpanEvent struct {
	Name         string        `json:"name"`
	TraceID      uint64        `json:"trace"`
	SpanID       uint64        `json:"span"`
	ParentID     uint64        `json:"parent,omitempty"`
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"duration"`
	CPU          time.Duration `json:"cpu,omitempty"`
	AllocBytes   uint64        `json:"alloc_bytes,omitempty"`
	AllocObjects uint64        `json:"alloc_objects,omitempty"`
	Attrs        []Attr        `json:"attrs,omitempty"`
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use.
type SpanSink interface {
	OnSpan(SpanEvent)
}

// SinkFunc adapts a function to the SpanSink interface.
type SinkFunc func(SpanEvent)

// OnSpan implements SpanSink.
func (f SinkFunc) OnSpan(e SpanEvent) { f(e) }

// sinkBox wraps the interface so a single atomic pointer can swap it.
type sinkBox struct {
	sink SpanSink
}

var spanSink atomic.Pointer[sinkBox]

// SetSpanSink installs the destination for completed spans; nil disables
// tracing (the default). While disabled, Start returns an inert Span
// that still keeps time (End returns its duration) but delivers nothing
// and allocates nothing.
func SetSpanSink(s SpanSink) {
	if s == nil {
		spanSink.Store(nil)
		return
	}
	spanSink.Store(&sinkBox{sink: s})
}

// TracingEnabled reports whether a span sink is installed.
func TracingEnabled() bool {
	b := spanSink.Load()
	return b != nil && b.sink != nil
}

// traceState is the shared per-trace identity: the trace ID plus the
// span-ID allocator every span of the trace draws from.
type traceState struct {
	id   uint64
	next atomic.Uint64 // last span ID handed out
}

// nextTraceID numbers traces process-wide, starting at 1.
var nextTraceID atomic.Uint64

// resetTraceIDs rewinds the process trace counter — test helper only,
// so golden assertions can rely on trace 1.
func resetTraceIDs() { nextTraceID.Store(0) }

// ctxKey carries the active span reference through a context.
type ctxKey struct{}

// spanRef is what lives in the context: enough to parent a child span.
type spanRef struct {
	trace  *traceState
	spanID uint64
}

// Span is a lightweight timed region and the pipeline's one stopwatch:
// End returns the elapsed time, which metric timers and run-ledger
// stages record instead of reading a clock of their own. A span started
// while tracing is disabled is inert — it times but delivers nothing.
type Span struct {
	name     string
	start    time.Time
	sink     SpanSink
	trace    *traceState
	spanID   uint64
	parentID uint64
	attrs    []Attr
	res      resourceSample
	hasRes   bool
}

// Start begins a span as a child of the span recorded in ctx (a new
// trace root when ctx carries none) and returns a derived context that
// parents further Start calls under the new span. The sink is captured
// at start so a span outlives sink swaps consistently. While tracing is
// disabled it returns ctx unchanged and an inert Span: one clock read,
// no allocation.
func Start(ctx context.Context, name string) (context.Context, Span) {
	b := spanSink.Load()
	if b == nil || b.sink == nil {
		return ctx, Span{start: time.Now()}
	}
	if ctx == nil {
		ctx = context.Background() //qbeep:allow-ctx nil-ctx normalization: Start tolerates nil for legacy callers
	}
	var ts *traceState
	var parent uint64
	if ref, ok := ctx.Value(ctxKey{}).(spanRef); ok && ref.trace != nil {
		ts, parent = ref.trace, ref.spanID
	} else {
		ts = &traceState{id: nextTraceID.Add(1)}
	}
	id := ts.next.Add(1)
	sp := Span{
		name:     name,
		start:    time.Now(),
		sink:     b.sink,
		trace:    ts,
		spanID:   id,
		parentID: parent,
	}
	if resourceCapture.Load() {
		sp.hasRes = true
		sp.res = readResources()
	}
	return context.WithValue(ctx, ctxKey{}, spanRef{trace: ts, spanID: id}), sp
}

// TraceIDFrom returns the trace ID of the span active in ctx, or 0 when
// ctx carries none — the hook metric call sites use to stamp histogram
// observations with the trace that produced them (Histogram.ObserveTrace).
func TraceIDFrom(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	if ref, ok := ctx.Value(ctxKey{}).(spanRef); ok && ref.trace != nil {
		return ref.trace.id
	}
	return 0
}

// SetAttr attaches an attribute to the span; a no-op when inert.
func (s *Span) SetAttr(key string, value any) {
	if s.sink == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End completes the span, delivers it to the sink (none when inert) and
// returns its duration — exactly the Duration the sink receives. Only
// the first End counts: later calls return 0 and deliver nothing, so a
// deferred End may back up an explicit one on error paths.
func (s *Span) End() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	d := time.Since(s.start)
	start := s.start
	s.start = time.Time{}
	if s.sink == nil {
		return d
	}
	ev := SpanEvent{
		Name:     s.name,
		Start:    start,
		Duration: d,
		Attrs:    s.attrs,
	}
	if s.hasRes {
		// CPU counts only when both readings come from one thread's
		// clock. Deltas clamp at zero: the alloc counters are monotonic
		// but sampled racily.
		now := readResources()
		if d := now.cpuNanos - s.res.cpuNanos; d > 0 && now.tid == s.res.tid {
			ev.CPU = time.Duration(d)
		}
		if now.allocBytes > s.res.allocBytes {
			ev.AllocBytes = now.allocBytes - s.res.allocBytes
		}
		if now.allocObjects > s.res.allocObjects {
			ev.AllocObjects = now.allocObjects - s.res.allocObjects
		}
	}
	if s.trace != nil {
		ev.TraceID = s.trace.id
		ev.SpanID = s.spanID
		ev.ParentID = s.parentID
	}
	s.sink.OnSpan(ev)
	s.sink = nil
	return d
}

// CollectorSink accumulates span events in memory — the test and
// debug-dump sink.
type CollectorSink struct {
	mu     sync.Mutex
	events []SpanEvent
}

// OnSpan implements SpanSink.
func (c *CollectorSink) OnSpan(e SpanEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the collected spans.
func (c *CollectorSink) Events() []SpanEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanEvent(nil), c.events...)
}

// LogSink forwards completed spans to the structured logger at debug
// level.
func LogSink() SpanSink {
	return SinkFunc(func(e SpanEvent) {
		args := []any{"span", e.Name, "trace", e.TraceID, "id", e.SpanID,
			"parent", e.ParentID, "duration", e.Duration}
		for _, a := range e.Attrs {
			args = append(args, a.Key, a.Value)
		}
		Logger().Debug("span end", args...)
	})
}

// NDJSONSink streams completed spans as one JSON object per line — the
// cmd/qbeep -trace format, readable back by internal/tracefile and
// cmd/qbeep-trace. Writes are buffered; call Close (or Flush) before
// reading the output. The first write or marshal error latches and
// suppresses further output.
type NDJSONSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	err error
}

// NewNDJSONSink wraps w in a buffered NDJSON span writer.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{bw: bufio.NewWriter(w)}
}

// OnSpan implements SpanSink.
func (s *NDJSONSink) OnSpan(e SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.bw.Write(data); err != nil {
		s.err = err
		return
	}
	s.err = s.bw.WriteByte('\n')
}

// Flush drains the buffer and returns the first error seen so far.
func (s *NDJSONSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Err returns the first marshal or write error, if any.
func (s *NDJSONSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
