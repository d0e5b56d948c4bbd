package tracefile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Aggregate is the rollup of every span sharing one name. The resource
// sums are zero for streams recorded without capture.
type Aggregate struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of self times (duration minus direct children)
	P50   time.Duration // median span duration
	P95   time.Duration
	Max   time.Duration
	// Resource-attributed sums (optional wire fields; see obs resource.go).
	CPU              time.Duration // sum of span CPU deltas
	SelfCPU          time.Duration // CPU minus direct children, per span
	AllocBytes       uint64
	AllocObjects     uint64
	SelfAllocBytes   uint64
	SelfAllocObjects uint64
}

// Aggregates rolls the forest up by span name, sorted by total descending
// (ties by name so output is deterministic).
func (f *Forest) Aggregates() []Aggregate {
	byName := map[string]*Aggregate{}
	durs := map[string][]time.Duration{}
	for _, t := range f.Traces {
		for _, s := range t.Spans {
			a := byName[s.Name]
			if a == nil {
				a = &Aggregate{Name: s.Name}
				byName[s.Name] = a
			}
			a.Count++
			a.Total += s.Duration
			a.Self += s.SelfTime()
			a.CPU += s.CPU
			a.SelfCPU += s.SelfCPU()
			a.AllocBytes += s.AllocBytes
			a.AllocObjects += s.AllocObjects
			a.SelfAllocBytes += s.SelfAllocBytes()
			a.SelfAllocObjects += s.SelfAllocObjects()
			if s.Duration > a.Max {
				a.Max = s.Duration
			}
			durs[s.Name] = append(durs[s.Name], s.Duration)
		}
	}
	out := make([]Aggregate, 0, len(byName))
	for name, a := range byName {
		d := durs[name]
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		a.P50 = quantileDur(d, 0.50)
		a.P95 = quantileDur(d, 0.95)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// quantileDur reads the q-quantile of an ascending-sorted duration slice
// as the order statistic at rank ⌊q·(n−1)⌋, without interpolating: the
// lower of the two order statistics mathx.Quantile blends.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// CriticalPath walks from the trace root to a leaf, at each step
// descending into the child that finishes last — the child gating the
// parent's completion. The returned slice starts at the root.
func CriticalPath(t *Trace) []*Span {
	root := t.Root()
	if root == nil {
		return nil
	}
	path := []*Span{root}
	cur := root
	for len(cur.Children) > 0 {
		next := cur.Children[0]
		for _, c := range cur.Children[1:] {
			if c.End().After(next.End()) {
				next = c
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// WriteReport prints the human-readable analysis: stream totals, the
// per-name aggregate table, and the slowest trace's critical path. For
// streams with resource-attributed spans the table grows cpu/self-cpu
// and alloc/self-alloc columns; wall-time-only streams render exactly as
// before capture existed.
func WriteReport(w io.Writer, f *Forest) error {
	fmt.Fprintf(w, "spans: %d  traces: %d\n", f.Total, len(f.Traces))
	aggs := f.Aggregates()
	if len(aggs) == 0 {
		_, err := fmt.Fprintln(w, "no spans")
		return err
	}
	res := f.HasResources()
	fmt.Fprintln(w)
	if res {
		fmt.Fprintf(w, "%-32s %8s %12s %12s %12s %12s %10s %10s %10s %10s\n",
			"name", "count", "total", "self", "p50", "max", "cpu", "self-cpu", "alloc", "self-alloc")
	} else {
		fmt.Fprintf(w, "%-32s %8s %12s %12s %12s %12s %12s\n",
			"name", "count", "total", "self", "p50", "p95", "max")
	}
	for _, a := range aggs {
		if res {
			fmt.Fprintf(w, "%-32s %8d %12s %12s %12s %12s %10s %10s %10s %10s\n",
				a.Name, a.Count, fmtDur(a.Total), fmtDur(a.Self),
				fmtDur(a.P50), fmtDur(a.Max),
				fmtDur(a.CPU), fmtDur(a.SelfCPU),
				fmtBytes(a.AllocBytes), fmtBytes(a.SelfAllocBytes))
		} else {
			fmt.Fprintf(w, "%-32s %8d %12s %12s %12s %12s %12s\n",
				a.Name, a.Count, fmtDur(a.Total), fmtDur(a.Self),
				fmtDur(a.P50), fmtDur(a.P95), fmtDur(a.Max))
		}
	}
	slow := f.Slowest()
	if slow == nil {
		return nil
	}
	fmt.Fprintf(w, "\ncritical path (trace %d, %s):\n", slow.ID, fmtDur(slow.Duration()))
	path := CriticalPath(slow)
	rootDur := slow.Duration()
	for i, s := range path {
		pct := 0.0
		if rootDur > 0 {
			pct = 100 * float64(s.Duration) / float64(rootDur)
		}
		fmt.Fprintf(w, "  %s%s  %s (%.1f%%)%s%s\n",
			strings.Repeat("  ", i), s.Name, fmtDur(s.Duration), pct, resSuffix(s), attrSuffix(s))
	}
	return nil
}

// Hotspot is one span name's self-resource rollup: the cost the span
// spends in its own frames, not in named children.
type Hotspot struct {
	Name             string
	Count            int
	SelfTime         time.Duration
	SelfCPU          time.Duration
	SelfAllocBytes   uint64
	SelfAllocObjects uint64
}

// Hotspots reduces the forest's aggregates to their self-resource view.
func (f *Forest) Hotspots() []Hotspot {
	aggs := f.Aggregates()
	out := make([]Hotspot, 0, len(aggs))
	for _, a := range aggs {
		out = append(out, Hotspot{
			Name:             a.Name,
			Count:            a.Count,
			SelfTime:         a.Self,
			SelfCPU:          a.SelfCPU,
			SelfAllocBytes:   a.SelfAllocBytes,
			SelfAllocObjects: a.SelfAllocObjects,
		})
	}
	return out
}

// IterationsSaved sums the iterations_saved attribute over the forest's
// core.mitigate spans — the flow iterations the adaptive convergence
// early-exit skipped (see DESIGN.md §13). Only the mitigation root spans
// count: the triggering core.mitigate.iter child repeats the value and
// would double it. spans counts how many carried the attribute, so a
// fixed-schedule stream (every saved value zero) still reads differently
// from an old stream without the attribute.
func (f *Forest) IterationsSaved() (saved int64, spans int) {
	for _, t := range f.Traces {
		for _, s := range t.Spans {
			if s.Name != "core.mitigate" {
				continue
			}
			v, ok := s.Attr("iterations_saved")
			if !ok {
				continue
			}
			spans++
			switch n := v.(type) {
			case float64:
				saved += int64(n)
			case int64:
				saved += n
			case int:
				saved += int64(n)
			}
		}
	}
	return saved, spans
}

// WriteHotspots prints the optimization shortlist: spans ranked by
// self-CPU (where the compute goes) and by self-allocations (where the
// garbage comes from). top bounds each table (<= 0 means everything).
// Mitigation spans recorded with the adaptive early-exit attribute get a
// summary line of the skipped iterations. Streams recorded without
// resource capture fall back to a self-time ranking with a note, so the
// command stays useful on old traces.
func WriteHotspots(w io.Writer, f *Forest, top int) error {
	hs := f.Hotspots()
	if len(hs) == 0 {
		_, err := fmt.Fprintln(w, "no spans")
		return err
	}
	limit := func(n int) int {
		if top > 0 && top < n {
			return top
		}
		return n
	}
	if !f.HasResources() {
		fmt.Fprintln(w, "no resource-attributed spans in this stream (record with -trace; resource capture is on by default)")
		fmt.Fprintln(w, "falling back to self wall time:")
		fmt.Fprintln(w)
		sort.Slice(hs, func(i, j int) bool {
			if hs[i].SelfTime != hs[j].SelfTime {
				return hs[i].SelfTime > hs[j].SelfTime
			}
			return hs[i].Name < hs[j].Name
		})
		fmt.Fprintf(w, "%-32s %8s %12s\n", "name", "count", "self")
		for _, h := range hs[:limit(len(hs))] {
			fmt.Fprintf(w, "%-32s %8d %12s\n", h.Name, h.Count, fmtDur(h.SelfTime))
		}
		writeIterationsSaved(w, f)
		return nil
	}

	var totalCPU time.Duration
	var totalObjs uint64
	for _, h := range hs {
		totalCPU += h.SelfCPU
		totalObjs += h.SelfAllocObjects
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].SelfCPU != hs[j].SelfCPU {
			return hs[i].SelfCPU > hs[j].SelfCPU
		}
		return hs[i].Name < hs[j].Name
	})
	fmt.Fprintf(w, "hotspots by self-CPU (total %s):\n", fmtDur(totalCPU))
	fmt.Fprintf(w, "%-32s %8s %12s %7s %12s %12s\n",
		"name", "count", "self-cpu", "cpu%", "self", "self-alloc")
	for _, h := range hs[:limit(len(hs))] {
		pct := 0.0
		if totalCPU > 0 {
			pct = 100 * float64(h.SelfCPU) / float64(totalCPU)
		}
		fmt.Fprintf(w, "%-32s %8d %12s %6.1f%% %12s %12s\n",
			h.Name, h.Count, fmtDur(h.SelfCPU), pct, fmtDur(h.SelfTime), fmtBytes(h.SelfAllocBytes))
	}

	sort.Slice(hs, func(i, j int) bool {
		if hs[i].SelfAllocObjects != hs[j].SelfAllocObjects {
			return hs[i].SelfAllocObjects > hs[j].SelfAllocObjects
		}
		if hs[i].SelfAllocBytes != hs[j].SelfAllocBytes {
			return hs[i].SelfAllocBytes > hs[j].SelfAllocBytes
		}
		return hs[i].Name < hs[j].Name
	})
	fmt.Fprintf(w, "\nhotspots by self-allocations (total %d objects):\n", totalObjs)
	fmt.Fprintf(w, "%-32s %8s %12s %7s %12s %12s\n",
		"name", "count", "self-objs", "objs%", "self-alloc", "self-cpu")
	for _, h := range hs[:limit(len(hs))] {
		pct := 0.0
		if totalObjs > 0 {
			pct = 100 * float64(h.SelfAllocObjects) / float64(totalObjs)
		}
		fmt.Fprintf(w, "%-32s %8d %12d %6.1f%% %12s %12s\n",
			h.Name, h.Count, h.SelfAllocObjects, pct, fmtBytes(h.SelfAllocBytes), fmtDur(h.SelfCPU))
	}
	writeIterationsSaved(w, f)
	return nil
}

// writeIterationsSaved appends the adaptive early-exit summary when any
// span recorded the attribute; old streams print nothing extra.
func writeIterationsSaved(w io.Writer, f *Forest) {
	saved, spans := f.IterationsSaved()
	if spans == 0 {
		return
	}
	fmt.Fprintf(w, "\nadaptive early exit: %d flow iterations saved across %d mitigation span(s)\n", saved, spans)
}

// WriteFlame prints an indented text flame view of one trace: every span
// under its parent, with a bar scaled to its share of the root duration.
func WriteFlame(w io.Writer, t *Trace) error {
	root := t.Root()
	if root == nil {
		_, err := fmt.Fprintln(w, "empty trace")
		return err
	}
	fmt.Fprintf(w, "trace %d  %s\n", t.ID, fmtDur(t.Duration()))
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		frac := 0.0
		if root.Duration > 0 {
			frac = float64(s.Duration) / float64(root.Duration)
		}
		if frac > 1 {
			frac = 1
		}
		bar := strings.Repeat("#", int(frac*40+0.5))
		fmt.Fprintf(w, "%-60s %12s  %s%s\n",
			strings.Repeat("  ", depth)+s.Name, fmtDur(s.Duration), bar, resSuffix(s))
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Times are
// microseconds; pid groups by trace, tid is a lane chosen so concurrent
// spans don't overlap within one row.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  uint64         `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome exports the forest as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). Timestamps are relative to the earliest
// span start in the stream.
func WriteChrome(w io.Writer, f *Forest) error {
	var epoch time.Time
	for _, t := range f.Traces {
		for _, s := range t.Spans {
			if epoch.IsZero() || s.Start.Before(epoch) {
				epoch = s.Start
			}
		}
	}
	var events []chromeEvent
	for _, t := range f.Traces {
		lanes := assignLanes(t)
		for _, s := range t.Spans {
			ev := chromeEvent{
				Name: s.Name,
				Cat:  "qbeep",
				Ph:   "X",
				Ts:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
				Dur:  float64(s.Duration) / float64(time.Microsecond),
				Pid:  t.ID,
				Tid:  lanes[s],
			}
			if len(s.Attrs) > 0 {
				ev.Args = make(map[string]any, len(s.Attrs)+1)
				for _, a := range s.Attrs {
					ev.Args[a.Key] = a.Value
				}
			}
			if ev.Args == nil {
				ev.Args = map[string]any{}
			}
			ev.Args["span"] = s.SpanID
			events = append(events, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// assignLanes gives every span a Chrome tid: a span shares its parent's
// lane when the lane's latest occupant has finished (or is an ancestor,
// which Chrome nests correctly); otherwise it opens the first free lane.
// Sequential traces collapse to lane 0; parallel worker fan-outs spread
// one lane per concurrent worker.
func assignLanes(t *Trace) map[*Span]int {
	order := append([]*Span(nil), t.Spans...)
	sort.Slice(order, func(i, j int) bool {
		if !order[i].Start.Equal(order[j].Start) {
			return order[i].Start.Before(order[j].Start)
		}
		return order[i].SpanID < order[j].SpanID
	})
	lanes := map[*Span]int{}
	var laneLast []*Span
	free := func(s *Span, last *Span) bool {
		if last == nil || !last.End().After(s.Start) {
			return true
		}
		for p := s.Parent; p != nil; p = p.Parent {
			if p == last {
				return true
			}
		}
		return false
	}
	for _, s := range order {
		lane := -1
		if s.Parent != nil {
			if pl, ok := lanes[s.Parent]; ok && free(s, laneLast[pl]) {
				lane = pl
			}
		}
		if lane < 0 {
			for i, last := range laneLast {
				if free(s, last) {
					lane = i
					break
				}
			}
		}
		if lane < 0 {
			lane = len(laneLast)
			laneLast = append(laneLast, nil)
		}
		lanes[s] = lane
		laneLast[lane] = s
	}
	return lanes
}

// resSuffix renders a span's resource deltas for the critical-path and
// flame listings; empty for spans recorded without capture so old
// streams print exactly as they always did.
func resSuffix(s *Span) string {
	if !s.HasResources() {
		return ""
	}
	return fmt.Sprintf("  {cpu %s, alloc %s/%d}",
		fmtDur(s.CPU), fmtBytes(s.AllocBytes), s.AllocObjects)
}

// attrSuffix renders a span's attributes for the critical-path listing.
func attrSuffix(s *Span) string {
	if len(s.Attrs) == 0 {
		return ""
	}
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		parts[i] = fmt.Sprintf("%s=%v", a.Key, a.Value)
	}
	return "  [" + strings.Join(parts, " ") + "]"
}

// fmtBytes renders allocation byte counts with a binary-unit suffix.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// fmtDur renders durations with three significant places at a stable
// unit, so report columns line up.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
