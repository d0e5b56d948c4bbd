package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// span is one benchmark-side span: a call into a layer's public function,
// timed from outside. CPU is process CPU (user+system, RUSAGE_SELF) over
// the call, so CPU ÷ wall above 1 shows a layer using more than one core.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a top-level (request or side) span
	Request int    `json:"request"`
	Name    string `json:"name"`     // the function called
	Layer   string `json:"layer"`    // the metric group it is charged to
	StartNS int64  `json:"start_ns"` // since the tracer's origin
	WallNS  int64  `json:"wall_ns"`
	CPUNS   int64  `json:"cpu_ns"`
	Err     string `json:"err,omitempty"`
	// Request spans name their input and carry what the layers reported.
	Input string             `json:"input,omitempty"`
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; write flushes them once the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open starts a span and returns its index; close ends it.
func (t *tracer) open(layer, name string, parent, request int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, Layer: layer,
		CPUNS: processCPU(), StartNS: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, err error) {
	s := &t.spans[i]
	s.WallNS = time.Since(t.origin).Nanoseconds() - s.StartNS
	s.CPUNS = processCPU() - s.CPUNS
	if err != nil {
		s.Err = err.Error()
	}
}

// call runs fn under a child span of the span at index parent.
func call[T any](t *tracer, parent int, layer, name string, fn func() (T, error)) (T, error) {
	p := &t.spans[parent]
	i := t.open(layer, name, p.ID, p.Request)
	v, err := fn()
	t.close(i, err)
	return v, err
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// processCPU returns the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}
