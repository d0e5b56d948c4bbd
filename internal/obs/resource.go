package obs

import (
	"runtime/metrics"
	"sync/atomic"
)

// Resource-attributed spans: with capture enabled (SetResourceCapture,
// normally via the -trace flag) every span additionally samples, at its
// Start and End boundaries, the calling goroutine's OS-thread CPU clock
// and the process-wide cumulative heap-allocation counters from
// runtime/metrics. The deltas ride on the SpanEvent as optional fields
// (cpu, alloc_bytes, alloc_objects), so the NDJSON schema only grows and
// pre-existing traces still parse.
//
// Attribution caveats (see DESIGN.md §12):
//
//   - CPU time is the thread clock (RUSAGE_THREAD on Linux). The
//     scheduler may migrate a goroutine mid-span, so each sample records
//     its thread, and a span that ends on another thread than it started
//     on records zero CPU; one that migrates back still counts whatever
//     ran there meanwhile. The thread clock also advances only at
//     scheduler accounting points (timer ticks, context switches), so a
//     span shorter than a few ticks often reads zero CPU.
//     Children running on par workers burn *their own* thread clocks, so
//     a fan-out parent's CPU reflects only its coordinating goroutine —
//     sum the par.worker spans for the pool's cost.
//   - Allocation counters are process-wide: a span's delta includes
//     whatever every concurrent goroutine allocated while it was open.
//     In sequential pipeline sections the delta is exact; under fan-out
//     the parent's delta double-counts its children's. The runtime
//     counts a small allocation (≤ 32 KiB) only when its P's cached
//     span is refilled or flushed, and a large one when it is made, so
//     a span whose few small allocations fit in one cached span can
//     read zero bytes and zero objects.
//
// While capture (or tracing itself) is disabled, Start never reaches the
// sampling code, so the disabled hot path stays zero-alloc.

// resourceCapture gates boundary sampling; off by default.
var resourceCapture atomic.Bool

// SetResourceCapture enables or disables per-span resource deltas. It
// only takes effect for spans started while a sink is installed.
func SetResourceCapture(on bool) { resourceCapture.Store(on) }

// ResourceCaptureEnabled reports whether span resource capture is on.
func ResourceCaptureEnabled() bool { return resourceCapture.Load() }

// Cumulative heap-allocation counters (monotonic since process start).
const (
	metricAllocBytes   = "/gc/heap/allocs:bytes"
	metricAllocObjects = "/gc/heap/allocs:objects"
)

// resourceSample is one point-in-time reading of the span-attributed
// resource counters.
type resourceSample struct {
	tid          int // OS thread whose clock cpuNanos read
	cpuNanos     int64
	allocBytes   uint64
	allocObjects uint64
}

// readResources samples the thread id, its CPU clock and the cumulative
// heap allocation counters.
func readResources() resourceSample {
	var s [2]metrics.Sample
	s[0].Name = metricAllocBytes
	s[1].Name = metricAllocObjects
	metrics.Read(s[:])
	out := resourceSample{tid: threadID(), cpuNanos: threadCPUNanos()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocObjects = s[1].Value.Uint64()
	}
	return out
}
