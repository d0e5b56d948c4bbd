// Package par provides the deterministic fan-out helpers: Shards, the
// fixed fan-out the hot kernels bind once, and ForEachCtx, which the
// experiment runners use after preparing their tasks sequentially (so
// every task owns a pre-split RNG and the corpus is identical regardless
// of concurrency), with results written into index-addressed slots.
package par

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync/atomic"
	"time"

	"qbeep/internal/obs"
)

// Fan-out metrics (see internal/obs), all read off the batch's
// "par.worker" spans: par.batch is the longest worker span, and the
// busy-ratio gauges reduce each worker's span to a fraction of that
// longest one (min and mean across the pool; the max is 1 by
// construction) — a wide spread separates "one straggler worker" from
// "pool saturated".
var (
	metBatch         = obs.Default.Timer("par.batch")
	metTasks         = obs.Default.Counter("par.tasks")
	metErrors        = obs.Default.Counter("par.errors")
	metWorkers       = obs.Default.Gauge("par.workers")
	metWorkerBusyMin = obs.Default.Gauge("par.worker_busy_ratio_min")
	metWorkerBusyAvg = obs.Default.Gauge("par.worker_busy_ratio_mean")
)

// failure is a worker's lowest-index failed task.
type failure struct {
	i   int
	err error
}

// ForEachCtx runs fn(i) for every i in [0, n) on the shards of one
// Shards value (at most workers of them, GOMAXPROCS when workers <= 0),
// which claim task indices in ascending order. A failed task does not
// stop the others; the returned error is the lowest-index task error,
// so it does not depend on scheduling. A task that panics fails with an
// error naming its index and the panic value instead of taking the
// process down. Once ctx is done no further task starts; tasks already
// running finish, and ForEachCtx returns ctx.Err() when no task failed.
// fn must only write to per-index state — the helper provides no other
// synchronization.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	done := ctx.Done()
	fails := make([]failure, workers)
	sh := NewShards(workers, func(w int) {
		for {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := call(fn, i); err != nil {
				metErrors.Inc()
				obs.Logger().Warn("parallel task failed", "task", i, "err", err)
				if fails[w].err == nil { // claims ascend: the first is the worker's lowest
					fails[w] = failure{i, err}
				}
			}
		}
	})
	if err := sh.Run(ctx, workers); err != nil {
		return err
	}

	first := failure{i: n}
	var longest time.Duration
	for w, f := range fails {
		if f.err != nil && f.i < first.i {
			first = f
		}
		longest = max(longest, sh.Elapsed(w))
	}
	// The longest worker reads 1; a batch too short for the clock to
	// tell its workers apart reads 1 throughout.
	busyMin, busyMean := 1.0, 1.0
	if longest > 0 {
		var sum float64
		for w := range workers {
			r := float64(sh.Elapsed(w)) / float64(longest)
			busyMin = min(busyMin, r)
			sum += r
		}
		busyMean = sum / float64(workers)
	}
	metBatch.ObserveDuration(longest)
	metTasks.Add(min(next.Load(), int64(n))) // tasks started
	metWorkers.Set(float64(workers))
	metWorkerBusyMin.Set(busyMin)
	metWorkerBusyAvg.Set(busyMean)
	// Enabled-gated: the variadic args would box on every call
	// otherwise, even with debug logging off.
	if l := obs.Logger(); l.Enabled(ctx, slog.LevelDebug) {
		l.Debug("parallel batch done", "tasks", n, "workers", workers,
			"elapsed", longest, "worker_busy_min", busyMin)
	}
	if first.err != nil {
		return first.err
	}
	return ctx.Err()
}

// call runs one task, converting a panic into the task's error so one
// bad task fails its batch instead of the whole process.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("par: task %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}
