// Package par provides a minimal deterministic fan-out helper for the
// experiment runners: tasks are prepared sequentially (so every task owns
// a pre-split RNG and the corpus is identical regardless of concurrency),
// then executed across workers, with results written into index-addressed
// slots.
package par

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"qbeep/internal/obs"
)

// Fan-out metrics (see internal/obs): per-task wall time, batch wall
// time, the busy fraction of the worker pool over the last batch, and
// the per-worker busy-ratio spread (min/mean/max across the pool) that
// separates "pool saturated" from "one straggler worker".
var (
	metTask          = obs.Default.Histogram("par.task_seconds")
	metBatch         = obs.Default.Timer("par.batch")
	metTasks         = obs.Default.Counter("par.tasks")
	metErrors        = obs.Default.Counter("par.errors")
	metWorkers       = obs.Default.Gauge("par.workers")
	metUtilization   = obs.Default.Gauge("par.utilization")
	metWorkerBusyMin = obs.Default.Gauge("par.worker_busy_ratio_min")
	metWorkerBusyAvg = obs.Default.Gauge("par.worker_busy_ratio_mean")
	metWorkerBusyMax = obs.Default.Gauge("par.worker_busy_ratio_max")
)

// Stats describes one ForEachStatsCtx batch.
type Stats struct {
	// Durations holds the wall time of each task, index-addressed.
	Durations []time.Duration
	// WorkerBusy holds, per worker, the summed wall time of the tasks
	// that worker executed. len(WorkerBusy) == Workers; a worker's idle
	// time is Elapsed minus its entry.
	WorkerBusy []time.Duration
	// FirstErr is the index of the task whose error ForEachStatsCtx
	// returned (the first error observed), or -1 if every task
	// succeeded. Later tasks still ran to completion.
	FirstErr int
	// Workers is the resolved worker count.
	Workers int
	// Elapsed is the batch wall time.
	Elapsed time.Duration
}

// Utilization returns the busy fraction of the worker pool:
// Σ task durations / (workers × batch wall time), in [0, 1] up to
// scheduler noise. Low values flag batches dominated by one long task.
func (s Stats) Utilization() float64 {
	if s.Workers <= 0 || s.Elapsed <= 0 {
		return 0
	}
	var busy time.Duration
	for _, d := range s.Durations {
		busy += d
	}
	return busy.Seconds() / (float64(s.Workers) * s.Elapsed.Seconds())
}

// WorkerBusyRatios returns the per-worker busy fractions (WorkerBusy[w]
// / Elapsed) reduced to their min, mean and max. A wide min-max spread
// with a healthy mean means the queue drained unevenly — the telemetry
// the par_worker_busy_ratio_* gauges carry to /metrics.
func (s Stats) WorkerBusyRatios() (min, mean, max float64) {
	if len(s.WorkerBusy) == 0 || s.Elapsed <= 0 {
		return 0, 0, 0
	}
	wall := s.Elapsed.Seconds()
	for i, busy := range s.WorkerBusy {
		r := busy.Seconds() / wall
		if r > 1 {
			r = 1 // scheduler noise: task clocks can overrun the batch clock
		}
		if i == 0 || r < min {
			min = r
		}
		if r > max {
			max = r
		}
		mean += r
	}
	mean /= float64(len(s.WorkerBusy))
	return min, mean, max
}

// ForEachCtx runs fn(i) for every i in [0, n) across at most workers
// goroutines (GOMAXPROCS when workers <= 0). It returns the first error
// encountered; other tasks still run to completion. A task that panics
// fails with an error naming its index and the panic value instead of
// taking the process down. fn must only write to per-index state — the
// helper provides no other synchronization. When tracing is enabled,
// each worker goroutine runs under a "par.worker" span parented to the
// span active in ctx, so fan-out regions show their per-worker
// utilization in the trace forest.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	_, err := ForEachStatsCtx(ctx, n, workers, fn)
	return err
}

// ForEachStatsCtx is ForEachCtx plus per-task timing: every task's
// duration is recorded (index-addressed in the returned Stats and
// observed into the "par.task_seconds" histogram), errors are logged
// with their task index, and the batch's worker utilization is
// published as the "par.utilization" gauge.
func ForEachStatsCtx(ctx context.Context, n, workers int, fn func(i int) error) (Stats, error) {
	stats := Stats{FirstErr: -1}
	if n <= 0 {
		return stats, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	stats.Workers = workers
	stats.Durations = make([]time.Duration, n)
	stats.WorkerBusy = make([]time.Duration, workers)
	batchStart := time.Now()

	// Task observations carry the batch's trace so the worst par_task
	// sample on /metrics names the trace to open in qbeep-trace. The
	// lookup happens once per batch, not per task.
	var traceID uint64
	if obs.TracingEnabled() {
		traceID = obs.TraceIDFrom(ctx)
	}

	var (
		mu    sync.Mutex
		first error
	)
	runTask := func(i int) time.Duration {
		t0 := time.Now()
		err := call(fn, i)
		d := time.Since(t0)
		stats.Durations[i] = d // per-index slot: no lock needed
		metTask.ObserveTrace(d.Seconds(), traceID)
		if err != nil {
			metErrors.Inc()
			obs.Logger().Warn("parallel task failed", "task", i, "err", err)
			mu.Lock()
			if first == nil {
				first = err
				stats.FirstErr = i
			}
			mu.Unlock()
		}
		return d
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			stats.WorkerBusy[0] += runTask(i)
		}
	} else {
		// Fully buffered dispatch, filled and closed before the workers
		// start: fine-grained batches never serialize on a synchronous
		// channel handoff, and workers drain the queue without ever
		// blocking on the producer (BenchmarkForEachTinyTasks).
		next := make(chan int, n)
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				t0 := time.Now()
				_, wsp := obs.Start(ctx, "par.worker")
				tasks := 0
				var busy time.Duration
				for i := range next {
					busy += runTask(i)
					tasks++
				}
				stats.WorkerBusy[w] = busy // per-worker slot: no lock needed
				wsp.SetAttr("worker", w)
				wsp.SetAttr("tasks", tasks)
				wsp.SetAttr("busy_ns", busy.Nanoseconds())
				wsp.SetAttr("idle_ns", max64(time.Since(t0).Nanoseconds()-busy.Nanoseconds(), 0))
				wsp.End()
			}(w)
		}
		wg.Wait()
	}

	stats.Elapsed = time.Since(batchStart)
	metBatch.ObserveDuration(stats.Elapsed)
	metTasks.Add(int64(n))
	metWorkers.Set(float64(workers))
	metUtilization.Set(stats.Utilization())
	busyMin, busyMean, busyMax := stats.WorkerBusyRatios()
	metWorkerBusyMin.Set(busyMin)
	metWorkerBusyAvg.Set(busyMean)
	metWorkerBusyMax.Set(busyMax)
	// Enabled-gated: the variadic args box on every call otherwise, which
	// alone would break the trajectory sampler's steady-state alloc pin.
	if l := obs.Logger(); l.Enabled(ctx, slog.LevelDebug) {
		l.Debug("parallel batch done",
			"tasks", n, "workers", workers, "elapsed", stats.Elapsed,
			"utilization", stats.Utilization(), "worker_busy_min", busyMin,
			"worker_busy_max", busyMax, "first_err_index", stats.FirstErr)
	}
	return stats, first
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

// max64 avoids a negative idle reading when the rounding of the two
// clocks disagrees.
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
