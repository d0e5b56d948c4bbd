package par

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	const n = 100
	results := make([]int, n)
	err := ForEachCtx(context.Background(), n, 8, func(i int) error {
		results[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestForEachSequentialFallback(t *testing.T) {
	order := make([]int, 0, 5)
	err := ForEachCtx(context.Background(), 5, 1, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order violated: %v", order)
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	var calls int64
	err := ForEachCtx(context.Background(), 50, 4, func(i int) error {
		atomic.AddInt64(&calls, 1)
		if i == 13 {
			return fmt.Errorf("boom at %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if calls != 50 {
		t.Fatalf("tasks should all run; got %d", calls)
	}
}

// TestForEachStatsErrorMidBatch pins the documented behaviour: a
// mid-batch error is reported (with its index) but every remaining task
// still runs to completion.
func TestForEachStatsErrorMidBatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls int64
		const n = 60
		stats, err := forEachStats(context.Background(), n, workers, func(i int) error {
			atomic.AddInt64(&calls, 1)
			if i == 7 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom at 7") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if got := atomic.LoadInt64(&calls); got != n {
			t.Fatalf("workers=%d: only %d of %d tasks ran after mid-batch error", workers, got, n)
		}
		if stats.firstErr != 7 {
			t.Fatalf("workers=%d: FirstErr = %d, want 7", workers, stats.firstErr)
		}
	}
}

// TestForEachStatsFirstErrMatchesError checks the index always names the
// task whose error was returned, even when several tasks fail.
func TestForEachStatsFirstErrMatchesError(t *testing.T) {
	stats, err := forEachStats(context.Background(), 40, 4, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if want := fmt.Sprintf("fail %d", stats.firstErr); err.Error() != want {
		t.Fatalf("FirstErr %d does not match returned error %q", stats.firstErr, err)
	}
}

func TestForEachStatsDurations(t *testing.T) {
	const n = 8
	stats, err := forEachStats(context.Background(), n, 4, func(i int) error {
		time.Sleep(time.Duration(i%2+1) * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.durations) != n {
		t.Fatalf("got %d durations, want %d", len(stats.durations), n)
	}
	for i, d := range stats.durations {
		if d < time.Millisecond {
			t.Fatalf("task %d duration %v implausibly small", i, d)
		}
	}
	if stats.firstErr != -1 {
		t.Fatalf("FirstErr = %d on a clean batch", stats.firstErr)
	}
	if stats.workers != 4 || stats.elapsed <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if u := stats.utilization(); u <= 0 || u > 1.5 {
		t.Fatalf("utilization = %v outside plausible range", u)
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEachCtx(context.Background(), 0, 4, func(int) error { return fmt.Errorf("nope") }); err != nil {
		t.Fatal("zero tasks should be a no-op")
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var sum int64
	if err := ForEachCtx(context.Background(), 200, 0, func(i int) error {
		atomic.AddInt64(&sum, int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 199*200/2 {
		t.Fatalf("sum %d", sum)
	}
}

// TestWorkerBusyAccounting: every worker's busy clock must be populated,
// their sum must equal the summed task durations, and the busy-ratio
// reduction must stay ordered and within [0, 1].
func TestWorkerBusyAccounting(t *testing.T) {
	const n, workers = 32, 4
	stats, err := forEachStats(context.Background(), n, workers, func(i int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.workerBusy) != workers {
		t.Fatalf("WorkerBusy has %d entries, want %d", len(stats.workerBusy), workers)
	}
	var fromWorkers, fromTasks time.Duration
	for _, b := range stats.workerBusy {
		fromWorkers += b
	}
	for _, d := range stats.durations {
		fromTasks += d
	}
	if fromWorkers != fromTasks {
		t.Fatalf("worker busy sum %v != task duration sum %v", fromWorkers, fromTasks)
	}
	min, mean, max := stats.workerBusyRatios()
	if min < 0 || min > mean || mean > max || max > 1 {
		t.Fatalf("busy ratios min/mean/max = %v/%v/%v not ordered in [0,1]", min, mean, max)
	}
	if max <= 0 {
		t.Fatal("no worker reported busy time")
	}
}

// TestWorkerBusySingleWorker: the sequential fast path accounts its one
// worker too.
func TestWorkerBusySingleWorker(t *testing.T) {
	stats, err := forEachStats(context.Background(), 8, 1, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.workerBusy) != 1 || stats.workerBusy[0] <= 0 {
		t.Fatalf("WorkerBusy = %v", stats.workerBusy)
	}
	if _, _, max := stats.workerBusyRatios(); max <= 0 {
		t.Fatal("single-worker busy ratio is zero")
	}
}

// TestForEachPanicBecomesError: a panicking task fails the batch with
// an error naming its index and the panic value, the other tasks still
// run, and batchStats.firstErr points at the panicking task.
func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls int64
		const n = 20
		stats, err := forEachStats(context.Background(), n, workers, func(i int) error {
			atomic.AddInt64(&calls, 1)
			if i == 11 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was swallowed", workers)
		}
		if msg := err.Error(); !strings.Contains(msg, "task 11") || !strings.Contains(msg, "kaboom") {
			t.Fatalf("workers=%d: err = %q, want the task index and panic value", workers, msg)
		}
		if stats.firstErr != 11 {
			t.Fatalf("workers=%d: FirstErr = %d, want 11", workers, stats.firstErr)
		}
		if got := atomic.LoadInt64(&calls); got != n {
			t.Fatalf("workers=%d: %d of %d tasks ran", workers, got, n)
		}
	}
}
