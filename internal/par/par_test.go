package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qbeep/internal/testutil"
)

// Every ForEachCtx test below sweeps the worker counts of
// testutil.WorkerMatrix: 1, 2, 4 and 8, GOMAXPROCS, and any
// QBEEP_TEST_WORKERS extras.

func TestForEachRunsAll(t *testing.T) {
	const n = 100
	for _, workers := range testutil.WorkerMatrix(t) {
		runs := make([]atomic.Int32, n)
		if err := ForEachCtx(context.Background(), n, workers, func(i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
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

// TestForEachPropagatesError: when tasks 3 and 7 both fail, task 3's
// error comes back at every worker count — even though task 3 is slow
// and task 7 usually fails first — and every other task still runs.
func TestForEachPropagatesError(t *testing.T) {
	const n = 50
	for _, workers := range testutil.WorkerMatrix(t) {
		var calls atomic.Int64
		err := ForEachCtx(context.Background(), n, workers, func(i int) error {
			calls.Add(1)
			switch i {
			case 3:
				time.Sleep(time.Millisecond)
				return fmt.Errorf("fail %d", i)
			case 7:
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 3" {
			t.Fatalf("workers=%d: err = %v, want task 3's", workers, err)
		}
		if got := calls.Load(); got != n {
			t.Fatalf("workers=%d: %d of %d tasks ran", workers, got, n)
		}
	}
}

// TestForEachPanicBecomesError: a panicking task fails the batch with
// an error naming its index and the panic value, and the other tasks
// still run.
func TestForEachPanicBecomesError(t *testing.T) {
	const n = 20
	for _, workers := range testutil.WorkerMatrix(t) {
		var calls atomic.Int64
		err := ForEachCtx(context.Background(), n, workers, func(i int) error {
			calls.Add(1)
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
		if got := calls.Load(); got != n {
			t.Fatalf("workers=%d: %d of %d tasks ran", workers, got, n)
		}
	}
}

// TestForEachHonoursCtx: once a task cancels the batch's ctx, workers
// stop claiming tasks and ForEachCtx reports the cancellation.
func TestForEachHonoursCtx(t *testing.T) {
	const n = 10000
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		err := ForEachCtx(ctx, n, workers, func(i int) error {
			calls.Add(1)
			if i == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := calls.Load(); got > n/10 {
			t.Fatalf("workers=%d: %d of %d tasks ran after cancellation", workers, got, n)
		}
	}
}

// TestForEachStatsErrorMidBatch: a task failing mid-batch does not stop
// the others, and its error is the one returned.
func TestForEachStatsErrorMidBatch(t *testing.T) {
	const n = 60
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		err := ForEachCtx(context.Background(), n, workers, func(i int) error {
			calls.Add(1)
			if i == 7 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "boom at 7") {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if got := calls.Load(); got != n {
			t.Fatalf("workers=%d: only %d of %d tasks ran after mid-batch error", workers, got, n)
		}
	}
}

// TestForEachStatsFirstErrMatchesError: with every third task failing,
// the returned error is the lowest-index one, task 0's.
func TestForEachStatsFirstErrMatchesError(t *testing.T) {
	err := ForEachCtx(context.Background(), 40, 4, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 0" {
		t.Fatalf("err = %v, want task 0's", err)
	}
}

// TestForEachStatsDurations: each shard's "par.worker" span duration
// covers the work it ran, and a ForEachCtx batch observes par.batch as
// at least its longest task.
func TestForEachStatsDurations(t *testing.T) {
	sh := NewShards(4, func(k int) { time.Sleep(time.Duration(k%2+1) * time.Millisecond) })
	if err := sh.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	for k := range sh.Len() {
		if d, want := sh.Elapsed(k), time.Duration(k%2+1)*time.Millisecond; d < want {
			t.Fatalf("shard %d duration %v, want >= %v", k, d, want)
		}
	}

	before := metBatch.Snapshot()
	if err := ForEachCtx(context.Background(), 8, 4, func(i int) error {
		time.Sleep(time.Duration(i%2+1) * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := metBatch.Snapshot()
	if after.Count != before.Count+1 || after.Sum-before.Sum < (2*time.Millisecond).Seconds() {
		t.Fatalf("par.batch %+v -> %+v, want one observation >= 2ms", before, after)
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

// TestWorkerBusyAccounting: after a batch, par.batch has observed the
// longest worker span (at least one task's sleep), and the busy-ratio
// gauges lie in (0, 1].
func TestWorkerBusyAccounting(t *testing.T) {
	const sleep = 200 * time.Microsecond
	for _, workers := range testutil.WorkerMatrix(t) {
		before := metBatch.Snapshot()
		if err := ForEachCtx(context.Background(), 16, workers, func(int) error {
			time.Sleep(sleep)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		after := metBatch.Snapshot()
		if after.Count != before.Count+1 || after.Sum-before.Sum < sleep.Seconds() {
			t.Fatalf("workers=%d: par.batch %+v -> %+v, want one observation >= %v", workers, before, after, sleep)
		}
		lo, mean := metWorkerBusyMin.Value(), metWorkerBusyAvg.Value()
		if lo <= 0 || lo > mean || mean > 1 {
			t.Fatalf("workers=%d: busy ratios min/mean = %v/%v, want ordered in (0, 1]", workers, lo, mean)
		}
	}
}

// TestWorkerBusySingleWorker: a one-worker batch is its own longest
// worker, so every busy ratio reads exactly 1.
func TestWorkerBusySingleWorker(t *testing.T) {
	if err := ForEachCtx(context.Background(), 8, 1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if lo, mean := metWorkerBusyMin.Value(), metWorkerBusyAvg.Value(); lo != 1 || mean != 1 {
		t.Fatalf("busy ratios min/mean = %v/%v, want 1/1", lo, mean)
	}
}
