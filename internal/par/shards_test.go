package par

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

// TestShardsConcurrent runs many rounds through one Shards value with a
// varying shard count: every round each shard writes only its own range
// of a shared slice, the next round reads what the previous one wrote,
// and the result must equal a serial sweep. Run under -race it also
// checks that Run orders the owner's field writes before the shards and
// the shards' writes before its return.
func TestShardsConcurrent(t *testing.T) {
	const total = 1000
	type owner struct {
		data  []int
		round int
		n     int
	}
	o := &owner{data: make([]int, total)}
	sh := NewShards(4, func(k int) {
		lo, hi := Range(k, o.n, total)
		for i := lo; i < hi; i++ {
			o.data[i] += o.round * i
		}
	})
	want := make([]int, total)
	for round := 1; round <= 50; round++ {
		o.round, o.n = round, round%4+1
		if err := sh.Run(context.Background(), o.n); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] += round * i
		}
	}
	for i := range want {
		if o.data[i] != want[i] {
			t.Fatalf("data[%d] = %d want %d", i, o.data[i], want[i])
		}
	}
}

// TestShardsPanicBecomesError: a panicking shard fails the run with its
// index and panic value, the other shards still finish, and the next run
// starts clean.
func TestShardsPanicBecomesError(t *testing.T) {
	var ran atomic.Int64
	fail := true
	sh := NewShards(3, func(k int) {
		ran.Add(1)
		if fail && k == 2 {
			panic("kaboom")
		}
	})
	err := sh.Run(context.Background(), 3)
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want shard 2's panic", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d of 3 shards ran", got)
	}
	fail = false
	if err := sh.Run(context.Background(), 3); err != nil {
		t.Fatalf("clean run after a panic: %v", err)
	}
}

// TestShardsClampAndRange: Run clamps its count to [1, Len()], and Range
// tiles [0, total) exactly.
func TestShardsClampAndRange(t *testing.T) {
	var ran atomic.Int64
	sh := NewShards(2, func(int) { ran.Add(1) })
	for _, n := range []int{0, 1, 2, 9} {
		ran.Store(0)
		if err := sh.Run(context.Background(), n); err != nil {
			t.Fatal(err)
		}
		want := int64(min(max(n, 1), 2))
		if got := ran.Load(); got != want {
			t.Fatalf("Run(%d) ran %d shards, want %d", n, got, want)
		}
	}
	for _, c := range []struct{ n, total int }{{1, 10}, {3, 10}, {4, 3}, {7, 100}} {
		next := 0
		for k := 0; k < c.n; k++ {
			lo, hi := Range(k, c.n, c.total)
			if lo != next || hi < lo {
				t.Fatalf("Range(%d,%d,%d) = [%d,%d) after %d", k, c.n, c.total, lo, hi, next)
			}
			next = hi
		}
		if next != c.total {
			t.Fatalf("n=%d total=%d: ranges end at %d", c.n, c.total, next)
		}
	}
}

// TestShardsRunAllocationFree pins the primitive's contract: after
// NewShards, a run allocates nothing.
func TestShardsRunAllocationFree(t *testing.T) {
	var sink atomic.Int64
	sh := NewShards(2, func(k int) { sink.Add(int64(k)) })
	ctx := context.Background()
	_ = sh.Run(ctx, 2)
	if n := testing.AllocsPerRun(200, func() {
		_ = sh.Run(ctx, 2)
	}); n != 0 {
		t.Fatalf("Run allocates %v per call", n)
	}
}
