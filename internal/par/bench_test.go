package par

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkForEachTinyTasks measures dispatch overhead when the tasks
// themselves are nearly free — the regime where the buffered dispatch
// channel matters: with an unbuffered channel every task pays a
// synchronous producer→worker handoff, which serializes the batch.
func BenchmarkForEachTinyTasks(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var sink atomic.Int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ForEachCtx(context.Background(), 256, workers, func(int) error {
					sink.Add(1)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardsRun measures one allocation-free fan-out through a
// pre-bound Shards value — the per-phase cost the flow iteration and the
// sharded simulation kernels pay.
func BenchmarkShardsRun(b *testing.B) {
	var sink atomic.Int64
	sh := NewShards(2, func(k int) { sink.Add(int64(k)) })
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sh.Run(ctx, 2); err != nil {
			b.Fatal(err)
		}
	}
}
