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
