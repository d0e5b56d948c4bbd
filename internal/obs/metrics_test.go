package obs

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// get-or-create races, counter adds, gauge sets, histogram observes —
// and checks the totals. Run under -race (the Makefile race target
// does).
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Gauge("gauge").Set(float64(i))
				r.Histogram("hist").Observe(float64(i))
				r.Timer("timer").ObserveDuration(time.Microsecond)
				r.Counter("own").Add(2)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("own").Value(); got != 2*workers*perWorker {
		t.Fatalf("own counter = %d, want %d", got, 2*workers*perWorker)
	}
	if got := r.Histogram("hist").Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
	if g := r.Gauge("gauge").Value(); g < 0 || g >= perWorker {
		t.Fatalf("gauge value %v outside [0,%d)", g, perWorker)
	}
}

// TestHistogramObserveSnapshotConcurrent races readers against writers:
// Snapshot, Quantile and CumulativeBuckets run while Observe is in
// flight. The invariants checked are the ones a torn read would break;
// the real assertion is the race detector on the Makefile race target.
func TestHistogramObserveSnapshotConcurrent(t *testing.T) {
	var h Histogram
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if s.Count > 0 && (s.Min > s.Max || s.Sum < 0) {
					t.Errorf("torn snapshot: %+v", s)
					return
				}
				_ = h.Quantile(0.5)
				counts := h.CumulativeBuckets()
				var prev int64
				for i, c := range counts {
					if c < prev {
						t.Errorf("bucket %d not cumulative: %v", i, counts)
						return
					}
					prev = c
				}
				// The +Inf bucket was taken before this Count read, so it
				// can only lag behind.
				if len(counts) > 0 && counts[len(counts)-1] > h.Count() {
					t.Errorf("+Inf bucket %d exceeds count", counts[len(counts)-1])
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(w*perWriter+i) * 1e-6)
			}
		}(w)
	}
	// Writers finish first; then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	closeAfterWriters(&h, writers*perWriter, stop)
	<-done
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
}

// closeAfterWriters spins until the histogram has absorbed every write,
// then stops the reader goroutines.
func closeAfterWriters(h *Histogram, want int, stop chan struct{}) {
	for h.Count() < int64(want) {
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.25)
	g.Add(-0.75)
	if v := g.Value(); math.Abs(v-3) > 1e-12 {
		t.Fatalf("gauge = %v, want 3", v)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..100: exact order statistics under linear interpolation.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.9, 90.1}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", s.Mean)
	}
}

func TestHistogramWindowSlides(t *testing.T) {
	var h Histogram
	// Overflow the window: lifetime min/max keep the early extremes but
	// quantiles reflect only the recent window.
	h.Observe(-1000)
	for i := 0; i < 2*histWindow; i++ {
		h.Observe(5)
	}
	if h.Snapshot().Min != -1000 {
		t.Fatalf("lifetime min lost: %+v", h.Snapshot())
	}
	if q := h.Quantile(0.01); q != 5 {
		t.Fatalf("windowed quantile = %v, want 5", q)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

// TestTimerObservesSpanEnd is the timing idiom every call site uses:
// the timer records the span's own duration, so with tracing off it
// still times and with tracing on it agrees with the trace exactly.
func TestTimerObservesSpanEnd(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var c CollectorSink
		if traced {
			SetSpanSink(&c)
		}
		var tm Timer
		_, sp := Start(context.Background(), "timed")
		time.Sleep(time.Millisecond)
		tm.ObserveDuration(sp.End())
		SetSpanSink(nil)
		if tm.Count() != 1 {
			t.Fatalf("traced=%v: timer count = %d", traced, tm.Count())
		}
		if tm.Sum() < time.Millisecond.Seconds() {
			t.Fatalf("traced=%v: timer sum = %v, want >= 1ms", traced, tm.Sum())
		}
		if ev := c.Events(); traced && (len(ev) != 1 || ev[0].Duration.Seconds() != tm.Sum()) {
			t.Fatalf("timer sum %v disagrees with the delivered span %+v", tm.Sum(), ev)
		}
	}
}

func TestSnapshotIsJSONMarshalable(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(2.5)
	r.Timer("t").ObserveDuration(3 * time.Millisecond)
	r.Histogram("h").Observe(7)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"counters", "gauges", "timers_seconds", "histograms"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("snapshot missing %q: %s", key, data)
		}
	}
}

// TestCounterDisabledPathAllocs pins the hot-path cost: metric updates
// must not allocate.
func TestCounterDisabledPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	g := r.Gauge("hotg")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
	}); n != 0 {
		t.Fatalf("counter/gauge update allocates %v per op", n)
	}
}
