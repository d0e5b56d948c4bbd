package noise

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/testutil"
	"qbeep/internal/transpile"
)

// shardMatrix returns the shard counts the shot-stream tests sweep:
// 1, 2, 3 and 7 plus testutil.WorkerMatrix, deduplicated.
func shardMatrix(t testing.TB) []int {
	counts := []int{1, 2, 3, 7}
	for _, w := range testutil.WorkerMatrix(t) {
		if !slices.Contains(counts, w) {
			counts = append(counts, w)
		}
	}
	return counts
}

// withShotShards pins the shot engine's shard count to n (0 derives it)
// until the test ends.
func withShotShards(t testing.TB, n int) {
	prev := shotShardsOverride
	shotShardsOverride = n
	t.Cleanup(func() { shotShardsOverride = prev })
}

// requireSameDist fails unless the two distributions are bit-for-bit
// identical (same outcomes, same counts).
func requireSameDist(t *testing.T, label string, got, want *bitstring.Dist) {
	t.Helper()
	wantOut := want.Outcomes()
	if gotN, wantN := len(got.Outcomes()), len(wantOut); gotN != wantN {
		t.Fatalf("%s: %d outcomes, want %d", label, gotN, wantN)
	}
	for _, v := range wantOut {
		if got.Count(v) != want.Count(v) {
			t.Fatalf("%s: count[%v] = %v, want %v", label, v, got.Count(v), want.Count(v))
		}
	}
	if got.Total() != want.Total() {
		t.Fatalf("%s: total %v, want %v", label, got.Total(), want.Total())
	}
}

// TestExecuteBatchDeterministicAcrossBlocks pins the shot-stream
// contract for the two samplers on the shot engine: their counts are
// bit-identical at every shard count (shard count 1 is the serial loop),
// ExecuteCtx and ExecuteTranspiledCtx agree on the same transpilation,
// and every call advances the caller's generator by exactly one Uint64.
func TestExecuteBatchDeterministicAcrossBlocks(t *testing.T) {
	ctx := context.Background()
	b := testBackend(t)
	exec, err := NewExecutor(b, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	dens, err := NewDensityExecutor(b)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("batchdet", 4).H(0).CX(0, 1).CX(1, 2).CX(2, 3).MeasureAll()
	res, err := transpile.TranspileCtx(ctx, c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// More shots than one chunk per shard at the low shard counts.
	const shots = 1500
	samplers := []struct {
		name string
		run  func(rng *mathx.RNG) (*bitstring.Dist, error)
	}{
		{"execute", func(rng *mathx.RNG) (*bitstring.Dist, error) {
			run, err := exec.ExecuteCtx(ctx, c, shots, rng)
			if err != nil {
				return nil, err
			}
			return run.Counts, nil
		}},
		{"execute-transpiled", func(rng *mathx.RNG) (*bitstring.Dist, error) {
			run, err := exec.ExecuteTranspiledCtx(ctx, c, res, shots, rng)
			if err != nil {
				return nil, err
			}
			return run.Counts, nil
		}},
		{"density", func(rng *mathx.RNG) (*bitstring.Dist, error) {
			_, sampled, err := dens.ExecuteExact(ctx, c, shots, rng)
			return sampled, err
		}},
	}
	var wants []*bitstring.Dist
	for _, s := range samplers {
		var want *bitstring.Dist
		// 0 is the derived shard count.
		for _, n := range append(shardMatrix(t), 0) {
			withShotShards(t, n)
			rng := mathx.NewRNG(42)
			got, err := s.run(rng)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", s.name, n, err)
			}
			ref := mathx.NewRNG(42)
			ref.Uint64()
			if rng.Uint64() != ref.Uint64() {
				t.Fatalf("%s shards=%d: caller's generator did not advance by exactly one Uint64", s.name, n)
			}
			if got.Total() != shots {
				t.Fatalf("%s shards=%d: total %v, want %d", s.name, n, got.Total(), shots)
			}
			if want == nil {
				want = got
				continue
			}
			requireSameDist(t, s.name, got, want)
		}
		wants = append(wants, want)
	}
	// ExecuteCtx transpiles the way res was produced, so its counts are
	// ExecuteTranspiledCtx's.
	requireSameDist(t, "execute vs transpiled", wants[0], wants[1])
}

// TestSamplersReturnCancelled: with an already-cancelled ctx, every
// sampler on the shot engine returns context.Canceled, at one shard and
// across a fan-out.
func TestSamplersReturnCancelled(t *testing.T) {
	b := testBackend(t)
	exec, _ := NewExecutor(b, DefaultModel())
	dens, _ := NewDensityExecutor(b)
	c := ghz(4)
	res, err := transpile.TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 2} {
		withShotShards(t, n)
		_, err := exec.ExecuteCtx(ctx, c, 1000, mathx.NewRNG(1))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d ExecuteCtx: err %v, want context.Canceled", n, err)
		}
		_, err = exec.ExecuteTranspiledCtx(ctx, c, res, 1000, mathx.NewRNG(1))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d ExecuteTranspiledCtx: err %v, want context.Canceled", n, err)
		}
		_, _, err = dens.ExecuteExact(ctx, c, 1000, mathx.NewRNG(1))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d ExecuteExact: err %v, want context.Canceled", n, err)
		}
	}
	// The samplers stay usable after a cancelled run.
	if _, err := exec.ExecuteCtx(context.Background(), c, 100, mathx.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
}

// TestShotRunDeadlineStopsMidRun: a deadline that expires while
// shotEngine.run samples stops it at the next chunk boundary. One unit
// of unitShots shots is timed uncancelled; the long run samples 200
// units under a one-unit deadline and must return
// context.DeadlineExceeded within a quarter of its estimated uncancelled
// time, at one shard and at two.
func TestShotRunDeadlineStopsMidRun(t *testing.T) {
	const unitShots, units = 20000, 200
	d := bitstring.NewDist(10)
	for v := bitstring.BitString(0); v < 1<<10; v++ {
		d.Add(v, float64(v%7+1))
	}
	src := &distSampler{}
	src.outcomes, src.cum = distTable(d)
	for _, n := range []int{1, 2} {
		withShotShards(t, n)
		var eng shotEngine
		start := time.Now()
		if _, err := eng.run(context.Background(), src, 10, unitShots, 1, mathx.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
		unit := time.Since(start)

		ctx, cancel := context.WithTimeout(context.Background(), unit)
		var long shotEngine
		start = time.Now()
		_, err := long.run(ctx, src, 10, units*unitShots, 1, mathx.NewRNG(1))
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shards=%d: err %v, want context.DeadlineExceeded", n, err)
		}
		if budget := units * unit / 4; elapsed > budget {
			t.Fatalf("shards=%d: cancelled run took %v, want < %v (one unit: %v)", n, elapsed, budget, unit)
		}
	}
}

// TestCumTableConvergence: draws from a Bell state's cumulative table
// converge on its probabilities and never pick a zero-weight outcome.
func TestCumTableConvergence(t *testing.T) {
	tab := accumulate([]float64{0.5, 0, 0, 0.5})
	rng := mathx.NewRNG(1)
	var hits [4]int
	for i := 0; i < 20000; i++ {
		hits[tab.draw(rng)]++
	}
	if hits[1] != 0 || hits[2] != 0 {
		t.Error("drew a zero-weight outcome")
	}
	if p := float64(hits[0]) / 20000; math.Abs(p-0.5) > 0.02 {
		t.Errorf("p(00) = %v", p)
	}
}

// TestCumTableMatchesSeedSearch pins cumTable.draw to the seed
// repository's sampler: one uniform scaled by the running total, then a
// binary search for the first cumulative entry reaching it. The
// failure-event model's ideal and gate-qubit draws consume the RNG
// exactly this way.
func TestCumTableMatchesSeedSearch(t *testing.T) {
	w := []float64{0.1, 0, 0.25, 0.05, 0.3, 0, 0.2, 0.1}
	cum := make([]float64, len(w))
	var acc float64
	for i, v := range w {
		acc += v
		cum[i] = acc
	}
	seed := func(rng *mathx.RNG) int {
		u := rng.Float64() * acc
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	tab := accumulate(slices.Clone(w))
	got, want := mathx.NewRNG(42), mathx.NewRNG(42)
	for i := 0; i < 5000; i++ {
		if g, w := tab.draw(got), seed(want); g != w {
			t.Fatalf("draw %d: index %d, want %d", i, g, w)
		}
	}
}

// FuzzShotStreams: for random failure-event models, shot counts and
// shard counts, the counts equal the one-shard run bit for bit.
func FuzzShotStreams(f *testing.F) {
	f.Add(true, true, true, 1.2, true, 0.8, uint16(1000), uint8(3), uint64(1))
	f.Add(false, false, true, 0.0, false, 0.0, uint16(7), uint8(7), uint64(2))
	f.Add(true, false, false, 3.0, false, 2.0, uint16(600), uint8(2), uint64(3))
	b := testBackend(f)
	c := circuit.New("fuzz", 5).H(0).CX(0, 1).CX(1, 2).RZ(0.4, 2).CX(2, 3).CX(3, 4).MeasureAll()
	res, err := transpile.TranspileCtx(context.Background(), c, b, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, gate, deco, readout bool, burst float64, walk bool, jitter float64, shots uint16, shards uint8, seed uint64) {
		if math.IsNaN(burst) || math.IsNaN(jitter) || burst < 0 || burst > 10 || jitter < 0 || jitter > 3 {
			t.Skip()
		}
		m := Model{GateErrors: gate, Decoherence: deco, Readout: readout, BurstScale: burst, BurstWalk: walk, RateJitter: jitter}
		exec, err := NewExecutor(b, m)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + int(shards)%16
		sample := func(k int) *bitstring.Dist {
			withShotShards(t, k)
			run, err := exec.ExecuteTranspiledCtx(context.Background(), c, res, 1+int(shots)%4096, mathx.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			return run.Counts
		}
		want := sample(1)
		requireSameDist(t, "fuzz", sample(n), want)
	})
}
