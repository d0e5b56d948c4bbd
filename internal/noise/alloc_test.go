package noise

import (
	"context"
	"testing"

	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

// TestTrajectorySteadyStateAllocs pins the sampler's arena-reuse
// contract at runtime (the static side is the //qbeep:pooled marker on
// trajArena plus the allocfree facts on the replay path): once the
// arenas are warm, the per-shot cost is zero heap allocations —
// everything SampleCtx still allocates is per-call (the merged result Dist,
// span bookkeeping) and independent of the shot count. Measured as the
// marginal allocations between a small and a large batch, so the
// per-call constant cancels instead of needing a brittle absolute bound.
func TestTrajectorySteadyStateAllocs(t *testing.T) {
	ts, err := NewTrajectorySampler(testBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	ts.SetWorkers(1)
	c := circuit.New("alloc-probe", 5).H(0)
	for q := 0; q+1 < 5; q++ {
		c.CX(q, q+1)
	}
	c.MeasureAll()
	rng := mathx.NewRNG(17)

	sample := func(shots int) {
		if _, err := ts.SampleCtx(context.Background(), c, 0, shots, rng); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the arenas: state buffer, probability scratch, local Dist all
	// materialize on the first wide-enough batch.
	sample(600)

	small := testing.AllocsPerRun(10, func() { sample(50) })
	large := testing.AllocsPerRun(10, func() { sample(550) })
	marginal := (large - small) / 500
	if marginal > 0.02 {
		t.Fatalf("steady-state sampler allocates %.3f per shot (50-shot call: %.1f, 550-shot call: %.1f)",
			marginal, small, large)
	}
	// The per-call constant should stay modest too — a regression that
	// moves work from the arenas to per-call allocation would pass the
	// marginal check while still trashing the batch loop.
	if small > 25 {
		t.Fatalf("per-call allocation constant regressed: %.1f allocations for a 50-shot batch", small)
	}
}
