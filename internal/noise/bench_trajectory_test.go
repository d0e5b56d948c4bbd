package noise

import (
	"context"
	"testing"

	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
)

// BenchmarkTrajectory measures the parallel Monte Carlo sampler on a
// 12-qubit circuit: buffer-reusing trajectories with per-shot RNG
// streams (recorded in BENCH_sim.json).
func BenchmarkTrajectory(b *testing.B) {
	ts, err := NewTrajectorySampler(testBackend(b))
	if err != nil {
		b.Fatal(err)
	}
	c := circuit.New("traj-bench", 12).H(0)
	for q := 0; q+1 < 12; q++ {
		c.CX(q, q+1)
	}
	for q := 0; q < 12; q++ {
		c.RZ(0.2+0.05*float64(q), q)
	}
	c.MeasureAll()
	rng := mathx.NewRNG(7)
	// One untimed call materializes the shard arenas (state buffers,
	// local Dists): trajectory_allocs_steady reads allocs/op as the
	// steady state, which the first call's one-time allocations would
	// otherwise inflate by about 50/b.N.
	if _, err := ts.SampleCtx(context.Background(), c, 0, 100, rng); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.SampleCtx(context.Background(), c, 0, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajectoryPerGate runs the same workload through the retained
// per-gate oracle (per-shot gate lowering, allocated injection gates):
// the before side of the trajectory_replay_speedup ratio in
// BENCH_sim.json.
func BenchmarkTrajectoryPerGate(b *testing.B) {
	ts, err := NewTrajectorySampler(testBackend(b))
	if err != nil {
		b.Fatal(err)
	}
	c := circuit.New("traj-bench", 12).H(0)
	for q := 0; q+1 < 12; q++ {
		c.CX(q, q+1)
	}
	for q := 0; q < 12; q++ {
		c.RZ(0.2+0.05*float64(q), q)
	}
	c.MeasureAll()
	rng := mathx.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := samplePerGateOracle(ts, c, 0, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}
