// Compile-then-replay: the one way to run a circuit.
//
// RunCtx lowers the whole gate list to kernel ops (compileOps: per-gate
// fast paths, then fusion) before any amplitude is touched, and replays
// the ops in order onto a fresh state. The replay loop checks ctx
// between ops, so a deadline stops a deep run within one kernel pass.
package statevector

import (
	"context"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/obs"
)

// RunCtx applies every gate of the circuit to a fresh |0...0⟩ state and
// returns the final state. The gate list is compiled and fused before
// any amplitude is touched; the fused result matches the naiveApply
// oracle within 1e-12 per amplitude. The "sim.run" span parents under
// the span active in ctx, and while the run is live the amplitude shard
// fan-outs parent their "par.worker" spans under it. A ctx cancelled
// mid-run stops the replay between two ops and returns ctx's error.
func RunCtx(ctx context.Context, c *circuit.Circuit) (*State, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	ops, err := compileOps(c.N, c.Gates, true)
	if err != nil {
		return nil, err
	}
	s, err := New(c.N)
	if err != nil {
		return nil, err
	}
	runCtx, sp := obs.Start(ctx, "sim.run")
	s.ctx = runCtx
	err = s.replay(runCtx, ops)
	s.ctx = nil
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetAttr("circuit", c.Name)
	sp.SetAttr("width", c.N)
	sp.SetAttr("gates", len(c.Gates))
	sp.SetAttr("ops", len(ops))
	metRun.ObserveDuration(sp.End())
	metRuns.Inc()
	metGates.Add(int64(len(c.Gates)))
	metWidth.Set(float64(c.N))
	return s, nil
}

// replay applies compiled ops to the state in order, returning ctx's
// error before the first op that would start after a cancellation.
//
//qbeep:allocfree
func (s *State) replay(ctx context.Context, ops []op) error {
	for i := range ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.applyOp(ops[i])
	}
	return nil
}

// IdealDistCtx returns the exact output distribution of the circuit
// (scaled to probability 1): the paper's "true solution" reference.
func IdealDistCtx(ctx context.Context, c *circuit.Circuit) (*bitstring.Dist, error) {
	s, err := RunCtx(ctx, c)
	if err != nil {
		return nil, err
	}
	return s.Dist(), nil
}
