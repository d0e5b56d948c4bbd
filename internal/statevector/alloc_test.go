package statevector

import (
	"context"
	"testing"

	"qbeep/internal/mathx"
)

// TestRunProgramAllocationFree pins the replay contract the gcfacts gate
// certifies statically (//qbeep:allocfree on replay and the kernel range
// functions): replaying compiled ops onto a single-shard state performs
// zero heap allocations. The static fact is per-frame; this test is the
// end-to-end runtime witness across the whole replay call tree.
func TestRunProgramAllocationFree(t *testing.T) {
	rng := mathx.NewRNG(99)
	c := randomCircuit(8, 60, rng)
	ops, err := compileOps(c.N, c.Gates, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewBasis(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(1)
	ctx := context.Background()
	if n := testing.AllocsPerRun(50, func() {
		if err := s.replay(ctx, ops); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("replay allocates %v per run", n)
	}
}
