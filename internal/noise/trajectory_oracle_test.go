package noise

import (
	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/mathx"
	"qbeep/internal/statevector"
)

// samplePerGateOracle is the retained reference implementation of the
// trajectory sampler: per-gate Apply with a freshly built Gate per Pauli
// injection, exactly as the pre-replay code path worked. It consumes the
// caller's generator and per-shot streams in the same order as
// TrajectorySampler.runShots, so SampleCtx must reproduce its counts
// bit-for-bit — the equivalence bar for the compiled-replay rewrite.
// It is also the slow side of the trajectory_replay_speedup benchparse
// ratio (BenchmarkTrajectoryPerGate).
func samplePerGateOracle(ts *TrajectorySampler, c *circuit.Circuit, init bitstring.BitString, shots int, rng *mathx.RNG) (*bitstring.Dist, error) {
	if err := ts.checkRequest(c, init, shots); err != nil {
		return nil, err
	}
	base := rng.Uint64()
	counts := bitstring.NewDist(c.N)
	st, err := statevector.New(c.N)
	if err != nil {
		return nil, err
	}
	st.SetWorkers(1)
	var probs []float64
	for s := 0; s < shots; s++ {
		srng := mathx.NewStream(base, uint64(s))
		if err := st.Reset(init); err != nil {
			return nil, err
		}
		for _, g := range c.Gates {
			if err := st.Apply(g); err != nil {
				return nil, err
			}
			if !g.Kind.IsUnitary() {
				continue
			}
			p := ts.err1q
			if len(g.Qubits) >= 2 {
				p = ts.err2q
			}
			if srng.Float64() < p {
				q := g.Qubits[srng.Intn(len(g.Qubits))]
				inj := circuit.Gate{Kind: pauliKinds[srng.Intn(3)], Qubits: []int{q}}
				if err := st.Apply(inj); err != nil {
					return nil, err
				}
			}
		}
		probs = st.ProbabilitiesInto(probs)
		out := sampleProbs(probs, srng)
		for q := 0; q < c.N; q++ {
			if srng.Float64() < ts.readout {
				out = out.FlipBit(q)
			}
		}
		counts.Add(out, 1)
	}
	return counts, nil
}
