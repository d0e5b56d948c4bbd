package noise

import (
	"context"
	"fmt"
	"math/bits"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/densitymatrix"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
)

// DensityExecutor evolves the full density matrix with calibrated Kraus
// channels after every gate: exact (no sampling error in the channel
// part) but O(4^n) in memory, so limited to small registers. It is the
// reference implementation the fast failure-event executor is validated
// against, and the most faithful conventional (Markovian) model in the
// repository.
//
// Channel placement per gate: a depolarizing channel with the calibrated
// gate error on each involved qubit (two-qubit errors split evenly), plus
// amplitude and phase damping accumulated over the gate duration; readout
// is a bit-flip channel before the diagonal is read out.
type DensityExecutor struct {
	backend *device.Backend
}

// NewDensityExecutor returns an exact executor for the backend.
func NewDensityExecutor(b *device.Backend) (*DensityExecutor, error) {
	if b == nil {
		return nil, fmt.Errorf("noise: nil backend")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &DensityExecutor{backend: b}, nil
}

// ExecuteExact evolves the logical circuit (gates act on logical qubits;
// calibration uses the mean device statistics, as the circuit is not
// routed here) and returns the exact outcome distribution, plus a sampled
// counts distribution when shots > 0, drawn on the shot engine (rng
// advances by one Uint64). The evolution checks ctx between gates and
// the shot engine between chunks, so a cancelled ctx returns ctx's
// error. The matrix's row shard fan-outs parent their worker spans
// under the span active in ctx.
func (e *DensityExecutor) ExecuteExact(ctx context.Context, c *circuit.Circuit, shots int, rng *mathx.RNG) (exact *bitstring.Dist, sampled *bitstring.Dist, err error) {
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	if c.N > densitymatrix.MaxQubits {
		return nil, nil, fmt.Errorf("noise: %d qubits exceeds density-matrix limit %d",
			c.N, densitymatrix.MaxQubits)
	}
	if shots < 0 {
		return nil, nil, fmt.Errorf("noise: negative shots %d", shots)
	}
	if shots > 0 && rng == nil {
		return nil, nil, fmt.Errorf("noise: nil RNG with shots > 0")
	}
	cal := e.backend.Calibration
	var err1q, err2q, dur1q, dur2q float64
	for _, g := range cal.Gates1Q {
		err1q += g.Error
		dur1q += g.Duration
	}
	err1q /= float64(len(cal.Gates1Q))
	dur1q /= float64(len(cal.Gates1Q))
	n2 := 0
	for _, e2 := range e.backend.Topology.Edges() {
		g := cal.Gates2Q[e2]
		err2q += g.Error
		dur2q += g.Duration
		n2++
	}
	if n2 > 0 {
		err2q /= float64(n2)
		dur2q /= float64(n2)
	}
	t1 := cal.MeanT1()
	t2 := cal.MeanT2()
	readout := cal.MeanReadoutError()

	dm, err := densitymatrix.New(c.N)
	if err != nil {
		return nil, nil, err
	}
	dm.SetContext(ctx)
	for _, g := range c.Gates {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := dm.Apply(g); err != nil {
			return nil, nil, err
		}
		if !g.Kind.IsUnitary() || g.Kind == circuit.Barrier {
			continue
		}
		gateErr, dur := err1q, dur1q
		if len(g.Qubits) >= 2 {
			gateErr, dur = err2q, dur2q
		}
		// Depolarizing share per involved qubit; damping over the gate
		// duration on the same qubits.
		perQubit := gateErr / float64(len(g.Qubits))
		gamma := 1 - expNeg(dur/t1)
		lambda := 1 - expNeg(dur/t2)
		for _, q := range g.Qubits {
			if err := dm.Channel(q, densitymatrix.Depolarizing(4*perQubit/3)); err != nil {
				return nil, nil, err
			}
			if err := dm.Channel(q, densitymatrix.AmplitudeDamping(gamma)); err != nil {
				return nil, nil, err
			}
			if err := dm.Channel(q, densitymatrix.PhaseDamping(lambda)); err != nil {
				return nil, nil, err
			}
		}
	}
	// Readout flips.
	if readout > 0 {
		for q := 0; q < c.N; q++ {
			if err := dm.Channel(q, densitymatrix.BitFlip(readout)); err != nil {
				return nil, nil, err
			}
		}
	}
	exact = dm.Dist()
	if shots > 0 {
		ds := &distSampler{}
		ds.outcomes, ds.cum = distTable(exact)
		var eng shotEngine
		if sampled, err = eng.run(ctx, ds, exact.Width(), shots, 1+bits.Len(uint(len(ds.outcomes))), rng); err != nil {
			return nil, nil, err
		}
	}
	return exact, sampled, nil
}
