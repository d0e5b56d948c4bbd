package noise

import (
	"context"
	"fmt"
	"math"
	"time"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/par"
	"qbeep/internal/statevector"
	"qbeep/internal/transpile"
)

// Induction metrics (see internal/obs): sampling throughput, the
// correlated-burst channel's realized event stream, and the worker-pool
// occupancy (busy fraction) of the most recent blocked induction.
var (
	metExecute        = obs.Default.Timer("noise.execute")
	metShots          = obs.Default.Counter("noise.shots")
	metShotsPerSec    = obs.Default.Gauge("noise.shots_per_sec")
	metBurstEvents    = obs.Default.Counter("noise.burst.events")
	metBurstFlips     = obs.Default.Counter("noise.burst.flips")
	metBatchOccupancy = obs.Default.Gauge("sim.batch.occupancy")
)

// Run is the outcome of a noisy induction: the raw logical counts, the
// ideal reference distribution, the transpilation artifacts and the
// realized event rates.
type Run struct {
	Counts     *bitstring.Dist // noisy logical measurement counts
	Ideal      *bitstring.Dist // exact noiseless logical distribution
	Transpiled *transpile.Result
	Rates      EventRates
	Shots      int
}

// Executor runs logical circuits on a backend under a Model. The zero
// value is unusable; construct with NewExecutor.
type Executor struct {
	backend *device.Backend
	model   Model
}

// NewExecutor returns an executor for the backend and model.
func NewExecutor(b *device.Backend, m Model) (*Executor, error) {
	if b == nil {
		return nil, fmt.Errorf("noise: nil backend")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &Executor{backend: b, model: m}, nil
}

// Backend returns the executor's backend.
func (e *Executor) Backend() *device.Backend { return e.backend }

// ExecuteCtx transpiles c onto the backend and samples shots measurement
// outcomes under the failure-event model. The ideal distribution comes
// from the logical circuit (transpilation is semantics-preserving), so
// register width is bounded by the logical width, not the physical
// device size. The transpile and noise.execute spans parent under the
// span active in ctx.
//
// blocks <= 1 draws every shot from rng in order. blocks > 1 splits the
// shot loop into that many blocks (capped at shots) fanned across the
// shared par pool: each block samples from its own RNG stream keyed by
// (rng's first Uint64, block index), and block counts merge in block
// order. Blocked counts are therefore deterministic for a given (seed,
// blocks) at any worker count, but they come from a different stream
// family than the serial draw sequence: statistically equivalent to
// serial counts, not bitwise equal to them.
func (e *Executor) ExecuteCtx(ctx context.Context, c *circuit.Circuit, shots, blocks int, rng *mathx.RNG) (*Run, error) {
	if shots <= 0 {
		return nil, fmt.Errorf("noise: shots %d must be positive", shots)
	}
	if c.N > statevector.MaxQubits {
		return nil, fmt.Errorf("noise: %d logical qubits exceeds simulator limit %d", c.N, statevector.MaxQubits)
	}
	res, err := transpile.TranspileCtx(ctx, c, e.backend, nil)
	if err != nil {
		return nil, err
	}
	return e.execute(ctx, c, res, shots, min(blocks, shots), rng)
}

// ExecuteTranspiledCtx is ExecuteCtx's serial path for a circuit already
// transpiled (the caller controls layout / reuses the artifact).
func (e *Executor) ExecuteTranspiledCtx(ctx context.Context, logical *circuit.Circuit, res *transpile.Result, shots int, rng *mathx.RNG) (*Run, error) {
	return e.execute(ctx, logical, res, shots, 1, rng)
}

// execute is the one induction body behind ExecuteCtx and
// ExecuteTranspiledCtx: the "noise.execute" span covers the ideal
// reference run (its "sim.run" child), rate derivation, the sampler
// precompute and the shot loop (see ExecuteCtx for blocks).
func (e *Executor) execute(ctx context.Context, logical *circuit.Circuit, res *transpile.Result, shots, blocks int, rng *mathx.RNG) (*Run, error) {
	ctx, sp := obs.Start(ctx, "noise.execute")
	// Ending via defer keeps the span from leaking on the ideal-run,
	// rates and fan-out error returns (qbeep-lint spanend).
	defer sp.End()
	ideal, err := statevector.IdealDistCtx(ctx, logical)
	if err != nil {
		return nil, err
	}
	rates, err := Rates(res, e.backend, e.model)
	if err != nil {
		return nil, err
	}
	t0 := time.Now() //qbeep:allow-time span/metric timing, not kernel state
	ns := e.newNoisySampler(logical, ideal, res, rates)
	var counts *bitstring.Dist
	if blocks <= 1 {
		counts = bitstring.NewDist(logical.N)
		ns.sample(shots, rng, counts)
	} else {
		counts, err = ns.sampleBlocks(ctx, shots, blocks, rng)
		if err != nil {
			return nil, err
		}
		sp.SetAttr("blocks", blocks)
	}
	elapsed := time.Since(t0) //qbeep:allow-time span/metric timing, not kernel state
	metExecute.ObserveDuration(elapsed)
	metShots.Add(int64(shots))
	if secs := elapsed.Seconds(); secs > 0 {
		metShotsPerSec.Set(float64(shots) / secs)
	}
	sp.SetAttr("circuit", logical.Name)
	sp.SetAttr("shots", shots)
	obs.Logger().Debug("noisy induction",
		"circuit", logical.Name, "backend", e.backend.Name,
		"shots", shots, "blocks", blocks, "elapsed", elapsed)
	return &Run{
		Counts:     counts,
		Ideal:      ideal,
		Transpiled: res,
		Rates:      rates,
		Shots:      shots,
	}, nil
}

// sampleBlocks is the blocks > 1 shot loop of ExecuteCtx: one base drawn
// from the caller's generator keys every block stream, so the whole
// induction consumes exactly one value of rng. The fan-out runs under a
// "sim.batch" span whose pool occupancy also lands on the
// sim.batch.occupancy gauge.
func (ns *noisySampler) sampleBlocks(ctx context.Context, shots, blocks int, rng *mathx.RNG) (*bitstring.Dist, error) {
	base := rng.Uint64()
	chunk := (shots + blocks - 1) / blocks
	ctx, sp := obs.Start(ctx, "sim.batch")
	defer sp.End()
	locals := make([]*bitstring.Dist, blocks)
	stats, err := par.ForEachStatsCtx(ctx, blocks, 0, func(b int) error {
		lo := b * chunk
		hi := min(lo+chunk, shots)
		if lo >= hi {
			return nil
		}
		locals[b] = bitstring.NewDist(ns.n)
		ns.sample(hi-lo, mathx.NewStream(base, uint64(b)), locals[b])
		return nil
	})
	occupancy := stats.Utilization()
	metBatchOccupancy.Set(occupancy)
	sp.SetAttr("blocks", blocks)
	sp.SetAttr("shots", shots)
	sp.SetAttr("occupancy", occupancy)
	if err != nil {
		return nil, err
	}
	// Merge in block order: integral counts make the fold exact and the
	// order canonical regardless of which worker finished first.
	counts := bitstring.NewDist(ns.n)
	var outs []bitstring.BitString
	for _, l := range locals {
		if l == nil {
			continue
		}
		outs = l.OutcomesInto(outs)
		for _, v := range outs {
			counts.Add(v, l.Count(v))
		}
	}
	return counts, nil
}

// noisySampler is the shot loop of the failure-event model with every
// rate and lookup table precomputed: build once per induction, then
// sample any number of shot blocks. The precomputed state is read-only
// during sampling, so distinct blocks may sample concurrently as long
// as each uses its own RNG and destination Dist.
type noisySampler struct {
	model Model
	n     int

	// Cumulative ideal distribution for sampling.
	outcomes []bitstring.BitString
	cum      []float64
	acc      float64

	// Per-qubit channel probabilities (logical index -> physical calib).
	pDecay   []float64
	pDephase []float64
	pReadout []float64

	// Pooled gate-error events (see newNoisySampler).
	gateCum   []float64
	gateTotal float64
	gatePois  mathx.Poisson

	walkAdj   [][]int
	burst     float64
	burstPois mathx.Poisson
}

// newNoisySampler precomputes the failure-event model for one induction.
// It never draws from an RNG, so hoisting it out of the shot loop cannot
// change any realized stream.
func (e *Executor) newNoisySampler(logical *circuit.Circuit, ideal *bitstring.Dist,
	res *transpile.Result, rates EventRates) *noisySampler {

	n := logical.N
	ns := &noisySampler{model: e.model, n: n, burst: rates.Burst}
	ns.outcomes = ideal.Outcomes()
	ns.cum = make([]float64, len(ns.outcomes))
	for i, o := range ns.outcomes {
		ns.acc += ideal.Count(o)
		ns.cum[i] = ns.acc
	}

	ns.pDecay = make([]float64, n)
	ns.pDephase = make([]float64, n)
	ns.pReadout = make([]float64, n)
	for l := 0; l < n; l++ {
		p := res.Final[l]
		q := e.backend.Calibration.Qubits[p]
		if e.model.Decoherence {
			ns.pDecay[l] = 1 - expNeg(rates.Duration/q.T1)
			ns.pDephase[l] = 0.5 * (1 - expNeg(rates.Duration/q.T2))
		}
		if e.model.Readout {
			ns.pReadout[l] = q.ReadoutError
		}
	}

	// Gate flip events are pooled: the expected count is rates.Gate and
	// each event hits one of the qubits a gate touches. Precompute the
	// qubit-weight distribution from the routed circuit (physical qubits
	// mapped back to logical where possible; routing ancillas redistribute
	// uniformly since their corruption spreads through subsequent swaps).
	gateWeight := make([]float64, n)
	if e.model.GateErrors {
		phys2log := make(map[int]int, n)
		for l, p := range res.Final {
			phys2log[p] = l
		}
		for _, g := range res.Circuit.Gates {
			if !g.Kind.IsUnitary() {
				continue
			}
			var errp float64
			switch len(g.Qubits) {
			case 1:
				errp = e.backend.Calibration.Gates1Q[g.Qubits[0]].Error
			case 2:
				if gc, ok := e.backend.Calibration.Gate2Q(g.Qubits[0], g.Qubits[1]); ok {
					errp = gc.Error
				}
			}
			share := errp / float64(len(g.Qubits))
			for _, pq := range g.Qubits {
				if l, ok := phys2log[pq]; ok {
					gateWeight[l] += share
				} else {
					// ancilla: spread over all logical qubits
					for l := 0; l < n; l++ {
						gateWeight[l] += share / float64(n)
					}
				}
			}
		}
	}

	ns.walkAdj = activeTwoQubitGraph(logical)
	ns.burstPois = mathx.Poisson{Lambda: rates.Burst}

	// Gate-error events are pooled into a Poisson stream (the paper's §3.2
	// generative model: independent failure events with a stable rate):
	// K ~ Poisson(Σ gateWeight) flips per shot, each landing on a qubit
	// drawn proportionally to its share of the gate-error budget.
	ns.gateCum = make([]float64, n)
	for l := 0; l < n; l++ {
		ns.gateTotal += gateWeight[l]
		ns.gateCum[l] = ns.gateTotal
	}
	ns.gatePois = mathx.Poisson{Lambda: ns.gateTotal}
	return ns
}

// sampleIdeal draws one outcome from the cumulative ideal distribution.
func (ns *noisySampler) sampleIdeal(rng *mathx.RNG) bitstring.BitString {
	u := rng.Float64() * ns.acc
	lo, hi := 0, len(ns.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ns.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ns.outcomes[lo]
}

// sampleGateQubit draws the landing qubit of one pooled gate-error event.
func (ns *noisySampler) sampleGateQubit(rng *mathx.RNG) int {
	u := rng.Float64() * ns.gateTotal
	lo, hi := 0, ns.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ns.gateCum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sample draws shots outcomes from rng into counts. The draw sequence is
// identical to the seed's inline loop: hoisting the precompute consumed
// no RNG values, so golden distributions are unchanged.
func (ns *noisySampler) sample(shots int, rng *mathx.RNG, counts *bitstring.Dist) {
	n := ns.n
	// Burst tallies accumulate locally and flush to the registry once per
	// block, keeping the per-shot loop free of shared-memory traffic.
	var burstEvents, burstFlips int64
	for s := 0; s < shots; s++ {
		v := ns.sampleIdeal(rng)
		// Per-shot drift of device conditions (non-Markovian, §3.1): one
		// mean-normalized log-normal factor scales every time-dependent
		// channel this shot. Readout is excluded — it is a separate,
		// stable classifier error.
		drift := 1.0
		if ns.model.RateJitter > 0 {
			sg := ns.model.RateJitter
			drift = math.Exp(sg*rng.NormFloat64() - sg*sg/2)
		}
		if ns.gateTotal > 0 {
			pois := ns.gatePois
			if drift != 1 { //qbeep:allow-floatcmp drift is exactly 1.0 when jitter is disabled (sentinel)
				pois = mathx.Poisson{Lambda: ns.gateTotal * drift}
			}
			k := pois.Sample(rng.Float64)
			for i := 0; i < k; i++ {
				v = v.FlipBit(ns.sampleGateQubit(rng))
			}
		}
		// Decoherence.
		for l := 0; l < n; l++ {
			if ns.pDecay[l] > 0 && v.Bit(l) == 1 && rng.Float64() < min1(ns.pDecay[l]*drift) {
				v = v.SetBit(l, 0) // T1 decay is directional
			}
			if ns.pDephase[l] > 0 && rng.Float64() < min1(ns.pDephase[l]*drift) {
				v = v.FlipBit(l)
			}
		}
		// Correlated burst: K ~ Poisson(λ_burst) flips, spread along a
		// random walk over the circuit's interaction graph (or uniformly).
		if ns.burst > 0 {
			pois := ns.burstPois
			if drift != 1 { //qbeep:allow-floatcmp drift is exactly 1.0 when jitter is disabled (sentinel)
				pois = mathx.Poisson{Lambda: ns.burst * drift}
			}
			k := pois.Sample(rng.Float64)
			if k > 0 {
				burstEvents++
				burstFlips += int64(k)
				if ns.model.BurstWalk {
					q := rng.Intn(n)
					for i := 0; i < k; i++ {
						v = v.FlipBit(q)
						if nb := ns.walkAdj[q]; len(nb) > 0 && rng.Float64() < 0.8 {
							q = nb[rng.Intn(len(nb))]
						} else {
							q = rng.Intn(n)
						}
					}
				} else {
					for i := 0; i < k; i++ {
						v = v.FlipBit(rng.Intn(n))
					}
				}
			}
		}
		// Readout flips.
		for l := 0; l < n; l++ {
			if ns.pReadout[l] > 0 && rng.Float64() < ns.pReadout[l] {
				v = v.FlipBit(l)
			}
		}
		counts.Add(v, 1)
	}
	if burstEvents > 0 {
		metBurstEvents.Add(burstEvents)
		metBurstFlips.Add(burstFlips)
	}
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

// expNeg returns exp(-x) guarding against negative x from degenerate
// schedules.
func expNeg(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Exp(-x)
}
