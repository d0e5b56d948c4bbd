package noise

import (
	"context"
	"fmt"
	"math"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/statevector"
	"qbeep/internal/transpile"
)

// Induction metrics (see internal/obs): sampling throughput and the
// correlated-burst channel's realized event stream.
var (
	metExecute     = obs.Default.Timer("noise.execute")
	metShots       = obs.Default.Counter("noise.shots")
	metShotsPerSec = obs.Default.Gauge("noise.shots_per_sec")
	metBurstEvents = obs.Default.Counter("noise.burst.events")
	metBurstFlips  = obs.Default.Counter("noise.burst.flips")
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
// span active in ctx. The shots run on the shot engine (shots.go): rng
// advances by exactly one Uint64, and the counts depend on its seed
// alone, not on GOMAXPROCS. A cancelled ctx stops the shot loop within
// one chunk and returns ctx's error.
func (e *Executor) ExecuteCtx(ctx context.Context, c *circuit.Circuit, shots int, rng *mathx.RNG) (*Run, error) {
	if c.N > statevector.MaxQubits {
		return nil, fmt.Errorf("noise: %d logical qubits exceeds simulator limit %d", c.N, statevector.MaxQubits)
	}
	res, err := transpile.TranspileCtx(ctx, c, e.backend, nil)
	if err != nil {
		return nil, err
	}
	return e.ExecuteTranspiledCtx(ctx, c, res, shots, rng)
}

// ExecuteTranspiledCtx is ExecuteCtx for a circuit already transpiled
// (the caller controls layout / reuses the artifact): on the same
// transpilation and seed it returns ExecuteCtx's counts. The
// "noise.execute" span covers the ideal reference run (its "sim.run"
// child), rate derivation, the sampler precompute and the shot loop.
func (e *Executor) ExecuteTranspiledCtx(ctx context.Context, logical *circuit.Circuit, res *transpile.Result, shots int, rng *mathx.RNG) (*Run, error) {
	if shots <= 0 {
		return nil, fmt.Errorf("noise: shots %d must be positive", shots)
	}
	ctx, sp := obs.Start(ctx, "noise.execute")
	// The deferred End covers the ideal-run, rates and shot-loop error
	// returns (qbeep-lint spanend); a successful induction ends the span
	// below, and its duration feeds the noise.execute timer and rate.
	defer sp.End()
	ideal, err := statevector.IdealDistCtx(ctx, logical)
	if err != nil {
		return nil, err
	}
	rates, err := Rates(res, e.backend, e.model)
	if err != nil {
		return nil, err
	}
	ns := e.newNoisySampler(logical, ideal, res, rates)
	var eng shotEngine
	counts, err := eng.run(ctx, ns, logical.N, shots, 3*logical.N+20, rng)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("circuit", logical.Name)
	sp.SetAttr("shots", shots)
	sp.SetAttr("shards", eng.n)
	elapsed := sp.End()
	metExecute.ObserveDuration(elapsed)
	metShots.Add(int64(shots))
	if secs := elapsed.Seconds(); secs > 0 {
		metShotsPerSec.Set(float64(shots) / secs)
	}
	obs.Logger().Debug("noisy induction",
		"circuit", logical.Name, "backend", e.backend.Name,
		"shots", shots, "shards", eng.n, "elapsed", elapsed)
	return &Run{
		Counts:     counts,
		Ideal:      ideal,
		Transpiled: res,
		Rates:      rates,
		Shots:      shots,
	}, nil
}

// noisySampler is the failure-event model's shot source with every rate
// and lookup table precomputed: build once per induction, then the shot
// engine samples any number of shot ranges from it. The precomputed
// state is read-only during sampling, so shards sample concurrently,
// each with its own arena.
type noisySampler struct {
	model Model
	n     int

	// Ideal outcomes and their cumulative table.
	outcomes []bitstring.BitString
	ideal    cumTable

	// Per-qubit channel probabilities (logical index -> physical calib).
	pDecay   []float64
	pDephase []float64
	pReadout []float64

	// Pooled gate-error events (see newNoisySampler).
	gateCum   cumTable
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
	ns.outcomes, ns.ideal = distTable(ideal)

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
			share := e.backend.Calibration.GateError(g.Qubits) / float64(len(g.Qubits))
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
	ns.gateCum = accumulate(gateWeight)
	ns.gateTotal = ns.gateCum[n-1]
	ns.gatePois = mathx.Poisson{Lambda: ns.gateTotal}
	return ns
}

// sampleShots draws shots [lo, hi) into a.out, shot s from stream
// (base, s).
//
//qbeep:allocfree
func (ns *noisySampler) sampleShots(a *shotArena, base uint64, lo, hi int) error {
	n := ns.n
	rng := &a.rng
	// Burst tallies accumulate locally and flush to the registry once per
	// range, keeping the per-shot loop free of shared-memory traffic.
	var burstEvents, burstFlips int64
	for s := lo; s < hi; s++ {
		rng.ReseedStream(base, uint64(s))
		v := ns.outcomes[ns.ideal.draw(rng)]
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
				v = v.FlipBit(ns.gateCum.draw(rng))
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
		a.out[s] = v
	}
	if burstEvents > 0 {
		metBurstEvents.Add(burstEvents)
		metBurstFlips.Add(burstFlips)
	}
	return nil
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
