package noise

import (
	"context"
	"fmt"
	"math"
	"math/bits"

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

// NewExecutor returns an executor for the backend and model. Every
// device constructor validates the backend it builds, so b is not
// checked again here.
func NewExecutor(b *device.Backend, m Model) (*Executor, error) {
	if b == nil {
		return nil, fmt.Errorf("noise: nil backend")
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
	counts, err := eng.run(ctx, ns, logical.N, shots, shotCost(logical.N, ideal.Support(), rates), rng)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("circuit", logical.Name)
	sp.SetAttr("backend", e.backend.Name)
	sp.SetAttr("shots", shots)
	sp.SetAttr("shards", eng.n)
	elapsed := sp.End()
	metExecute.ObserveDuration(elapsed)
	metShots.Add(int64(shots))
	if secs := elapsed.Seconds(); secs > 0 {
		metShotsPerSec.Set(float64(shots) / secs)
	}
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

	// events draws one gate or burst event's class: index l < n is a
	// gate flip of logical qubit l, index n a burst flip. Its total is
	// the summed event rate at unit drift.
	events cumTable

	// Per-qubit decoherence probabilities (logical index -> physical calib).
	pDecay   []float64
	pDephase []float64

	// readout[c] draws the readout flip mask of qubits 8c … 8c+7.
	readout []cumTable

	walkAdj [][]int
}

// newNoisySampler precomputes the failure-event model for one induction.
// It never draws from an RNG, so hoisting it out of the shot loop cannot
// change any realized stream.
func (e *Executor) newNoisySampler(logical *circuit.Circuit, ideal *bitstring.Dist,
	res *transpile.Result, rates EventRates) *noisySampler {

	n := logical.N
	ns := &noisySampler{model: e.model, n: n, walkAdj: activeTwoQubitGraph(logical)}
	ns.outcomes, ns.ideal = distTable(ideal)

	ns.pDecay = make([]float64, n)
	ns.pDephase = make([]float64, n)
	pReadout := make([]float64, n)
	for l := 0; l < n; l++ {
		p := res.Final[l]
		q := e.backend.Calibration.Qubits[p]
		if e.model.Decoherence {
			ns.pDecay[l] = 1 - expNeg(rates.Duration/q.T1)
			ns.pDephase[l] = 0.5 * (1 - expNeg(rates.Duration/q.T2))
		}
		pReadout[l] = q.ReadoutError
	}
	if e.model.Readout {
		ns.readout = readoutTables(pReadout)
	}

	// Gate flip events land on the qubits a gate touches, in proportion
	// to each qubit's share of the gate-error budget, computed from the
	// routed circuit (physical qubits mapped back to logical where
	// possible; routing ancillas redistribute uniformly since their
	// corruption spreads through subsequent swaps). The last class is
	// the burst channel.
	weights := make([]float64, n+1)
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
					weights[l] += share
				} else {
					// ancilla: spread over all logical qubits
					for l := 0; l < n; l++ {
						weights[l] += share / float64(n)
					}
				}
			}
		}
	}
	weights[n] = rates.Burst
	ns.events = accumulate(weights)
	return ns
}

// readoutTables returns, for each 8-qubit chunk of the register, the
// cumulative table of its readout flip masks: mask m weighs the product
// of p_j for each set bit j and 1 − p_j for each clear one. Readout
// carries no drift, so the tables are fixed for the induction.
func readoutTables(p []float64) []cumTable {
	var tabs []cumTable
	for lo := 0; lo < len(p); lo += 8 {
		chunk := p[lo:min(lo+8, len(p))]
		w := make([]float64, 1<<len(chunk))
		for m := range w {
			w[m] = 1
			for j, pj := range chunk {
				if m>>j&1 == 1 {
					w[m] *= pj
				} else {
					w[m] *= 1 - pj
				}
			}
		}
		tabs = append(tabs, accumulate(w))
	}
	return tabs
}

// shotCost estimates one shot's work for the shot engine's shard count,
// in its units of about one RNG draw or one table-search step, from the
// loop's draws: the stream reseed (four words), the ideal draw and its
// binary search, the drift (a ziggurat normal and an exp), the closing
// event arrival, the decoherence uniform and its 2n channel steps, and
// a draw and an 8-step search per readout byte; then, per expected
// event, an arrival and a class search for each gate or burst event,
// two walk draws for each burst flip and a uniform for each decoherence
// event.
func shotCost(n, support int, r EventRates) int {
	fixed := 4 + 1 + bits.Len(uint(support)) + 2 + 1 + 1 + 2*n + 9*((n+7)/8)
	perEvent := 1 + float64(bits.Len(uint(n+1)))
	return fixed + int(perEvent*(r.Gate+r.Burst)+2*r.Burst+r.T1+r.T2)
}

// sampleShots draws shots [lo, hi) into a.out, shot s from stream
// (base, s). Given the drift, each step draws the model's distribution
// exactly, with few draws per shot:
//
//  1. the ideal outcome;
//  2. the drift, a mean-one log-normal from a ziggurat normal;
//  3. one Poisson count of gate and burst events at their summed rate
//     (unit exponential arrivals below rate × drift), each event's class
//     drawn from one table: a gate event flips its qubit at once, a
//     burst event is counted (thinning makes the two counts independent
//     Poissons, as two separate draws would be);
//  4. decoherence by first-event inversion over the ordered channels
//     (decay of qubit l if its bit is set, then its dephasing): one
//     uniform u, and the channel where the running no-event product
//     drops below u fires, after which the walk restarts with a fresh u;
//  5. the burst flips, spread along a random walk on the circuit's
//     interaction graph (or uniformly);
//  6. readout flips, one table draw per 8 qubits.
//
//qbeep:allocfree
func (ns *noisySampler) sampleShots(a *shotArena, base uint64, lo, hi int) error {
	n := ns.n
	rng := &a.rng
	rate := ns.events[n]
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
		if sg := ns.model.RateJitter; sg > 0 {
			drift = math.Exp(sg*rng.ZigNormFloat64() - sg*sg/2)
		}
		bursts := 0
		if rate > 0 {
			for t, end := rng.ExpFloat64(), rate*drift; t < end; t += rng.ExpFloat64() {
				if c := ns.events.draw(rng); c < n {
					v = v.FlipBit(c)
				} else {
					bursts++
				}
			}
		}
		if ns.model.Decoherence {
			u, surv := 1-rng.Float64(), 1.0
			for l := 0; l < n; l++ {
				if v.Bit(l) == 1 {
					if surv *= 1 - min1(ns.pDecay[l]*drift); surv < u {
						v = v.FlipBit(l) // the bit is set: T1 decay is 1 → 0
						u, surv = 1-rng.Float64(), 1
					}
				}
				if surv *= 1 - min1(ns.pDephase[l]*drift); surv < u {
					v = v.FlipBit(l)
					u, surv = 1-rng.Float64(), 1
				}
			}
		}
		if bursts > 0 {
			burstEvents++
			burstFlips += int64(bursts)
			if ns.model.BurstWalk {
				q := rng.Intn(n)
				for i := 0; i < bursts; i++ {
					v = v.FlipBit(q)
					if nb := ns.walkAdj[q]; len(nb) > 0 && rng.Float64() < 0.8 {
						q = nb[rng.Intn(len(nb))]
					} else {
						q = rng.Intn(n)
					}
				}
			} else {
				for i := 0; i < bursts; i++ {
					v = v.FlipBit(rng.Intn(n))
				}
			}
		}
		for c, tab := range ns.readout {
			v ^= bitstring.BitString(tab.draw(rng)) << (8 * c)
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
