package noise

import (
	"context"
	"fmt"
	"log/slog"
	"sort"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/statevector"
)

// Trajectory metrics (see internal/obs): per-batch wall time, shot
// throughput and shard count of the Monte Carlo sampler.
var (
	metTraj        = obs.Default.Timer("sim.trajectory")
	metTrajShots   = obs.Default.Counter("sim.trajectory.shots")
	metTrajPerSec  = obs.Default.Gauge("sim.trajectory.shots_per_sec")
	metTrajWorkers = obs.Default.Gauge("sim.trajectory.workers")
)

// TrajectorySampler runs Monte Carlo Pauli-jump trajectories on the state
// vector: after each gate, with the gate's calibrated error probability a
// uniformly random Pauli is injected on one of its qubits; readout flips
// apply at measurement. This is the conventional Markovian noise model —
// per the paper (§3.1), it reproduces *local* Hamming clustering only,
// which our Figure-4 negative-control experiment demonstrates.
//
// Execution is compiled-program replay: SampleCtx lowers the circuit to
// kernel ops once per call (into a scratch reused across calls), then
// every shot replays the compiled steps, injecting Paulis through a
// precompiled per-qubit op table — the hot loop performs no per-gate
// lowering and allocates nothing. Shots run on the sampler's own shot
// engine (shots.go), whose shard arenas (state buffer, probability
// scratch, local Dist, reseedable RNG stream) persist across SampleCtx
// calls, so steady-state sampling is allocation-free (pinned by the
// trajectory_allocs_steady benchparse ceiling). Like every sampler on
// the engine, the counts depend on the caller's seed alone.
//
// A TrajectorySampler is not safe for concurrent use: SampleCtx calls
// share the engine (and the caller's RNG). Use one sampler per goroutine.
type TrajectorySampler struct {
	backend *device.Backend

	// Mean calibration error rates, hoisted out of the per-call path:
	// the backend is fixed at construction.
	err1q   float64
	err2q   float64
	readout float64

	// Per-call compile scratch and the shot engine, pooled across
	// SampleCtx calls (see the concurrency note above).
	steps  []trajStep
	paulis [][3]statevector.CompiledOp
	pauliN int
	init   bitstring.BitString // the current call's initial basis state
	eng    shotEngine
}

// trajStep is one compiled gate of a trajectory program: the kernel op
// plus the injection metadata the noise model draws from.
type trajStep struct {
	op     statevector.CompiledOp
	inject bool    // unitary gate: eligible for Pauli injection
	nq     int     // qubit count of the source gate
	q      [3]int  // the gate's qubits (first nq valid)
	p      float64 // injection probability (err1q or err2q)
}

// NewTrajectorySampler returns a sampler on the backend.
func NewTrajectorySampler(b *device.Backend) (*TrajectorySampler, error) {
	if b == nil {
		return nil, fmt.Errorf("noise: nil backend")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	t := &TrajectorySampler{backend: b}
	for _, g := range b.Calibration.Gates1Q {
		t.err1q += g.Error
	}
	t.err1q /= float64(len(b.Calibration.Gates1Q))
	// Sum 2q errors in sorted edge order: Gates2Q is a map, and float
	// accumulation in map order would make err2q — and through it every
	// per-shot error rate — drift at the last bit between runs
	// (qbeep-lint nodeterm).
	edges := make([]device.Edge, 0, len(b.Calibration.Gates2Q))
	for e := range b.Calibration.Gates2Q {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	for _, e := range edges {
		t.err2q += b.Calibration.Gates2Q[e].Error
	}
	if len(edges) > 0 {
		t.err2q /= float64(len(edges))
	}
	t.readout = b.Calibration.MeanReadoutError()
	return t, nil
}

// pauliKinds indexes the injectable Paulis.
var pauliKinds = [3]circuit.Kind{circuit.X, circuit.Y, circuit.Z}

// SampleCtx runs shots trajectories of the logical circuit from basis
// state init. Gate error rates use the backend's mean calibration (the
// logical circuit is not routed here; this sampler is a physics-level
// control, not a device-exact one). The "sim.trajectory" span parents
// under the span active in ctx, and the shot shards' worker spans parent
// under it. rng advances by exactly one Uint64; a cancelled ctx stops
// the shots within one chunk and returns ctx's error.
func (t *TrajectorySampler) SampleCtx(ctx context.Context, c *circuit.Circuit, init bitstring.BitString, shots int, rng *mathx.RNG) (*bitstring.Dist, error) {
	if err := t.checkRequest(c, init, shots); err != nil {
		return nil, err
	}
	if err := t.compile(c); err != nil {
		return nil, err
	}
	t.init = init

	ctx, sp := obs.Start(ctx, "sim.trajectory")
	// The deferred End covers the shot-loop error path (qbeep-lint
	// spanend); a successful batch ends the span below, and its duration
	// feeds the sim.trajectory timer and rate.
	defer sp.End()
	counts, err := t.eng.run(ctx, t, c.N, shots, (len(t.steps)+2)<<uint(c.N), rng)
	if err != nil {
		return nil, err
	}
	shards := t.eng.n
	// Attr values box at the call site even for an inert span, so the
	// whole block gates on tracing to keep the steady state alloc-free.
	if obs.TracingEnabled() {
		sp.SetAttr("circuit", c.Name)
		sp.SetAttr("width", c.N)
		sp.SetAttr("gates", len(c.Gates))
		sp.SetAttr("shots", shots)
		sp.SetAttr("shards", shards)
	}
	elapsed := sp.End()
	metTraj.ObserveDuration(elapsed)
	metTrajShots.Add(int64(shots))
	metTrajWorkers.Set(float64(shards))
	if secs := elapsed.Seconds(); secs > 0 {
		metTrajPerSec.Set(float64(shots) / secs)
	}
	// Enabled-gated: the variadic args would box on every call otherwise,
	// breaking the steady-state zero-allocation contract.
	if l := obs.Logger(); l.Enabled(ctx, slog.LevelDebug) {
		l.Debug("trajectory batch",
			"circuit", c.Name, "width", c.N, "shots", shots,
			"shards", shards, "elapsed", elapsed)
	}
	return counts, nil
}

// checkRequest validates one sampling request.
func (t *TrajectorySampler) checkRequest(c *circuit.Circuit, init bitstring.BitString, shots int) error {
	if err := c.Err(); err != nil {
		return err
	}
	if shots <= 0 {
		return fmt.Errorf("noise: shots %d must be positive", shots)
	}
	if c.N > 14 {
		return fmt.Errorf("noise: trajectory sampling limited to 14 qubits, got %d", c.N)
	}
	if uint64(init) >= uint64(1)<<uint(c.N) {
		return fmt.Errorf("noise: basis state %d outside %d-qubit register", init, c.N)
	}
	return nil
}

// compile lowers the circuit into the sampler's step scratch (reused
// across calls: zero steady-state allocations), annotating each step
// with its injection probability, and refreshes the Pauli injection
// table when the register width changes. Unlike the fused RunCtx
// pipeline this is strictly per-gate: injections happen *between*
// gates, so each gate keeps its own kernel op.
func (t *TrajectorySampler) compile(c *circuit.Circuit) error {
	t.steps = t.steps[:0]
	for _, g := range c.Gates {
		co, err := statevector.CompileGate(c.N, g)
		if err != nil {
			return err
		}
		step := trajStep{op: co, inject: g.Kind.IsUnitary(), nq: len(g.Qubits)}
		copy(step.q[:], g.Qubits)
		step.p = t.err1q
		if step.nq >= 2 {
			step.p = t.err2q
		}
		t.steps = append(t.steps, step)
	}
	if t.pauliN != c.N {
		t.paulis = statevector.NewPauliOps(c.N)
		t.pauliN = c.N
	}
	return nil
}

// sampleShots samples shots [lo, hi) of the compiled trajectory program
// into the arena's counts, replaying the steps on the arena's pooled
// state with shot s drawing from stream (base, s). The arena's state
// buffer re-materializes only on a width change (TestTrajectorySteadyStateAllocs).
func (t *TrajectorySampler) sampleShots(a *shotArena, base uint64, lo, hi int) error {
	n := a.counts.Width()
	if a.st == nil || a.st.N() != n {
		st, err := statevector.New(n)
		if err != nil {
			return err
		}
		// Kernel sharding stays off inside the shot shards: parallelism
		// lives at the shot level here.
		st.SetWorkers(1)
		a.st = st
	}
	steps, paulis := t.steps, t.paulis
	for s := lo; s < hi; s++ {
		a.rng.ReseedStream(base, uint64(s))
		if err := a.st.Reset(t.init); err != nil {
			return err
		}
		for i := range steps {
			step := &steps[i]
			a.st.ApplyCompiled(step.op)
			if !step.inject {
				continue
			}
			if a.rng.Float64() < step.p {
				q := step.q[a.rng.Intn(step.nq)]
				a.st.ApplyCompiled(paulis[q][a.rng.Intn(3)])
			}
		}
		a.probs = a.st.ProbabilitiesInto(a.probs)
		out := bitstring.BitString(accumulate(a.probs).draw(&a.rng))
		for q := 0; q < n; q++ {
			if a.rng.Float64() < t.readout {
				out = out.FlipBit(q)
			}
		}
		a.counts.Add(out, 1)
	}
	return nil
}
