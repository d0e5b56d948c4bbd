package transpile

import (
	"context"
	"math"

	"qbeep/internal/circuit"
	"qbeep/internal/device"
	"qbeep/internal/obs"
)

// twoPi folds an angle into (-π, π].
func foldAngle(phi float64) float64 {
	phi = math.Mod(phi, 2*math.Pi)
	if phi > math.Pi {
		phi -= 2 * math.Pi
	}
	if phi <= -math.Pi {
		phi += 2 * math.Pi
	}
	return phi
}

// Optimize performs peephole cleanup on a basis circuit:
//
//   - adjacent RZ on the same qubit merge; RZ(0) (mod 2π) drops,
//   - adjacent identical X·X and CX·CX pairs cancel,
//   - the passes repeat until a fixed point.
//
// Gates only commute past each other here when they act on disjoint qubits
// within the scan window, which the pass handles by tracking the last
// pending gate per qubit. This mirrors the transpilation-optimization QEM
// the paper cites (§2.3): fewer gates, lower λ.
func Optimize(c *circuit.Circuit) (*circuit.Circuit, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	gates := make([]circuit.Gate, len(c.Gates))
	for i, g := range c.Gates {
		gates[i] = g.Clone()
	}
	for {
		next, changedAdj := optimizeOnce(gates)
		next, changedComm := commuteMergeOnce(next)
		gates = next
		if !changedAdj && !changedComm {
			break
		}
	}
	out := circuit.New(c.Name, c.N)
	for _, g := range gates {
		out.Append(g)
	}
	return out.Finalize()
}

// optimizeOnce runs one linear pass, returning the rewritten gate list and
// whether anything changed.
func optimizeOnce(gates []circuit.Gate) ([]circuit.Gate, bool) {
	out := make([]circuit.Gate, 0, len(gates))
	// lastIdx[q] is the index in out of the most recent gate touching q, or
	// -1. A barrier or measurement resets its qubits.
	lastIdx := map[int]int{}
	changed := false

	touch := func(idx int, qs []int) {
		for _, q := range qs {
			lastIdx[q] = idx
		}
	}
	// drop removes out[i] (replacing with a tombstone compacted later).
	const dead = circuit.Kind(-1)

	for _, g := range gates {
		switch g.Kind {
		case circuit.RZ:
			q := g.Qubits[0]
			if li, ok := lastIdx[q]; ok && li >= 0 && out[li].Kind == circuit.RZ && out[li].Qubits[0] == q {
				merged := foldAngle(out[li].Params[0] + g.Params[0])
				changed = true
				if merged == 0 {
					out[li].Kind = dead
					delete(lastIdx, q)
				} else {
					out[li].Params[0] = merged
				}
				continue
			}
			if foldAngle(g.Params[0]) == 0 {
				changed = true
				continue
			}
			out = append(out, g)
			touch(len(out)-1, g.Qubits)
		case circuit.X:
			q := g.Qubits[0]
			if li, ok := lastIdx[q]; ok && li >= 0 && out[li].Kind == circuit.X && out[li].Qubits[0] == q {
				out[li].Kind = dead
				delete(lastIdx, q)
				changed = true
				continue
			}
			out = append(out, g)
			touch(len(out)-1, g.Qubits)
		case circuit.CX:
			a, b := g.Qubits[0], g.Qubits[1]
			la, okA := lastIdx[a]
			lb, okB := lastIdx[b]
			if okA && okB && la == lb && la >= 0 && out[la].Kind == circuit.CX &&
				out[la].Qubits[0] == a && out[la].Qubits[1] == b {
				out[la].Kind = dead
				delete(lastIdx, a)
				delete(lastIdx, b)
				changed = true
				continue
			}
			out = append(out, g)
			touch(len(out)-1, g.Qubits)
		default:
			out = append(out, g)
			touch(len(out)-1, g.Qubits)
		}
	}
	// Compact tombstones.
	compact := out[:0]
	for _, g := range out {
		if g.Kind != dead {
			compact = append(compact, g)
		}
	}
	return compact, changed
}

// ScheduleTime estimates the end-to-end execution time of a routed basis
// circuit on the backend: gates on disjoint qubits overlap; each qubit's
// timeline advances by the calibrated duration of every gate it
// participates in. The result is Eq. 2's t_circuit.
func ScheduleTime(c *circuit.Circuit, b *device.Backend) (float64, error) {
	if err := c.Err(); err != nil {
		return 0, err
	}
	ready := make([]float64, b.N())
	measureTime := 1e-6 // readout pulse, roughly constant on IBMQ
	if b.Architecture == device.TrappedIon {
		measureTime = 100e-6
	}
	for _, g := range c.Gates {
		var dur float64
		switch {
		case g.Kind == circuit.Barrier:
			var maxT float64
			for _, q := range g.Qubits {
				if ready[q] > maxT {
					maxT = ready[q]
				}
			}
			for _, q := range g.Qubits {
				ready[q] = maxT
			}
			continue
		case g.Kind == circuit.Measure:
			dur = measureTime
		case len(g.Qubits) == 2:
			if gc, ok := b.Calibration.Gate2Q(g.Qubits[0], g.Qubits[1]); ok {
				dur = gc.Duration
			} else {
				// Uncoupled 2q gate (pre-routing estimate): charge the mean.
				dur = meanDur2Q(b)
			}
		default:
			q := g.Qubits[0]
			if q < len(b.Calibration.Gates1Q) {
				dur = b.Calibration.Gates1Q[q].Duration
			}
		}
		var start float64
		for _, q := range g.Qubits {
			if ready[q] > start {
				start = ready[q]
			}
		}
		for _, q := range g.Qubits {
			ready[q] = start + dur
		}
	}
	var total float64
	for _, t := range ready {
		if t > total {
			total = t
		}
	}
	return total, nil
}

func meanDur2Q(b *device.Backend) float64 {
	var s float64
	n := 0
	for _, g := range b.Calibration.Gates2Q {
		s += g.Duration
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Result bundles the output of a full transpilation.
type Result struct {
	Circuit     *circuit.Circuit // routed basis circuit on physical qubits
	Initial     Layout           // logical -> physical at circuit start
	Final       Layout           // logical -> physical at circuit end
	Time        float64          // scheduled duration (seconds)
	SwapsAdded  int
	GatesBefore int
	GatesAfter  int
}

// pass runs one transpiler stage under a child span of ctx, so the
// trace forest shows where a slow lowering spent its time; a successful
// stage records the span's duration into its timer. A done ctx fails
// the stage before it starts; a started stage runs to completion.
func pass[T any](ctx context.Context, name string, tm *obs.Timer, fn func() (T, error)) (T, error) {
	if err := ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	_, sp := obs.Start(ctx, name)
	v, err := fn()
	if d := sp.End(); err == nil {
		tm.ObserveDuration(d)
	}
	return v, err
}

// TranspileCtx lowers, places, routes and optimizes c for backend b. A
// nil layout selects GreedyLayout. The whole lowering runs under a
// "transpile" span parented under the span active in ctx, with one
// child span per pass; each span's duration is what its timer in the
// obs registry records (transpile, transpile.decompose/layout/route/
// optimize/schedule). A done ctx stops it with ctx's error before the
// next pass; a pass, routing included, runs to completion once started.
func TranspileCtx(ctx context.Context, c *circuit.Circuit, b *device.Backend, layout Layout) (*Result, error) {
	ctx, sp := obs.Start(ctx, "transpile")
	// The deferred End covers the per-pass error returns (qbeep-lint
	// spanend); a successful lowering ends the span below.
	defer sp.End()
	dec, err := pass(ctx, "transpile.decompose", metDecompose, func() (*circuit.Circuit, error) {
		return Decompose(c)
	})
	if err != nil {
		return nil, err
	}
	if layout == nil {
		layout, err = pass(ctx, "transpile.layout", metLayout, func() (Layout, error) {
			return GreedyLayout(dec, b)
		})
		if err != nil {
			return nil, err
		}
	}
	cxBefore := dec.CountKind(circuit.CX)
	routed, final, err := routePass(ctx, dec, b, layout)
	if err != nil {
		return nil, err
	}
	opt, err := pass(ctx, "transpile.optimize", metOptimize, func() (*circuit.Circuit, error) {
		return Optimize(routed)
	})
	if err != nil {
		return nil, err
	}
	t, err := pass(ctx, "transpile.schedule", metSchedule, func() (float64, error) {
		return ScheduleTime(opt, b)
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Circuit:     opt,
		Initial:     layout,
		Final:       final,
		Time:        t,
		SwapsAdded:  (routed.CountKind(circuit.CX) - cxBefore) / 3,
		GatesBefore: c.GateCount(),
		GatesAfter:  opt.GateCount(),
	}
	sp.SetAttr("circuit", c.Name)
	sp.SetAttr("backend", b.Name)
	sp.SetAttr("swaps", res.SwapsAdded)
	sp.SetAttr("gates_before", res.GatesBefore)
	sp.SetAttr("gates_after", res.GatesAfter)
	sp.SetAttr("schedule_s", t)
	metTranspile.ObserveDuration(sp.End())
	metRuns.Inc()
	metSwaps.Add(int64(res.SwapsAdded))
	return res, nil
}

// routePass wraps Route in its child span (two results, so the generic
// single-value pass helper doesn't fit).
func routePass(ctx context.Context, c *circuit.Circuit, b *device.Backend, layout Layout) (*circuit.Circuit, Layout, error) {
	ctx, sp := obs.Start(ctx, "transpile.route")
	routed, final, err := Route(ctx, c, b, layout)
	if d := sp.End(); err == nil {
		metRoute.ObserveDuration(d)
	}
	return routed, final, err
}

// Pass timers and transpilation counters (see internal/obs).
var (
	metTranspile = obs.Default.Timer("transpile")
	metDecompose = obs.Default.Timer("transpile.decompose")
	metLayout    = obs.Default.Timer("transpile.layout")
	metRoute     = obs.Default.Timer("transpile.route")
	metOptimize  = obs.Default.Timer("transpile.optimize")
	metSchedule  = obs.Default.Timer("transpile.schedule")
	metRuns      = obs.Default.Counter("transpile.runs")
	metSwaps     = obs.Default.Counter("transpile.swaps_inserted")
)

// LogicalDist remaps a physical-register measurement distribution back to
// the logical register using the final layout, so downstream metrics see
// logical bit-strings. Physical qubits outside the layout are traced out.
func LogicalDist(physN int, final Layout, physCounts map[uint64]float64) map[uint64]float64 {
	out := make(map[uint64]float64)
	for pv, c := range physCounts {
		var lv uint64
		for l, p := range final {
			if pv&(1<<uint(p)) != 0 {
				lv |= 1 << uint(l)
			}
		}
		out[lv] += c
	}
	return out
}
