package main

import (
	"context"

	"qbeep"
	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/core"
	"qbeep/internal/device"
	"qbeep/internal/mathx"
	"qbeep/internal/noise"
	"qbeep/internal/qasm"
	"qbeep/internal/statevector"
	"qbeep/internal/transpile"
)

// Metric groups that spans are charged to. The part before the first dot
// is the module; errors are counted per module.
const (
	layerParse     = "qasm.parse"
	layerDevice    = "device.lookup"
	layerTranspile = "transpile"
	layerExecute   = "noise.execute"
	layerLambda    = "core.lambda"
	layerConvert   = "bitstring.convert"
	layerBuild     = "core.build"
	layerStep      = "core.step"
	layerSnapshot  = "core.snapshot"
	// Calls made beside the request, outside its span.
	layerBuild1W = "core.build_1w"
	layerIdeal   = "statevector.ideal"
)

// layerStats are the counts one traced request produced, next to its spans.
type layerStats struct {
	vertices, edges, radius int
	iterations              int
	gatesOut, swaps, shots  int
}

// runLayers serves one request by calling each layer's public function in
// the order the qbeep API calls them, each under its own span, all under
// one request span. It returns the same output runAPI would, so the two
// can be compared bit for bit.
func runLayers(ctx context.Context, tr *tracer, k int, r *request, opts qbeep.Options) (output, layerStats, error) {
	req := tr.open("request", "request", 0, k)
	out, st, err := layerPath(ctx, tr, req, r, opts)
	tr.close(req, err)
	tr.spans[req].Input = r.Name
	tr.spans[req].Attrs = map[string]float64{
		"lambda": out.lambda, "vertices": float64(st.vertices), "edges": float64(st.edges),
		"radius": float64(st.radius), "gates_out": float64(st.gatesOut), "swaps": float64(st.swaps),
	}
	return out, st, err
}

func layerPath(ctx context.Context, tr *tracer, req int, r *request, opts qbeep.Options) (output, layerStats, error) {
	var st layerStats
	if !r.simulated() {
		mit, err := mitigateLayers(ctx, tr, req, r.Counts, r.Lambda, opts, &st)
		return output{raw: r.Counts, mitigated: mit, lambda: r.Lambda}, st, err
	}
	c, err := call(tr, req, layerParse, "qasm.ParseCtx", func() (*circuit.Circuit, error) {
		return qasm.ParseCtx(ctx, r.QASM)
	})
	if err != nil {
		return output{}, st, err
	}
	var b *device.Backend
	exec, err := call(tr, req, layerDevice, "device.ByName+noise.NewExecutor", func() (*noise.Executor, error) {
		var err error
		if b, err = device.ByName(r.Backend); err != nil {
			return nil, err
		}
		return noise.NewExecutor(b, noise.DefaultModel())
	})
	if err != nil {
		return output{}, st, err
	}
	res, err := call(tr, req, layerTranspile, "transpile.TranspileCtx", func() (*transpile.Result, error) {
		return transpile.TranspileCtx(ctx, c, b, nil)
	})
	if err != nil {
		return output{}, st, err
	}
	st.gatesOut, st.swaps, st.shots = res.GatesAfter, res.SwapsAdded, r.Shots
	run, err := call(tr, req, layerExecute, "noise.(*Executor).ExecuteTranspiledCtx", func() (*noise.Run, error) {
		return exec.ExecuteTranspiledCtx(ctx, c, res, r.Shots, mathx.NewRNG(r.ShotSeed))
	})
	if err != nil {
		return output{}, st, err
	}
	lb, err := call(tr, req, layerLambda, "core.EstimateLambda", func() (core.LambdaBreakdown, error) {
		return core.EstimateLambda(run.Transpiled, b)
	})
	if err != nil {
		return output{}, st, err
	}
	lambda := lb.T1 + lb.T2 + lb.Gates
	var fullIdeal qbeep.Counts
	full, err := call(tr, req, layerConvert, "bitstring.(*Dist).StringCounts", func() (qbeep.Counts, error) {
		fullIdeal = run.Ideal.StringCounts()
		return run.Counts.StringCounts(), nil
	})
	if err != nil {
		return output{}, st, err
	}
	raw, err := call(tr, req, layerConvert, "qbeep.MarginalizeCounts", func() (qbeep.Counts, error) {
		return qbeep.MarginalizeCounts(full, r.DataQubits)
	})
	if err != nil {
		return output{}, st, err
	}
	mit, err := mitigateLayers(ctx, tr, req, raw, lambda, opts, &st)
	return output{raw: raw, mitigated: mit, lambda: lambda, fullIdeal: fullIdeal}, st, err
}

// mitigateLayers is qbeep.MitigateCtx taken apart: convert, build the
// state graph, run the flow iterations, snapshot, convert back.
func mitigateLayers(ctx context.Context, tr *tracer, req int, counts qbeep.Counts, lambda float64, opts qbeep.Options, st *layerStats) (qbeep.Counts, error) {
	dist, err := call(tr, req, layerConvert, "bitstring.FromStringCounts", func() (*bitstring.Dist, error) {
		return bitstring.FromStringCounts(counts)
	})
	if err != nil {
		return nil, err
	}
	g, err := call(tr, req, layerBuild, "core.BuildStateGraphCtx", func() (*core.StateGraph, error) {
		return core.BuildStateGraphCtx(ctx, dist, core.PoissonEdges{Lambda: lambda}, opts.Epsilon, 0)
	})
	if err != nil {
		return nil, err
	}
	st.vertices, st.edges, st.radius, st.iterations = g.NumVertices(), g.NumEdges(), g.Radius(), opts.Iterations
	for i := 1; i <= opts.Iterations; i++ {
		eta := 1 / float64(i)
		_, _ = call(tr, req, layerStep, "(*core.StateGraph).Step", func() (core.StepStats, error) {
			return g.Step(eta), nil
		})
	}
	out, _ := call(tr, req, layerSnapshot, "(*core.StateGraph).Dist().Normalized", func() (*bitstring.Dist, error) {
		return g.Dist().Normalized(dist.Total()), nil
	})
	return call(tr, req, layerConvert, "bitstring.(*Dist).StringCounts", func() (qbeep.Counts, error) {
		return out.StringCounts(), nil
	})
}

// sideCalls runs the traced run's extra measurements beside request k,
// outside its request span: a single-worker graph build on counts
// requests (the serial baseline of core.build) and a separate noiseless
// statevector run on circuit requests (the part of noise.execute spent
// on the ideal distribution).
func sideCalls(ctx context.Context, tr *tracer, k int, r *request, lambda float64, opts qbeep.Options) error {
	side := tr.open("side", "side", 0, k)
	defer tr.close(side, nil)
	if !r.simulated() {
		dist, err := bitstring.FromStringCounts(r.Counts)
		if err != nil {
			return err
		}
		_, err = call(tr, side, layerBuild1W, "core.BuildStateGraphCtx(workers=1)", func() (*core.StateGraph, error) {
			return core.BuildStateGraphCtx(ctx, dist, core.PoissonEdges{Lambda: lambda}, opts.Epsilon, 1)
		})
		return err
	}
	c, err := qasm.ParseCtx(ctx, r.QASM)
	if err != nil {
		return err
	}
	_, err = call(tr, side, layerIdeal, "statevector.IdealDistCtx", func() (*bitstring.Dist, error) {
		return statevector.IdealDistCtx(ctx, c)
	})
	return err
}
