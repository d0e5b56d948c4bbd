package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"qbeep"
)

// Bytes Step touches per edge and per vertex, counted from its code
// (8 B per float64 access, 24 B per edge record): the z scatter pass
// reads the edge, two probabilities and updates two normalizers (72 B);
// the flow pass reads the edge, two normalizers, two counts and two
// probabilities, updates four flow sums and writes two flows (152 B); the
// apply pass reads the edge, two flows and two scales and updates two
// deltas (88 B). The six per-vertex passes touch 120 B per vertex. This
// is a model of today's Step, not measured traffic.
const (
	stepBytesPerEdge   = 72 + 152 + 88
	stepBytesPerVertex = 120
	// Resident bytes the graph keeps per edge: the 24 B edge record, two
	// 8 B flow slots in Step's scratch, and two 4 B CSR entries.
	residentBytesPerEdge = 24 + 16 + 8
	// Per vertex: the 16 B node, a 4 B CSR offset and six 8 B scratch
	// vectors.
	residentBytesPerVertex = 16 + 4 + 48
)

// moduleLayers lists every module the traced run charges time to, in the
// order the per-layer metrics are printed.
var moduleLayers = []string{"qasm", "device", "transpile", "noise", "core", "bitstring", "statevector"}

// measureTraced is the traced run. Each request is served twice: once
// layer by layer under spans (runLayers), once through the public API
// untimed by spans. The two outputs must agree bit for bit; the API
// call's wall time is the untraced baseline for trace.overhead.
func measureTraced(ctx context.Context, cfg config, reqs []request) (result, map[string]any, error) {
	opts := qbeep.NewOptions()
	if err := warmUp(ctx, reqs, opts); err != nil {
		return result{}, nil, err
	}
	tr := newTracer()
	var res result
	var failures []string
	var stats []layerStats
	var apiNS int64
	var alloc, gcs, pauseNS uint64
	var before, after runtime.MemStats
	for t0, i := time.Now(), 0; i%len(reqs) != 0 || time.Since(t0) < cfg.seconds; i++ {
		r := &reqs[i%len(reqs)]
		res.Attempted++
		k := res.Attempted
		runtime.GC() // see warmUp
		runtime.ReadMemStats(&before)
		out, st, err := runLayers(ctx, tr, k, r, opts)
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		gcs += uint64(after.NumGC - before.NumGC)
		pauseNS += after.PauseTotalNs - before.PauseTotalNs
		runtime.GC()
		start := time.Now()
		api, apiErr := runAPI(ctx, r, opts)
		apiNS += time.Since(start).Nanoseconds()
		if err == nil {
			err = apiErr
		}
		if err == nil {
			err = checkOutput(r, out)
		}
		if err == nil {
			if err = sameBits(out, api); err != nil {
				err = fmt.Errorf("layer path differs from the qbeep API: %w", err)
			}
		}
		if err == nil {
			err = sideCalls(ctx, tr, k, r, out.lambda, opts)
		}
		if err != nil {
			res.Failed++
			failures = append(failures, fmt.Sprintf("%s: %v", r.Name, err))
			continue
		}
		stats = append(stats, st)
	}
	res.Correct = res.Failed == 0
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return result{}, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	n := float64(res.Attempted)
	res.Metrics = layerMetrics(tr, stats, n, float64(apiNS))
	res.Metrics["runtime.alloc_mb"] = metric{float64(alloc) / n / (1 << 20), "MB"}
	res.Metrics["runtime.gc_cycles"] = metric{float64(gcs) / n, "count"}
	res.Metrics["runtime.gc_pause_ms"] = metric{float64(pauseNS) / n / 1e6, "ms"}
	summary := map[string]any{
		"workload": cfg.workload, "mode": "traced", "requests": res.Attempted,
		"spans": len(tr.spans), "failures": firstN(failures, 5),
	}
	return res, summary, nil
}

// layerMetrics aggregates the spans: per group mean wall and CPU per
// request, each group's share of request wall time, per-module error
// counts, and the counts the layers produced. apiNS is the wall time the
// same requests took through the public API; trace.overhead compares the
// traced request spans against it.
func layerMetrics(tr *tracer, stats []layerStats, n, apiNS float64) map[string]metric {
	wall := map[string]float64{}
	cpu := map[string]float64{}
	errs := map[string]float64{}
	var reqWall, childWall float64
	reqIDs := map[int]bool{}
	for _, s := range tr.spans {
		if s.Name == "request" {
			reqIDs[s.ID] = true
			reqWall += float64(s.WallNS)
		}
	}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			continue
		}
		wall[s.Layer] += float64(s.WallNS)
		cpu[s.Layer] += float64(s.CPUNS)
		if reqIDs[s.Parent] {
			childWall += float64(s.WallNS)
		}
		if s.Err != "" {
			errs[module(s.Layer)]++
		}
	}
	var sum layerStats
	var edgeSteps, vertexSteps float64
	for _, st := range stats {
		sum.vertices += st.vertices
		sum.edges += st.edges
		sum.radius += st.radius
		sum.gatesOut += st.gatesOut
		sum.swaps += st.swaps
		sum.shots += st.shots
		edgeSteps += float64(st.edges * st.iterations)
		vertexSteps += float64(st.vertices * st.iterations)
	}
	ok := float64(len(stats))
	if ok == 0 {
		ok = 1
	}
	ms := func(ns float64) float64 { return ns / n / 1e6 }
	share := func(ns float64) metric { return metric{ratio(ns, reqWall), "ratio"} }
	m := map[string]metric{
		"core.step_ms":             {ms(wall[layerStep]), "ms"},
		"core.step_cpu_ms":         {ms(cpu[layerStep]), "ms"},
		"core.step_ns_per_edge":    {ratio(wall[layerStep], edgeSteps), "ns/edge"},
		"core.step_bytes_computed": {(edgeSteps*stepBytesPerEdge + vertexSteps*stepBytesPerVertex) / ok, "B"},
		"core.step.share":          share(wall[layerStep]),
		"core.build_ms":            {ms(wall[layerBuild]), "ms"},
		"core.build_cpu_ms":        {ms(cpu[layerBuild]), "ms"},
		"core.build_1w_ms":         {ms(wall[layerBuild1W]), "ms"},
		"core.build.share":         share(wall[layerBuild]),
		"core.vertices":            {float64(sum.vertices) / ok, "count"},
		"core.edges":               {float64(sum.edges) / ok, "count"},
		"core.radius":              {float64(sum.radius) / ok, "count"},
		"core.resident_mb_computed": {(float64(sum.edges)*residentBytesPerEdge +
			float64(sum.vertices)*residentBytesPerVertex) / ok / (1 << 20), "MB"},
		"core.lambda_ms":       {ms(wall[layerLambda]), "ms"},
		"core.lambda.share":    share(wall[layerLambda]),
		"core.snapshot_ms":     {ms(wall[layerSnapshot]), "ms"},
		"core.snapshot.share":  share(wall[layerSnapshot]),
		"noise.execute_ms":     {ms(wall[layerExecute]), "ms"},
		"noise.execute_cpu_ms": {ms(cpu[layerExecute]), "ms"},
		"noise.shots_per_s":    {ratio(float64(sum.shots), wall[layerExecute]/1e9), "1/s"},
		"transpile.ms":         {ms(wall[layerTranspile]), "ms"},
		"transpile.gates_out":  {float64(sum.gatesOut) / ok, "count"},
		"transpile.swaps":      {float64(sum.swaps) / ok, "count"},
		"qasm.parse_ms":        {ms(wall[layerParse]), "ms"},
		"device.lookup_ms":     {ms(wall[layerDevice]), "ms"},
		"statevector.ideal_ms": {ms(wall[layerIdeal]), "ms"},
		"bitstring.convert_ms": {ms(wall[layerConvert]), "ms"},
		"trace.request_ms":     {ms(reqWall), "ms"},
		"trace.requests":       {n, "count"},
		"trace.coverage":       {ratio(childWall, reqWall), "ratio"},
		"trace.overhead":       {ratio(reqWall, apiNS), "ratio"},
	}
	// Module shares: statevector is measured beside the request (its work
	// is nested inside noise.execute), so its share overlaps noise's.
	for _, mod := range moduleLayers {
		var w float64
		for layer, ns := range wall {
			if module(layer) == mod && layer != layerBuild1W {
				w += ns
			}
		}
		m[mod+".share"] = share(w)
		m[mod+".errors"] = metric{errs[mod], "count"}
	}
	return m
}

// module is the part of a layer name before its first dot.
func module(layer string) string {
	mod, _, _ := strings.Cut(layer, ".")
	return mod
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
