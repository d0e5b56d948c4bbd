package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sort"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/par"
)

// EdgeWeighter maps a Hamming distance to a reclassification weight. The
// production model is PoissonEdges (Eq. 4); InverseDistanceEdges reproduces
// HAMMER's fixed local weighting inside the same iterative engine, used by
// the edge-model ablation.
type EdgeWeighter interface {
	// Weight returns the edge weight for two strings at Hamming distance
	// d >= 1. Weights below the state-graph threshold ε prune the edge.
	Weight(d int) float64
	// MaxRadius returns the largest distance worth considering for the
	// threshold eps (edges beyond it are guaranteed below threshold).
	MaxRadius(eps float64, n int) int
}

// PoissonEdges weighs edges by the Poisson pmf at the strings' Hamming
// distance, with rate λ estimated pre-induction via Eq. 2.
type PoissonEdges struct {
	Lambda float64
}

// Weight implements EdgeWeighter.
func (p PoissonEdges) Weight(d int) float64 {
	return mathx.Poisson{Lambda: p.Lambda}.PMF(d)
}

// MaxRadius implements EdgeWeighter via the Poisson tail cutoff.
func (p PoissonEdges) MaxRadius(eps float64, n int) int {
	r := mathx.Poisson{Lambda: p.Lambda}.TailCutoff(eps)
	if r > n {
		return n
	}
	return r
}

// InverseDistanceEdges is the HAMMER-style one-size-fits-all local
// weighting: weight 2^(-d) truncated at MaxD (HAMMER's published
// neighborhood stops at the second Hamming shell), independent of circuit
// and device. A zero MaxD selects the default of 2.
type InverseDistanceEdges struct {
	MaxD int
}

func (w InverseDistanceEdges) maxD() int {
	if w.MaxD <= 0 {
		return 2
	}
	return w.MaxD
}

// Weight implements EdgeWeighter.
func (w InverseDistanceEdges) Weight(d int) float64 {
	if d < 0 || d > w.maxD() {
		return 0
	}
	v := 1.0
	for i := 0; i < d; i++ {
		v /= 2
	}
	return v
}

// MaxRadius implements EdgeWeighter.
func (w InverseDistanceEdges) MaxRadius(eps float64, n int) int {
	for d := 1; d <= n; d++ {
		if w.Weight(d) < eps {
			return d
		}
	}
	return n
}

// node is one state-graph vertex: an observed bit-string with its
// (fractional) observation count. Probabilities derive from counts on
// demand.
type node struct {
	value bitstring.BitString
	count float64
}

// StateGraph is the Bayesian network over observed bit-strings (paper
// §3.4, Fig. 5): vertices are the observed outcomes, edges link pairs whose
// model weight passes the ε threshold.
//
// The adjacency is stored once, as compact CSR rows: vertex i's
// neighbours are adjNbr[adjStart[i]:adjStart[i+1]], ascending, and
// adjDist holds each entry's Hamming distance, which indexes the
// per-distance weight table. Every edge appears in both endpoints' rows,
// so an edge costs 2×(4+1) = 10 resident bytes. Step gathers over these
// rows (see Step), and its working set lives in a reusable scratch
// struct, so the 20-iteration mitigation loop is allocation-free after
// the first call.
type StateGraph struct {
	n          int
	nodes      []node
	adjStart   []int32 // CSR row offsets, len V+1
	adjNbr     []int32 // neighbour indices, ascending within each row
	adjDist    []uint8 // Hamming distance of each row entry
	tab        weightTable
	total      float64
	radius     int
	selfWeight float64 // model weight at distance 0 (the "stay" term)
	pruned     int     // candidate pairs within the scan radius dropped by the ε threshold
	// workers caps the flow iteration's shard count like the edge scan's
	// (<= 0 selects GOMAXPROCS above stepParMinHalfEdges); ctx parents
	// the shards' worker spans.
	workers int
	ctx     context.Context
	scratch stepScratch
}

func validateBuild(counts *bitstring.Dist, w EdgeWeighter, eps float64) error {
	if counts == nil || counts.Support() == 0 {
		return fmt.Errorf("core: empty counts")
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("core: epsilon %v outside (0,1)", eps)
	}
	if w == nil {
		return fmt.Errorf("core: nil edge weighter")
	}
	return nil
}

// initStateGraph allocates the vertex set (one node per observed outcome,
// ascending) and resolves the model radius. It returns the node values as
// a flat slice for the edge scan's cache-friendly inner loop.
func initStateGraph(counts *bitstring.Dist, w EdgeWeighter, eps float64) (*StateGraph, []bitstring.BitString) {
	g := &StateGraph{n: counts.Width(), total: counts.Total(), selfWeight: w.Weight(0)}
	outcomes := counts.Outcomes()
	g.nodes = make([]node, len(outcomes))
	vals := make([]bitstring.BitString, len(outcomes))
	for i, o := range outcomes {
		g.nodes[i] = node{value: o, count: counts.Count(o)}
		vals[i] = o
	}
	g.radius = w.MaxRadius(eps, g.n)
	return g, vals
}

// sparsifyTopK prunes the graph to each vertex's k heaviest incident
// edges — the opt-in approximation behind Options.TopK. Selection is by
// (weight descending, neighbour ascending) — within a row, neighbour
// order is canonical (a, b) edge order — so ties resolve identically on
// every run, and an edge survives when either endpoint selects it (the
// symmetric k-NN union), keeping the graph undirected with every vertex
// retaining min(k, degree) edges or more. Surviving entries keep their
// ascending row order, so the filtered graph — like the exact scan — is
// independent of the worker count. Returns the number of edges dropped.
func (g *StateGraph) sparsifyTopK(k int) int {
	nV := len(g.nodes)
	if k <= 0 || len(g.adjNbr) == 0 {
		return 0
	}
	w := &g.tab.perString
	keep := make([]bool, len(g.adjNbr))
	var order []int32
	for i := 0; i < nV; i++ {
		lo, hi := g.adjStart[i], g.adjStart[i+1]
		if int(hi-lo) <= k {
			for p := lo; p < hi; p++ {
				keep[p] = true
			}
			continue
		}
		order = order[:0]
		for p := lo; p < hi; p++ {
			order = append(order, p)
		}
		slices.SortFunc(order, func(x, y int32) int {
			wx, wy := w[g.adjDist[x]], w[g.adjDist[y]]
			if wx > wy {
				return -1
			}
			if wx < wy {
				return 1
			}
			return int(x - y)
		})
		for _, p := range order[:k] {
			keep[p] = true
		}
	}
	// Symmetrize: row b's entries for lower neighbours come first and in
	// ascending order, so visiting rows ascending meets each mirror entry
	// at row b's lower-entry cursor.
	mirror := make([]int32, nV)
	copy(mirror, g.adjStart[:nV])
	kept := 0
	for a := 0; a < nV; a++ {
		for p := g.adjStart[a]; p < g.adjStart[a+1]; p++ {
			b := g.adjNbr[p]
			if int(b) < a {
				continue
			}
			q := mirror[b]
			mirror[b]++
			if keep[p] || keep[q] {
				keep[p], keep[q] = true, true
				kept++
			}
		}
	}
	dropped := len(g.adjNbr)/2 - kept
	if dropped == 0 {
		return 0
	}
	start := make([]int32, nV+1)
	nbr := make([]int32, 0, 2*kept)
	dist := make([]uint8, 0, 2*kept)
	for i := 0; i < nV; i++ {
		for p := g.adjStart[i]; p < g.adjStart[i+1]; p++ {
			if keep[p] {
				nbr = append(nbr, g.adjNbr[p])
				dist = append(dist, g.adjDist[p])
			}
		}
		start[i+1] = int32(len(nbr))
	}
	g.adjStart, g.adjNbr, g.adjDist = start, nbr, dist
	return dropped
}

// BuildStateGraphCtx constructs the graph from raw counts under the
// given edge model and threshold. Vertices are created only for observed
// (non-zero) outcomes, so the graph scales with shots, not with 2^n.
//
// Edge creation is thresholded on the model's shell mass w(d) >= ε (the
// paper's scalability rule), but the stored weight is the per-string
// likelihood w(d)/C(n,d): the model assigns mass w(d) to the whole
// distance-d shell, and an individual string is one of C(n,d)
// equally-likely landing sites. Without this normalization the
// combinatorially-large middle shells would out-pull the true solution.
//
// Discovery is popcount-bucketed (or a Hamming-ball walk on narrow
// registers) instead of the O(V²) pairwise scan — see edgescan.go — and
// the output is bit-for-bit identical to that serial scan. workers caps
// the edge-scan worker count (<= 0 selects GOMAXPROCS); the result is
// independent of it: vertex ranges emit their edges in canonical
// ascending (a, b) order and are concatenated in range order, so the
// adjacency rows — and every downstream Step — never depend on
// scheduling. The same workers value caps the shard count of Step's
// flow iteration, whose output is equally independent of it.
// The "core.graph.build" span becomes a child of the span active in ctx,
// and the parallel edge scan's worker spans parent under it; Step's
// worker spans parent under the span active in ctx itself.
func BuildStateGraphCtx(ctx context.Context, counts *bitstring.Dist, w EdgeWeighter, eps float64, workers int) (*StateGraph, error) {
	return buildStateGraphCtx(ctx, counts, w, eps, workers, scanAuto, 0)
}

func buildStateGraphCtx(ctx context.Context, counts *bitstring.Dist, w EdgeWeighter, eps float64, workers int, strat scanStrategy, topK int) (*StateGraph, error) {
	if err := validateBuild(counts, w, eps); err != nil {
		return nil, err
	}
	g, vals := initStateGraph(counts, w, eps)
	g.workers, g.ctx = workers, ctx
	ctx, sp := obs.Start(ctx, "core.graph.build")
	g.tab = newWeightTable(w, eps, g.n, g.radius)
	// Scan only to the effective radius: the model's tail cutoff always
	// ends in at least one shell that fails ε, and such dead boundary
	// shells are the largest by far. Edges are unaffected (those shells
	// cannot produce any); only the pruned tally narrows its scope.
	g.radius = g.tab.effectiveRadius()
	var used scanStrategy
	g.adjStart, g.adjNbr, g.adjDist, g.pruned, used = scanEdges(ctx, vals, g.n, g.radius, &g.tab, workers, strat)
	dropped := 0
	if topK > 0 {
		dropped = g.sparsifyTopK(topK)
	}
	metGraphVerts.Set(float64(len(g.nodes)))
	metGraphEdges.Set(float64(g.NumEdges()))
	metGraphPruned.Set(float64(g.pruned))
	metGraphRadius.Set(float64(g.radius))
	switch used {
	case scanSphere:
		metGraphScanSphere.Inc()
	case scanBucket:
		metGraphScanBucket.Inc()
	}
	sp.SetAttr("vertices", len(g.nodes))
	sp.SetAttr("edges", g.NumEdges())
	sp.SetAttr("pruned", g.pruned)
	sp.SetAttr("strategy", used.String())
	if topK > 0 {
		sp.SetAttr("top_k", topK)
		sp.SetAttr("edges_dropped", dropped)
	}
	elapsed := sp.End()
	metGraphBuild.ObserveDuration(elapsed)
	// Gated on the level check: assembling the key/value list boxes a
	// dozen arguments, a measurable slice of the per-build allocations
	// when debug logging is off (the default).
	if l := obs.Logger(); l.Enabled(ctx, slog.LevelDebug) {
		l.Debug("state graph built",
			"vertices", len(g.nodes), "edges", g.NumEdges(), "pruned", g.pruned,
			"radius", g.radius, "width", g.n, "strategy", used.String(),
			"top_k", topK, "edges_dropped", dropped, "elapsed", elapsed)
	}
	return g, nil
}

// NumVertices returns the vertex count.
func (g *StateGraph) NumVertices() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *StateGraph) NumEdges() int { return len(g.adjNbr) / 2 }

// Radius returns the maximum Hamming distance spanned by edges: the
// largest shell whose model weight passes the ε threshold.
func (g *StateGraph) Radius() int { return g.radius }

// Degree returns the number of edges incident to vertex i.
func (g *StateGraph) Degree(i int) int {
	return int(g.adjStart[i+1] - g.adjStart[i])
}

// Dist snapshots the current vertex counts as a distribution, pre-sized
// to the vertex count so million-vertex snapshots insert without rehash.
func (g *StateGraph) Dist() *bitstring.Dist {
	d := bitstring.NewDistCap(g.n, len(g.nodes))
	for _, nd := range g.nodes {
		if nd.count > 0 {
			d.Add(nd.value, nd.count)
		}
	}
	return d
}

// Fidelity computes the classical (Bhattacharyya) fidelity between ideal
// and the graph's current counts without materializing an intermediate
// Dist — the tracked-mitigation loop calls it once per iteration, and
// the snapshot Dist used to be that loop's dominant allocation. Nodes
// are stored ascending and the operand order matches bitstring.Fidelity,
// so the result equals bitstring.Fidelity(ideal, g.Dist()).
func (g *StateGraph) Fidelity(ideal *bitstring.Dist) float64 {
	if ideal == nil || ideal.Total() == 0 || g.total <= 0 {
		return 0
	}
	var s float64
	for i := range g.nodes {
		c := g.nodes[i].count
		if c <= 0 {
			continue
		}
		if q := ideal.Count(g.nodes[i].value); q > 0 {
			s += math.Sqrt(q / ideal.Total() * c / g.total)
		}
	}
	return s * s
}

// Hellinger computes the Hellinger distance between ideal and the
// graph's current counts, H = sqrt(1 − Σ sqrt(p q)), straight off the
// node slice like Fidelity; it equals bitstring.Hellinger(ideal,
// g.Dist()). The tracked-mitigation loop records it per iteration.
func (g *StateGraph) Hellinger(ideal *bitstring.Dist) float64 {
	return hellingerFromFidelity(g.Fidelity(ideal))
}

// hellingerFromFidelity converts a Bhattacharyya fidelity F = BC² into
// the Hellinger distance sqrt(1 − BC), mirroring bitstring.Hellinger.
func hellingerFromFidelity(f float64) float64 {
	bc := math.Sqrt(f)
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// stepParMinHalfEdges is the auto-mode shard grain: each flow-iteration
// shard gets at least this many row entries, so graphs below it run the
// kernels inline — at a few hundred vertices a fan-out costs more than
// it saves (explicit worker counts shard unconditionally, so the
// equivalence tests cover every path).
const stepParMinHalfEdges = 1 << 15

// Step's gather phases, run in order; see Step.
const (
	phaseNormalizer = iota
	phaseCap
	phaseDelta
)

// flowVertex is the part of one vertex's Step working set that the
// delta gathers read from its neighbours: 32 bytes, so two share a cache
// line and a neighbour costs one line. The first two phases gather only
// the probabilities, so those also live in a dense vector of their own,
// a quarter of the footprint.
type flowVertex struct {
	prob  float64 // count / total, a copy of stepScratch.prob[i]
	z     float64 // posterior normalizer Z_i
	ec    float64 // eta · count
	scale float64 // reclassification-overflow cap factor
}

// flowResult is the part only the vertex's own shard writes and the
// serial apply pass reads.
type flowResult struct {
	moved float64 // capped out-flow Σ_j f_ij·s_i
	delta float64 // net count change
}

// stepScratch holds Step's working set, sized once per graph so the
// iteration loop performs no allocations after the first call. eta and
// phase are the per-call arguments the shards read.
//
//qbeep:pooled
type stepScratch struct {
	prob   []float64
	v      []flowVertex
	res    []flowResult
	eta    float64
	phase  int
	bounds []int32 // shard k covers vertices [bounds[k], bounds[k+1])
	shards *par.Shards
}

// stepWorkers resolves the flow iteration's shard count.
func (g *StateGraph) stepWorkers() int {
	w := g.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if limit := len(g.adjNbr) / stepParMinHalfEdges; w > limit {
			w = limit
		}
	}
	if w > len(g.nodes) {
		w = len(g.nodes)
	}
	return w
}

// initStep sizes the scratch and, for a sharded graph, binds the shard
// tasks and cuts the vertex ranges at equal (row entries + vertices)
// work, so a few heavy rows cannot leave one shard with most of it.
func (g *StateGraph) initStep() {
	nV := len(g.nodes)
	s := &g.scratch
	s.prob = make([]float64, nV)
	s.v = make([]flowVertex, nV)
	s.res = make([]flowResult, nV)
	w := g.stepWorkers()
	if w <= 1 {
		return
	}
	s.bounds = make([]int32, w+1)
	total := int64(g.adjStart[nV]) + int64(nV)
	for k := 1; k < w; k++ {
		target := total * int64(k) / int64(w)
		s.bounds[k] = int32(sort.Search(nV, func(i int) bool {
			return int64(g.adjStart[i])+int64(i) >= target
		}))
	}
	s.bounds[w] = int32(nV)
	s.shards = par.NewShards(w, g.stepShard)
}

// runPhase runs one gather phase over every vertex: inline on an
// unsharded graph, else across the bound shards. A shard panic (only a
// corrupt graph can cause one) resurfaces on the calling goroutine.
//
//qbeep:allocfree
func (g *StateGraph) runPhase(phase int) {
	s := &g.scratch
	if s.shards == nil {
		g.phaseRange(phase, 0, len(g.nodes))
		return
	}
	s.phase = phase
	if err := s.shards.Run(g.ctx, s.shards.Len()); err != nil {
		panic(err)
	}
}

// stepShard runs the current phase over shard k's vertex range.
//
//qbeep:allocfree
func (g *StateGraph) stepShard(k int) {
	b := g.scratch.bounds
	g.phaseRange(g.scratch.phase, int(b[k]), int(b[k+1]))
}

// phaseRange runs one gather phase over vertices [lo, hi).
//
//qbeep:allocfree
func (g *StateGraph) phaseRange(phase, lo, hi int) {
	switch phase {
	case phaseNormalizer:
		g.normalizerRange(lo, hi)
	case phaseCap:
		g.capRange(lo, hi)
	case phaseDelta:
		g.deltaRange(lo, hi)
	}
}

// normalizerRange computes Z_i = w_0·P_i + Σ_j w_ij·P_j and eta·count_i
// for vertices [lo, hi).
//
//qbeep:allocfree
func (g *StateGraph) normalizerRange(lo, hi int) {
	prob, v, w, start, nbr, dist := g.scratch.prob, g.scratch.v, &g.tab.perString, g.adjStart, g.adjNbr, g.adjDist
	sw, eta := g.selfWeight, g.scratch.eta
	for i := lo; i < hi; i++ {
		row, ds := nbr[start[i]:start[i+1]], dist[start[i]:start[i+1]]
		ds = ds[:len(row)]
		z := sw * prob[i]
		for p, j := range row {
			z += w[ds[p]] * prob[j]
		}
		v[i] = flowVertex{prob: prob[i], z: z, ec: eta * g.nodes[i].count}
	}
}

// capRange computes each vertex's out-flow Σ_j f_ij, with
// f_ij = eta·count_i·w_ij·P_j / Z_i, and the Algorithm 1 overflow cap
// s_i = (count_i + in-flow) / out-flow where the out-flow exceeds
// count_i + in-flow. Every flow carries the sign of eta, so an out-flow
// within count_i can never exceed count_i + in-flow (in-flow >= 0
// whenever out-flow > 0): the in-flow gather runs only for vertices
// whose out-flow exceeds their count, which is rare for eta <= 1.
//
//qbeep:allocfree
func (g *StateGraph) capRange(lo, hi int) {
	prob, v, res, w, start, nbr, dist := g.scratch.prob, g.scratch.v, g.scratch.res, &g.tab.perString, g.adjStart, g.adjNbr, g.adjDist
	for i := lo; i < hi; i++ {
		row, ds := nbr[start[i]:start[i+1]], dist[start[i]:start[i+1]]
		ds = ds[:len(row)]
		vi := &v[i]
		scale, moved := 1.0, 0.0
		if zi := vi.z; zi > 0 {
			ec := vi.ec
			var out float64
			for p, j := range row {
				out += ec * w[ds[p]] * prob[j] / zi
			}
			if c := g.nodes[i].count; out > c {
				var in float64
				pi := vi.prob
				for p, j := range row {
					if vj := &v[j]; vj.z > 0 {
						in += vj.ec * w[ds[p]] * pi / vj.z
					}
				}
				if limit := c + in; out > limit {
					scale = limit / out
				}
			}
			moved = out * scale
		}
		vi.scale = scale
		res[i].moved = moved
	}
}

// deltaRange computes delta_i = Σ_j (f_ji·s_j − f_ij·s_i), recomputing
// both flows of every incident edge.
//
//qbeep:allocfree
func (g *StateGraph) deltaRange(lo, hi int) {
	v, res, w, start, nbr, dist := g.scratch.v, g.scratch.res, &g.tab.perString, g.adjStart, g.adjNbr, g.adjDist
	for i := lo; i < hi; i++ {
		row, ds := nbr[start[i]:start[i+1]], dist[start[i]:start[i+1]]
		ds = ds[:len(row)]
		vi := v[i]
		var delta float64
		for p, j := range row {
			wt, vj := w[ds[p]], &v[j]
			var fij, fji float64
			if vi.z > 0 {
				fij = vi.ec * wt * vj.prob / vi.z
			}
			if vj.z > 0 {
				fji = vj.ec * wt * vi.prob / vj.z
			}
			delta += fji*vj.scale - fij*vi.scale
		}
		res[i].delta = delta
	}
}

// Step performs one reclassification iteration with learning rate eta
// (paper Algorithm 1, inner loop). Each node redistributes its counts
// according to the normalized Bayesian posterior of Eq. 4: an observation
// of A belongs to neighbor B with probability
//
//	P(A→B) = w_AB·P_B / (w_0·P_A + Σ_C w_AC·P_C)
//
// where w_0 is the model weight at distance 0 — the "observation is
// genuine" hypothesis — and the denominator normalizes the posterior over
// all hypotheses for node A. The learning rate scales the moved fraction
// (paper: η = 1/iteration to prevent cycling between local nodes); the
// reclassification-overflow cap of Algorithm 1 guards η > 1 ablations.
//
// This posterior form is what makes the fixed point entropy-aware: on a
// balanced (high-entropy) distribution the in/out flows cancel and the
// distribution is left alone, while a small error node adjacent to a
// dominant string hands essentially all of its counts over — the behavior
// §5 of the paper describes.
//
// The update is pull-based: three per-vertex gather phases over the
// adjacency rows (normalizers, out-flows and caps, net deltas), each a
// pure function of the previous phases' per-vertex results, then one
// serial apply pass. Each row lists its neighbours in ascending order,
// which is the canonical edge order, so every per-vertex sum adds the
// same terms in the same order as an edge-ordered scatter would: counts,
// L1Delta and Hellinger are bit-identical to it, and independent of the
// shard count. The phases shard across fixed vertex ranges (see
// stepWorkers) with no shared writes.
//
// All working vectors live in the graph's scratch struct: after the first
// call, Step allocates nothing, sharded or not (pinned by
// TestStepAllocationFree).
//
// The returned StepStats reports how much mass actually moved, so callers
// can observe convergence without re-diffing distributions.
//
//qbeep:allocfree
func (g *StateGraph) Step(eta float64) StepStats {
	if g.total <= 0 {
		return StepStats{}
	}
	s := &g.scratch
	if len(s.v) != len(g.nodes) {
		g.initStep()
	}
	prob := s.prob
	for i := range g.nodes {
		prob[i] = g.nodes[i].count / g.total
	}
	s.eta = eta
	g.runPhase(phaseNormalizer)
	g.runPhase(phaseCap)
	g.runPhase(phaseDelta)
	// The apply pass also accumulates the Bhattacharyya overlap between
	// the pre- and post-step counts, yielding the per-iteration Hellinger
	// delta (the Options.ConvergeTol signal) without a second scan. It
	// only reads the counts, so the update itself stays bit-identical to
	// the fixed-schedule path.
	var st StepStats
	res := s.res
	prevTotal := g.total
	var bcSum float64
	g.total = 0
	for i := range g.nodes {
		st.FlowMoved += res[i].moved
		c := g.nodes[i].count + res[i].delta
		if c < 0 {
			c = 0
		}
		if d := c - g.nodes[i].count; d >= 0 {
			st.L1Delta += d
		} else {
			st.L1Delta -= d
		}
		bcSum += math.Sqrt(g.nodes[i].count * c)
		g.nodes[i].count = c
		g.total += c
	}
	if prevTotal > 0 && g.total > 0 {
		bc := bcSum / math.Sqrt(prevTotal*g.total)
		if bc > 1 {
			bc = 1
		}
		st.Hellinger = math.Sqrt(1 - bc)
	} else if prevTotal > 0 || g.total > 0 {
		st.Hellinger = 1
	}
	return st
}

// StepStats summarizes one reclassification iteration.
type StepStats struct {
	// FlowMoved is the gross mass carried along edges (both directions,
	// after the overflow cap), summed per vertex in vertex order.
	FlowMoved float64
	// L1Delta is Σ_i |Δcount_i|: the net per-vertex change actually
	// applied, the natural convergence signal (≈ 0 at the fixed point).
	L1Delta float64
	// Hellinger is the Hellinger distance between the pre- and post-step
	// normalized distributions — the per-iteration delta that
	// Options.ConvergeTol compares against for adaptive early exit.
	Hellinger float64
}

// Vertices returns the observed strings sorted ascending (testing/debug).
func (g *StateGraph) Vertices() []bitstring.BitString {
	out := make([]bitstring.BitString, len(g.nodes))
	for i, nd := range g.nodes {
		out[i] = nd.value
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
