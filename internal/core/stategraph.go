package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/obs"
	"qbeep/internal/par"
)

// EdgeWeighter maps a Hamming distance to a model weight. The production
// model is PoissonEdges (Eq. 4); InverseDistanceEdges is HAMMER's fixed
// local weighting, which internal/hammer re-weights by and the edge-model
// ablation runs inside the iterative engine.
type EdgeWeighter interface {
	// Weight returns the model weight at Hamming distance d >= 0: the
	// mass of the whole distance-d shell (d = 0 is the "observation is
	// genuine" term). A mitigation build keeps the shells whose weight
	// passes the state-graph threshold ε, walking d = 1..n.
	Weight(d int) float64
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

// InverseDistanceEdges is HAMMER's one-size-fits-all local weighting:
// weight 2^(-d) up to the second Hamming shell, where HAMMER's published
// neighborhood stops, independent of circuit and device.
type InverseDistanceEdges struct{}

// Weight implements EdgeWeighter.
func (InverseDistanceEdges) Weight(d int) float64 {
	if d < 0 || d > 2 {
		return 0
	}
	return 1 / float64(int(1)<<d)
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
// The adjacency has one of two representations, chosen at build time
// (DESIGN.md §7). CSR rows: vertex i's row is adj[adjStart[i]:adjStart[i+1]],
// one 4-byte entry j<<8 | d(i, j) per neighbour j, ascending in j; the
// Hamming distance d in the low byte indexes the per-distance weight
// table. The 24-bit index is why a graph holds fewer than maxVertices
// (2²⁴) vertices. Every edge appears in both endpoints' rows, so an edge
// costs 2×4 = 8 resident bytes. scanEdges lays the rows out with a
// counting sort after its sharded scan, and Step sums each row in a
// fixed four-way order (passRange). Or, on registers of up to
// spectrumMaxWidth (20) qubits where the graph is dense enough, a
// spectrum (spectrum.go): Step computes the same neighbour sums by
// Walsh–Hadamard transforms and no edge is stored; the rows are built
// only if WriteDOT asks for them. Step's working set
// lives in a reusable scratch struct, so the 20-iteration mitigation
// loop is allocation-free after the first call.
type StateGraph struct {
	n          int
	nodes      []node
	adjStart   []int32   // CSR row offsets, len V+1
	adj        []uint32  // row entries j<<8 | d(i, j), ascending in j within each row
	spec       *spectrum // non-nil: Step runs on the spectrum, the rows may be absent
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

func validateInputs(counts *bitstring.Dist, w EdgeWeighter) error {
	if counts == nil || counts.Support() == 0 {
		return fmt.Errorf("core: empty counts")
	}
	if w == nil {
		return fmt.Errorf("core: nil edge weighter")
	}
	return nil
}

// maxVertices bounds a graph's vertex count: a row entry keeps the
// neighbour index in its top 24 bits.
const maxVertices = 1 << 24

// checkVertexCount rejects a vertex count the row entries cannot index.
func checkVertexCount(nV int) error {
	if nV >= maxVertices {
		return fmt.Errorf("core: %d observed outcomes, a state graph holds fewer than %d", nV, maxVertices)
	}
	return nil
}

func validateBuild(counts *bitstring.Dist, w EdgeWeighter, eps float64) error {
	if err := validateInputs(counts, w); err != nil {
		return err
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("core: epsilon %v outside (0,1)", eps)
	}
	return nil
}

// initStateGraph allocates the vertex set (one node per observed outcome,
// ascending) with self the model weight at distance 0. It returns the
// node values as a flat slice for the edge scan's cache-friendly inner
// loop.
func initStateGraph(counts *bitstring.Dist, self float64) (*StateGraph, []bitstring.BitString) {
	g := &StateGraph{n: counts.Width(), total: counts.Total(), selfWeight: self}
	g.nodes = make([]node, 0, counts.Support())
	counts.Each(func(v bitstring.BitString, c float64) {
		g.nodes = append(g.nodes, node{value: v, count: c})
	})
	return g, counts.Outcomes()
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
// Discovery walks the Hamming ball around each vertex where that probes
// fewer strings than the pairwise scan, and runs the pairwise scan
// otherwise — see edgescan.go; the output is bit-for-bit identical to
// the serial scan either way. workers caps the edge-scan worker count
// (<= 0 selects GOMAXPROCS); the result is independent of it: vertex
// ranges emit their edges in canonical ascending (a, b) order and are
// concatenated in range order, so the adjacency rows — and every
// downstream Step — never depend on scheduling. The same workers value
// caps the shard count of Step's flow iteration, whose output is
// equally independent of it.
// The "core.graph.build" span becomes a child of the span active in ctx,
// and the parallel edge scan's worker spans parent under it; Step's
// worker spans parent under the span active in ctx itself.
func BuildStateGraphCtx(ctx context.Context, counts *bitstring.Dist, w EdgeWeighter, eps float64, workers int) (*StateGraph, error) {
	return buildStateGraphCtx(ctx, counts, w, eps, workers, scanAuto)
}

func buildStateGraphCtx(ctx context.Context, counts *bitstring.Dist, w EdgeWeighter, eps float64, workers int, strat scanStrategy) (*StateGraph, error) {
	if err := validateBuild(counts, w, eps); err != nil {
		return nil, err
	}
	return buildGraph(ctx, counts, w.Weight(0), newWeightTable(w, eps, counts.Width()), workers, strat)
}

// buildGraph builds the graph whose edges are the vertex pairs at the
// distances tab gives a nonzero weight, scanning to the largest such
// distance; self is the weight at distance 0. It fails on maxVertices or
// more outcomes.
func buildGraph(ctx context.Context, counts *bitstring.Dist, self float64, tab weightTable, workers int, strat scanStrategy) (*StateGraph, error) {
	if err := checkVertexCount(counts.Support()); err != nil {
		return nil, err
	}
	g, vals := initStateGraph(counts, self)
	g.workers, g.ctx = workers, ctx
	ctx, sp := obs.Start(ctx, "core.graph.build")
	// The deferred End covers the scan's error return (qbeep-lint
	// spanend); a successful build ends the span below.
	defer sp.End()
	g.tab = tab
	// Scan only to the effective radius: shells past it carry no edge,
	// and the largest shells are the outer ones.
	g.radius = g.tab.effectiveRadius()
	used := scanSpectrum
	if g.spec = g.trySpectrum(ctx, vals, strat); g.spec != nil {
		// The build's two transforms and sweeps over 2ⁿ entries take
		// tens of milliseconds at most (n <= spectrumMaxWidth), so one
		// check after them stands in for the scan's periodic ones.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	} else {
		if strat == scanSpectrum {
			strat = scanAuto
		}
		var err error
		g.adjStart, g.adj, g.pruned, used, err = scanEdges(ctx, vals, g.n, g.radius, &g.tab, workers, strat)
		if err != nil {
			return nil, err
		}
	}
	metGraphVerts.Set(float64(len(g.nodes)))
	metGraphEdges.Set(float64(g.NumEdges()))
	metGraphPruned.Set(float64(g.pruned))
	metGraphRadius.Set(float64(g.radius))
	switch used {
	case scanSphere:
		metGraphScanSphere.Inc()
	case scanPairs:
		metGraphScanPairs.Inc()
	case scanSpectrum:
		metGraphScanSpectrum.Inc()
	}
	sp.SetAttr("vertices", len(g.nodes))
	sp.SetAttr("edges", g.NumEdges())
	sp.SetAttr("pruned", g.pruned)
	sp.SetAttr("strategy", used.String())
	sp.SetAttr("radius", g.radius)
	sp.SetAttr("width", g.n)
	metGraphBuild.ObserveDuration(sp.End())
	return g, nil
}

// NumVertices returns the vertex count.
func (g *StateGraph) NumVertices() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *StateGraph) NumEdges() int {
	if g.spec != nil {
		return g.spec.edges
	}
	return len(g.adj) / 2
}

// Radius returns the maximum Hamming distance spanned by edges: the
// largest shell whose model weight passes the ε threshold.
func (g *StateGraph) Radius() int { return g.radius }

// Dist snapshots the current vertex counts as a distribution. Nodes are
// stored ascending, so every Add appends.
func (g *StateGraph) Dist() *bitstring.Dist {
	d := bitstring.NewDist(g.n)
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

// stepParMinHalfEdges is the auto-mode shard grain: each flow-iteration
// shard gets at least this many row entries, so graphs below it run the
// kernels inline — at a few hundred vertices a fan-out costs more than
// it saves (explicit worker counts shard unconditionally, so the
// equivalence tests cover every path).
const stepParMinHalfEdges = 1 << 15

// Step's row-sum passes; see Step.
const (
	passOut   = iota // S = W·P: normalizers, a = η·count/Z, out-flows
	passScale        // T = W·a: in-flows and overflow caps (cap path only)
	passDelta        // W·a, or W·(a⊙s) after a cap pass: net deltas
)

// stepScratch holds Step's working set, sized once per graph so the
// iteration loop performs no allocations after the first call. eta,
// pass, x and capped are the per-call arguments the shards read.
//
//qbeep:pooled
type stepScratch struct {
	prob   []float64 // P_i = count_i / total
	a      []float64 // a_i = η·count_i / Z_i, 0 where Z_i <= 0
	as     []float64 // a_i·s_i, written by the cap pass
	out    []float64 // out-flow, times the cap factor s_i after a cap pass
	delta  []float64 // net count change
	sum    []float64 // the current pass's neighbour sums
	x      []float64 // the current pass's input: prob, a or as
	eta    float64
	pass   int
	over   []bool  // over[k]: shard k has a vertex with out-flow > count
	capped bool    // the last Step ran the cap pass
	bounds []int32 // shard k covers vertices [bounds[k], bounds[k+1])
	shards *par.Shards
}

// stepWorkers resolves the flow iteration's shard count.
func (g *StateGraph) stepWorkers() int {
	if g.spec != nil {
		return 1 // the transforms run on the spectrum's shards (see spectrum.go)
	}
	w := g.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if limit := len(g.adj) / stepParMinHalfEdges; w > limit {
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
	s.a = make([]float64, nV)
	s.as = make([]float64, nV)
	s.out = make([]float64, nV)
	s.delta = make([]float64, nV)
	s.sum = make([]float64, nV)
	w := g.stepWorkers()
	s.over = make([]bool, max(w, 1))
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

// runPass runs one pass over every vertex: inline on an unsharded graph
// (a spectrum graph's sums first, see spectrum.sums), else across the
// bound shards. A shard panic (only a corrupt graph can cause one)
// resurfaces on the calling goroutine.
//
//qbeep:allocfree
func (g *StateGraph) runPass(pass int) {
	s := &g.scratch
	s.pass = pass
	switch {
	case pass == passDelta && s.capped:
		s.x = s.as
	case pass != passOut:
		s.x = s.a
	default:
		s.x = s.prob
	}
	if s.shards == nil {
		if g.spec != nil {
			g.spec.sums(g.ctx, s.x, s.sum)
		}
		g.passRange(0, 0, len(g.nodes))
		return
	}
	if err := s.shards.Run(g.ctx, s.shards.Len()); err != nil {
		panic(err)
	}
}

// stepShard runs the current pass over shard k's vertex range.
//
//qbeep:allocfree
func (g *StateGraph) stepShard(k int) {
	b := g.scratch.bounds
	g.passRange(k, int(b[k]), int(b[k+1]))
}

// passRange runs the current pass over shard k's vertices [lo, hi):
// first every vertex's neighbour sum Σ_j w_ij·x_j into s.sum — its row
// sum; on a spectrum graph spectrum.sums has already left them there — then
// the pass's epilogue per vertex, which writes only vertex i's entries.
// The row sums get a loop of their own: folded into the epilogue loop,
// they left too few registers for the row loop's counter. A row sum runs
// four accumulators, entry p of each block of four into s_p and the last
// len%4 entries into s0, combined as (s0+s1)+(s2+s3): the order is fixed
// per row, so the sums do not depend on the shard count.
//
//qbeep:allocfree
func (g *StateGraph) passRange(k, lo, hi int) {
	s := &g.scratch
	sums := s.sum[lo:hi]
	if g.spec == nil {
		w, start, adj, x := &g.tab.perString, g.adjStart, g.adj, s.x
		for i := range sums {
			row := adj[start[lo+i]:start[lo+i+1]]
			var s0, s1, s2, s3 float64
			for ; len(row) >= 4; row = row[4:] {
				s0 += w[uint8(row[0])] * x[row[0]>>8]
				s1 += w[uint8(row[1])] * x[row[1]>>8]
				s2 += w[uint8(row[2])] * x[row[2]>>8]
				s3 += w[uint8(row[3])] * x[row[3]>>8]
			}
			for _, e := range row {
				s0 += w[uint8(e)] * x[e>>8]
			}
			sums[i] = (s0 + s1) + (s2 + s3)
		}
	}
	prob, a, as, out, delta := s.prob, s.a, s.as, s.out, s.delta
	pass, sw, eta := s.pass, g.selfWeight, s.eta
	over := false
	for i := lo; i < hi; i++ {
		sum := sums[i-lo]
		switch pass {
		case passOut:
			var ai, oi float64
			if z := sw*prob[i] + sum; z > 0 {
				c := g.nodes[i].count
				ec := eta * c
				ai, oi = ec/z, ec*(sum/z)
				over = over || oi > c
			}
			a[i], out[i] = ai, oi
		case passScale:
			ai := a[i]
			if c, oi := g.nodes[i].count, out[i]; oi > c {
				if limit := c + prob[i]*sum; oi > limit {
					sc := limit / oi
					ai *= sc
					out[i] = oi * sc
				}
			}
			as[i] = ai
		case passDelta:
			delta[i] = prob[i]*sum - out[i]
		}
	}
	if pass == passOut {
		s.over[k] = over
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
// The update factors into neighbour sums over the adjacency rows (W is
// the weight matrix, P the probability vector):
//
//	S = W·P,  Z_i = w_0·P_i + S_i,  a_i = η·count_i / Z_i (0 if Z_i <= 0)
//	out_i = fl(η·count_i)·fl(S_i/Z_i),  T = W·a,  delta_i = P_i·T_i − out_i
//
// so a step is two neighbour-sum passes and a serial apply pass. On
// CSR rows a pass sums each row; on a spectrum graph it computes every
// sum at once as H·(ŵ ⊙ H·x)/2ⁿ (spectrum.go), and the per-vertex
// epilogues, the cap logic and the apply pass are the same code. The cap
// s_i = (count_i + P_i·T_i) / out_i applies where the out-flow exceeds
// count_i + in-flow, which needs out_i > count_i: only when some vertex
// has that does a cap pass compute the s_i, and the deltas gather
// U = W·(a⊙s) instead, delta_i = P_i·U_i − out_i·s_i. For η <= 1 the
// cap pass never runs: S_i <= Z_i and fl(η·count_i) <= count_i, so the
// rounded product cannot exceed count_i (the spectrum clamps S_i at 0,
// which keeps S_i <= Z_i). Each row lists its neighbours in a fixed
// (ascending) order and the row passes shard across fixed vertex ranges
// (see stepWorkers) with no shared writes; a spectrum graph's
// transforms split into blocks and column chunks whose butterflies do
// not depend on which shard runs them. So the result is independent of
// the shard count. It matches
// the edge-ordered scatter oracle to rounding (DESIGN.md §7 has both
// representations' bounds).
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
	g.firstPass(eta)
	s.capped = slices.Contains(s.over, true)
	if s.capped {
		g.runPass(passScale)
	}
	g.runPass(passDelta)
	// The apply pass also accumulates the Bhattacharyya overlap between
	// the pre- and post-step counts, yielding the per-iteration Hellinger
	// delta (the Options.ConvergeTol signal) without a second scan. It
	// only reads the counts, so the update itself stays bit-identical to
	// the fixed-schedule path.
	var st StepStats
	out, delta := s.out, s.delta
	prevTotal := g.total
	var bcSum float64
	g.total = 0
	for i := range g.nodes {
		st.FlowMoved += out[i]
		c := g.nodes[i].count + delta[i]
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

// firstPass runs Step's first pass at learning rate eta over the current
// counts: it fills P and leaves S = W·P in the scratch's sums, with the
// a_i and out-flows it derives from them.
//
//qbeep:allocfree
func (g *StateGraph) firstPass(eta float64) {
	s := &g.scratch
	if len(s.prob) != len(g.nodes) {
		g.initStep()
	}
	for i := range g.nodes {
		s.prob[i] = g.nodes[i].count / g.total
	}
	s.eta = eta
	g.runPass(passOut)
}

// NeighbourSums returns, for each observed outcome i in ascending order,
// the kernel-weighted probability of the other observed outcomes:
//
//	S_i = Σ_{j≠i} w.Weight(d(i,j))·P_j,   P = counts / total
//
// It is the neighbour sum S = W·P of Step's first pass under the raw
// kernel: no ε threshold and no C(n,d) normalisation apply, and the
// graph spans the distances up to the largest d <= n with Weight(d) > 0.
// The build and the pass are a mitigation's own, so the cost model picks
// CSR rows or the spectrum, the pass shards the same way, and the
// "core.graph.build" span and gauges record the build. The sums match a
// brute double loop to rounding (DESIGN.md §7 has the bounds).
func NeighbourSums(ctx context.Context, counts *bitstring.Dist, w EdgeWeighter) ([]float64, error) {
	return neighbourSums(ctx, counts, w, 0, scanAuto)
}

// neighbourSums is NeighbourSums with the build's worker count and
// strategy seam exposed.
func neighbourSums(ctx context.Context, counts *bitstring.Dist, w EdgeWeighter, workers int, strat scanStrategy) ([]float64, error) {
	if err := validateInputs(counts, w); err != nil {
		return nil, err
	}
	var tab weightTable
	for d := 1; d <= counts.Width(); d++ {
		if v := w.Weight(d); v > 0 {
			tab.perString[d] = v
		}
	}
	g, err := buildGraph(ctx, counts, w.Weight(0), tab, workers, strat)
	if err != nil {
		return nil, err
	}
	g.firstPass(0)
	return g.scratch.sum, nil
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
