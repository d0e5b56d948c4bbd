package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/testutil"
)

// This file holds the reference implementations the engine is tested
// against: the seed's serial O(V²) edge scan and the edge-ordered
// scatter form of the flow iteration, both over a COO edge list.

// edge is one undirected edge of the COO view: a < b, weight is the
// stored per-string weight. Lists are in canonical ascending (a, b)
// order.
type edge struct {
	a, b   int
	weight float64
}

// edgesOf returns the graph's COO view, built from its rows (scanned on
// demand for a spectrum graph): each edge once, from its lower
// endpoint's row, in canonical (a, b) order.
func edgesOf(g *StateGraph) []edge {
	if err := g.ensureRows(); err != nil {
		panic(err)
	}
	var out []edge
	for a := range g.nodes {
		for _, e := range g.adj[g.adjStart[a]:g.adjStart[a+1]] {
			if b := int(e >> 8); b > a {
				out = append(out, edge{a: a, b: b, weight: g.tab.perString[uint8(e)]})
			}
		}
	}
	return out
}

// bruteScanEdges is the seed's serial O(V²) pairwise scan, kept verbatim
// as the reference implementation. It deliberately re-derives every
// per-pair quantity through the EdgeWeighter the way the original code
// did, so it stays an independent oracle for the scan engine.
func bruteScanEdges(vals []bitstring.BitString, n, radius int, w EdgeWeighter, eps float64) ([]edge, int) {
	var edges []edge
	var pruned int
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			d := bitstring.Hamming(vals[i], vals[j])
			if d > radius {
				continue
			}
			wt := w.Weight(d)
			if wt < eps {
				pruned++
				continue
			}
			edges = append(edges, edge{a: i, b: j, weight: wt / float64(bitstring.SphereSize(n, d))})
		}
	}
	return edges, pruned
}

// buildStateGraphBrute builds a graph with the seed's serial scan — the
// oracle for the equivalence tests and the baseline for
// BenchmarkBuildStateGraphBrute.
func buildStateGraphBrute(counts *bitstring.Dist, w EdgeWeighter, eps float64) (*StateGraph, error) {
	if err := validateBuild(counts, w, eps); err != nil {
		return nil, err
	}
	g, vals := initStateGraph(counts, w.Weight(0))
	// Scan to the largest distance whose shell passes ε.
	for d := g.n; d >= 1 && g.radius == 0; d-- {
		if w.Weight(d) >= eps {
			g.radius = d
		}
	}
	var edges []edge
	edges, g.pruned = bruteScanEdges(vals, g.n, g.radius, w, eps)
	rowsFromEdges(g, edges)
	return g, nil
}

// rowsFromEdges lays a canonical COO edge list out as g's rows. The
// weight table is filled from the edges' own weights, so a brute graph
// keeps its independently computed weights; edges at one distance must
// agree on their weight.
func rowsFromEdges(g *StateGraph, edges []edge) {
	nV := len(g.nodes)
	g.tab = weightTable{}
	start := make([]int32, nV+1)
	for _, e := range edges {
		start[e.a+1]++
		start[e.b+1]++
	}
	for i := 0; i < nV; i++ {
		start[i+1] += start[i]
	}
	adj := make([]uint32, start[nV])
	next := append([]int32(nil), start[:nV]...)
	for _, e := range edges {
		d := bitstring.Hamming(g.nodes[e.a].value, g.nodes[e.b].value)
		if old := g.tab.perString[d]; old != 0 && old != e.weight {
			panic(fmt.Sprintf("edges at distance %d disagree on weight: %v vs %v", d, old, e.weight))
		}
		g.tab.perString[d] = e.weight
		adj[next[e.a]] = uint32(e.b)<<8 | uint32(d)
		next[e.a]++
		adj[next[e.b]] = uint32(e.a)<<8 | uint32(d)
		next[e.b]++
	}
	g.adjStart, g.adj = start, adj
}

// checkRows asserts the row invariants every graph must satisfy: rows
// strictly ascending without self-loops, the adjacency symmetric with
// equal distances both ways, degrees summing to 2E, every stored
// distance equal to the endpoints' Hamming distance and carrying a
// nonzero weight. A spectrum graph's rows are scanned on demand first.
func checkRows(t *testing.T, label string, g *StateGraph) {
	t.Helper()
	if err := g.ensureRows(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	nV := g.NumVertices()
	if len(g.adjStart) != nV+1 || g.adjStart[0] != 0 || int(g.adjStart[nV]) != len(g.adj) {
		t.Fatalf("%s: row arrays malformed: %d offsets ending at %d, %d entries",
			label, len(g.adjStart), g.adjStart[len(g.adjStart)-1], len(g.adj))
	}
	degSum := 0
	for i := 0; i < nV; i++ {
		row := g.adj[g.adjStart[i]:g.adjStart[i+1]]
		degSum += len(row)
		for k, e := range row {
			// The neighbour index is the entry's top 24 bits, so
			// ascending entries mean ascending neighbours.
			j, d := int(e>>8), uint8(e)
			if j == i || j >= nV || (k > 0 && row[k-1]>>8 >= e>>8) {
				t.Fatalf("%s: vertex %d: row not strictly ascending, out of range or self-looped: %v", label, i, row)
			}
			if want := bitstring.Hamming(g.nodes[i].value, g.nodes[j].value); int(d) != want {
				t.Fatalf("%s: entry (%d,%d) distance %d want %d", label, i, j, d, want)
			}
			if g.tab.perString[d] == 0 {
				t.Fatalf("%s: entry (%d,%d) at distance %d has no weight", label, i, j, d)
			}
			back := g.adj[g.adjStart[j]:g.adjStart[j+1]]
			q := sort.Search(len(back), func(x int) bool { return int(back[x]>>8) >= i })
			if q == len(back) || back[q] != uint32(i)<<8|uint32(d) {
				t.Fatalf("%s: entry (%d,%d) has no mirror (%d,%d)", label, i, j, j, i)
			}
		}
	}
	if degSum != 2*g.NumEdges() {
		t.Fatalf("%s: degree sum %d want %d", label, degSum, 2*g.NumEdges())
	}
}

// scatterStep is the edge-ordered scatter form of Step, kept as its
// reference: per-edge flows accumulated into per-vertex vectors in
// canonical edge order. It allocates freely and mutates g's counts.
func scatterStep(g *StateGraph, edges []edge, eta float64) StepStats {
	if g.total <= 0 {
		return StepStats{}
	}
	nV := len(g.nodes)
	prob := make([]float64, nV)
	for i := range g.nodes {
		prob[i] = g.nodes[i].count / g.total
	}
	z := make([]float64, nV)
	for i := range z {
		z[i] = g.selfWeight * prob[i]
	}
	for _, e := range edges {
		z[e.a] += e.weight * prob[e.b]
		z[e.b] += e.weight * prob[e.a]
	}
	outflow, inflow := make([]float64, nV), make([]float64, nV)
	flowAB, flowBA := make([]float64, len(edges)), make([]float64, len(edges))
	for ei, e := range edges {
		var fab, fba float64
		if z[e.a] > 0 {
			fab = eta * g.nodes[e.a].count * e.weight * prob[e.b] / z[e.a]
			outflow[e.a] += fab
			inflow[e.b] += fab
		}
		if z[e.b] > 0 {
			fba = eta * g.nodes[e.b].count * e.weight * prob[e.a] / z[e.b]
			outflow[e.b] += fba
			inflow[e.a] += fba
		}
		flowAB[ei] = fab
		flowBA[ei] = fba
	}
	scale := make([]float64, nV)
	for i := range scale {
		scale[i] = 1
		if limit := g.nodes[i].count + inflow[i]; outflow[i] > limit && outflow[i] > 0 {
			scale[i] = limit / outflow[i]
		}
	}
	delta := make([]float64, nV)
	var st StepStats
	for ei, e := range edges {
		fab := flowAB[ei] * scale[e.a]
		fba := flowBA[ei] * scale[e.b]
		delta[e.a] += fba - fab
		delta[e.b] += fab - fba
		st.FlowMoved += fab + fba
	}
	prevTotal := g.total
	var bcSum float64
	g.total = 0
	for i := range g.nodes {
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

// zeroSelfEdges is PoissonEdges without the "observation is genuine"
// hypothesis (w_0 = 0): an isolated vertex then has Z = 0, which is
// how a corpus reaches the kernels' z <= 0 branches.
type zeroSelfEdges struct{ PoissonEdges }

func (w zeroSelfEdges) Weight(d int) float64 {
	if d == 0 {
		return 0
	}
	return w.PoissonEdges.Weight(d)
}

// tinySelfEdges is PoissonEdges with w_0 = 1e-12: an isolated vertex
// then has a_i = η·M/w_0, a flow that goes nowhere.
type tinySelfEdges struct{ PoissonEdges }

func (w tinySelfEdges) Weight(d int) float64 {
	if d == 0 {
		return 1e-12
	}
	return w.PoissonEdges.Weight(d)
}

// stepCase is one oracle corpus: a graph recipe plus a learning-rate
// schedule.
type stepCase struct {
	name   string
	raw    *bitstring.Dist
	w      EdgeWeighter
	eta    func(i int) float64
	capped bool // some vertex must hit the overflow cap
	zeroZ  bool // some vertex must have Z <= 0
}

func stepCases() []stepCase {
	inv := func(i int) float64 { return 1 / float64(i) }
	hot := func(i int) float64 { return 2.5 / float64(i) }
	// Isolated outcomes far from the cluster around 0 give Z = 0 under
	// the zero-self weighter.
	isolated := poissonCounts(10, 0, 1.5, 1500, 65)
	isolated.Add(0b1111111111, 3)
	isolated.Add(0b1111100000, 2)
	return []stepCase{
		{name: "poisson1.5", raw: poissonCounts(10, 0b1011001110, 1.5, 4000, 61), w: PoissonEdges{Lambda: 1.5}, eta: inv},
		{name: "poisson3", raw: poissonCounts(9, 0b101100111, 3, 3000, 62), w: PoissonEdges{Lambda: 3}, eta: inv},
		{name: "inverse-distance", raw: uniformDist(8, 120, 63), w: InverseDistanceEdges{}, eta: inv},
		{name: "eta2.5", raw: poissonCounts(10, 0b1011001110, 1.5, 4000, 61), w: PoissonEdges{Lambda: 1.5}, eta: hot, capped: true},
		{name: "zero-z", raw: isolated, w: zeroSelfEdges{PoissonEdges{Lambda: 1.5}}, eta: inv, zeroZ: true},
		// Sparse: about 3 neighbours per vertex, so some are isolated.
		// With w_0 = 0 the spectrum must give them exactly S = 0, or a
		// rounding residue becomes an unbounded a_i; with a tiny w_0
		// their a_i = η·M/w_0 must stay out of the transform.
		{name: "zero-z-sparse", raw: uniformDist(12, 150, 66), w: zeroSelfEdges{PoissonEdges{Lambda: 0.5}}, eta: inv, zeroZ: true},
		{name: "tiny-w0-sparse", raw: uniformDist(12, 150, 66), w: tinySelfEdges{PoissonEdges{Lambda: 0.5}}, eta: inv},
		// Sixteen qubits: the spectrum's transform runs its low stages in
		// sixteen blocks and the rest in column chunks, on shards.
		{name: "n16-blocked", raw: poissonCounts(16, 0b1011001110100101, 1.5, 3000, 67), w: PoissonEdges{Lambda: 1.5}, eta: inv},
	}
}

// stepReps are the two representations the step oracle tests and the
// state-graph benchmarks force through the build's strategy seam: CSR
// rows and the spectrum. Every scan strategy lays out the same rows;
// the rows come from the ball walk, the scan auto mode runs on the
// benchmark corpora (the pair scan takes 2 s on the counts-large one).
var stepReps = []struct {
	name  string
	strat scanStrategy
}{
	{"rows", scanSphere},
	{"spectrum", scanSpectrum},
}

// Step re-associates the scatter's per-edge sums into neighbour sums
// (DESIGN.md §7), so it matches the oracle to rounding: on rows, every
// count and L1Delta within oracleMassTol of the total mass, FlowMoved
// within oracleFlowTol relative and Hellinger within oracleHellingerTol
// absolute (widened by hellingerTol where a step drains vertices). The
// spectrum's error is absolute, not per row, and its tolerance adds
// spectrumStepBound. An algebra error (a dropped w_0, a skipped cap)
// moves counts by orders of magnitude more.
const (
	oracleMassTol      = 1e-12
	oracleHellingerTol = 1e-10
	oracleFlowTol      = 1e-12
)

// spectrumStepBound returns the DESIGN.md §7 bound on Σ_v |Δcount_v|
// between a spectrum step and the exact step from equal counts, read off
// the step's own scratch vectors. Each transformed neighbour sum is off
// by at most κ·u·‖k‖₁·‖x‖₂ (κ = 3n+2, u = 2⁻⁵³, k the per-string kernel,
// x the scattered vector); carried through the epilogues that is
// κ·u·‖k‖₁·(‖a‖₂ + 2‖P‖₂·‖a‖₁) to first order, doubled here for the
// second-order terms and a cap pass's third product. Isolated vertices
// are not scattered and do not count.
func spectrumStepBound(g *StateGraph) float64 {
	const u = 0x1p-53
	var k1 float64
	for d := 1; d <= g.n; d++ {
		k1 += g.tab.perString[d] * float64(bitstring.SphereSize(g.n, d))
	}
	var a1, a2, p2 float64
	for i := range g.nodes {
		if g.spec.isolated[i] {
			continue
		}
		a, p := g.scratch.a[i], g.scratch.prob[i]
		a1, a2, p2 = a1+a, a2+a*a, p2+p*p
	}
	return 2 * float64(3*g.n+2) * u * k1 * (math.Sqrt(a2) + 2*math.Sqrt(p2)*a1)
}

// massDev returns Σ_v |count_v − oracle count_v| / oracle total.
func massDev(g, oracle *StateGraph) float64 {
	var d float64
	for v := range g.nodes {
		d += math.Abs(g.nodes[v].count - oracle.nodes[v].count)
	}
	return d / oracle.total
}

// hellingerTol bounds |ΔH| between two steps from equal counts whose
// results differ by the mass fraction dev. √ has unbounded slope at 0,
// so a vertex drained to a rounding residue (every capped vertex is)
// moves BC = Σ√(a·b)/√(A·B) by up to √(residue·a)/M: by Cauchy–Schwarz
// |ΔBC| <= √dev + dev, and H = √(1 − BC) moves by at most
// min(√|ΔBC|, |ΔBC|/H).
func hellingerTol(dev, h float64) float64 {
	dbc := math.Sqrt(dev) + dev
	tol := math.Sqrt(dbc)
	if h > 0 {
		tol = math.Min(tol, dbc/h)
	}
	return oracleHellingerTol + tol
}

// checkStepVsOracle compares one Step's stats and counts with the
// scatter oracle's after the same step: counts and L1Delta within
// oracleMassTol·M plus the absolute slack spec (0 on rows), FlowMoved
// within oracleFlowTol relative plus spec, Hellinger within htol.
func checkStepVsOracle(t *testing.T, label string, g, oracle *StateGraph, spec, htol float64, got, want StepStats) {
	t.Helper()
	tol := oracleMassTol*oracle.total + spec
	for v := range g.nodes {
		if d := math.Abs(g.nodes[v].count - oracle.nodes[v].count); d > tol {
			t.Fatalf("%s: count[%d] = %v, oracle %v (|Δ| %g > %g)", label, v, g.nodes[v].count, oracle.nodes[v].count, d, tol)
		}
	}
	if d := math.Abs(got.L1Delta - want.L1Delta); d > tol {
		t.Fatalf("%s: L1Delta %v, oracle %v", label, got.L1Delta, want.L1Delta)
	}
	if d := math.Abs(got.Hellinger - want.Hellinger); d > htol {
		t.Fatalf("%s: Hellinger %v, oracle %v (|Δ| %g > %g)", label, got.Hellinger, want.Hellinger, d, htol)
	}
	if d := math.Abs(got.FlowMoved - want.FlowMoved); d > oracleFlowTol*math.Abs(want.FlowMoved)+spec {
		t.Fatalf("%s: FlowMoved %v, oracle %v", label, got.FlowMoved, want.FlowMoved)
	}
}

// TestStepMatchesScatterOracle pins both representations' Step to the
// scatter reference within the DESIGN.md §7 bounds over 20 iterations
// at every worker count, and bit-for-bit across worker counts (row
// order and butterfly arithmetic are fixed, so the shard count cannot
// change any sum). On the spectrum the per-step bounds accumulate over
// the iterations. η <= 1 must never run the cap pass. Both transform
// kernels run it.
func TestStepMatchesScatterOracle(t *testing.T) {
	for _, k := range whtKernels {
		t.Run(k.name, func(t *testing.T) {
			useWHTKernel(t, k.avx2)
			testStepMatchesScatterOracle(t)
		})
	}
}

func testStepMatchesScatterOracle(t *testing.T) {
	for _, c := range stepCases() {
		for _, rep := range stepReps {
			const iters = 20
			// The first worker count's counts and stats after each iteration.
			var refCounts [][]float64
			var refStats []StepStats
			for _, w := range testutil.WorkerMatrix(t) {
				label := fmt.Sprintf("%s %s workers=%d", c.name, rep.name, w)
				oracle, err := buildStateGraphCtx(context.Background(), c.raw, c.w, 0.05, 1, scanPairs)
				if err != nil {
					t.Fatal(err)
				}
				if oracle.NumEdges() == 0 {
					t.Fatalf("%s: empty graph", c.name)
				}
				edges := edgesOf(oracle)
				g, err := buildStateGraphCtx(context.Background(), c.raw, c.w, 0.05, w, rep.strat)
				if err != nil {
					t.Fatal(err)
				}
				if (g.spec != nil) != (rep.strat == scanSpectrum) {
					t.Fatalf("%s: the seam did not force the representation", label)
				}
				first := refStats == nil
				var capped, zeroZ bool
				var spec float64
				prev := make([]float64, len(g.nodes))
				for i := 1; i <= iters; i++ {
					eta := c.eta(i)
					for v := range g.nodes {
						prev[v] = g.nodes[v].count
					}
					want := scatterStep(oracle, edges, eta)
					got := g.Step(eta)
					it := fmt.Sprintf("%s iter %d", label, i)
					if g.spec != nil {
						spec += spectrumStepBound(g)
					}
					checkStepVsOracle(t, it, g, oracle, spec, oracleHellingerTol, got, want)
					if eta <= 1 && g.scratch.capped {
						t.Fatalf("%s: η = %v ran the cap pass", it, eta)
					}
					for v := range g.nodes {
						capped = capped || (g.scratch.capped && g.scratch.as[v] < g.scratch.a[v])
						zeroZ = zeroZ || (prev[v] > 0 && g.scratch.a[v] == 0)
					}
					if first {
						counts := make([]float64, len(g.nodes))
						for v := range g.nodes {
							counts[v] = g.nodes[v].count
						}
						refCounts, refStats = append(refCounts, counts), append(refStats, got)
						continue
					}
					if got != refStats[i-1] {
						t.Fatalf("%s: stats %+v differ from the first worker count's %+v", it, got, refStats[i-1])
					}
					for v := range g.nodes {
						if g.nodes[v].count != refCounts[i-1][v] {
							t.Fatalf("%s: count[%d] = %v differs from the first worker count's %v", it, v, g.nodes[v].count, refCounts[i-1][v])
						}
					}
				}
				if c.capped && !capped {
					t.Fatalf("%s: no vertex hit the overflow cap", label)
				}
				if c.zeroZ && !zeroZ {
					t.Fatalf("%s: no vertex reached Z <= 0", label)
				}
			}
		}
	}
}

// FuzzStepOracle compares Step on both representations against the
// scatter reference within the DESIGN.md §7 bounds on random small
// corpora of 2–20 qubits, λ up to 20 (the top of the Eq. 2 range),
// learning rates and worker counts {1, 2, 3}, under both transform
// kernels; η <= 1 must never run the cap pass. Every step starts from
// the oracle's counts: on adversarial corpora the iteration itself
// amplifies a rounding residue left on a drained vertex (the sixth seed: complements are the only
// edges, w_3/w_0 = 34, so each step multiplies a residue by up to
// 1 + 34η), and the comparison is of one step's arithmetic, not of the
// iteration's conditioning.
func FuzzStepOracle(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(60), uint8(15), uint8(10), uint8(2))
	f.Add(uint64(2), uint8(6), uint8(30), uint8(30), uint8(25), uint8(3))
	f.Add(uint64(3), uint8(10), uint8(200), uint8(8), uint8(5), uint8(1))
	// η = 3.8 binds the cap; the second drains capped vertices to a
	// rounding residue, where Hellinger is ill-conditioned (see
	// hellingerTol).
	f.Add(uint64(30), uint8(6), uint8(181), uint8(6), uint8(37), uint8(1))
	f.Add(uint64(30), uint8(6), uint8(247), uint8(6), uint8(37), uint8(54))
	f.Add(uint64(108), uint8(85), uint8(251), uint8(58), uint8(18), uint8(6))
	// The far end of the Eq. 2 range on 10 qubits: λ = 13 (shells 9 and
	// 10 pass ε), 14.5 (complements only) and 20 (no edges).
	f.Add(uint64(7), uint8(8), uint8(150), uint8(129), uint8(5), uint8(1))
	f.Add(uint64(8), uint8(8), uint8(150), uint8(144), uint8(5), uint8(1))
	f.Add(uint64(9), uint8(8), uint8(150), uint8(199), uint8(5), uint8(1))
	// Sixteen qubits, two workers: the spectrum's blocked transform on
	// its shards.
	f.Add(uint64(10), uint8(131), uint8(190), uint8(15), uint8(10), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, support, lambda10, eta10, workers uint8) {
		width := int(n)%12 + 2
		if n >= 128 {
			width = int(n)%8 + 13 // the widths whose transform is blocked
		}
		sup := int(support)%200 + 1
		if sup > 1<<width {
			sup = 1 << width
		}
		lam := float64(lambda10%200+1) / 10
		eta := float64(eta10%40+1) / 10
		w := int(workers)%3 + 1
		raw := uniformDist(width, sup, seed)
		for _, k := range whtKernels {
			t.Run(k.name, func(t *testing.T) {
				useWHTKernel(t, k.avx2)
				oracle, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lam}, 0.05, 1, scanPairs)
				if err != nil {
					t.Fatal(err)
				}
				edges := edgesOf(oracle)
				for _, rep := range stepReps {
					g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lam}, 0.05, w, rep.strat)
					if err != nil {
						t.Fatal(err)
					}
					for i := 1; i <= 6; i++ {
						e := eta / float64(i)
						copy(g.nodes, oracle.nodes)
						g.total = oracle.total
						want := scatterStep(oracle, edges, e)
						got := g.Step(e)
						var spec float64
						if g.spec != nil {
							spec = spectrumStepBound(g)
						}
						label := fmt.Sprintf("%s iter %d workers=%d", rep.name, i, w)
						checkStepVsOracle(t, label, g, oracle, spec, hellingerTol(massDev(g, oracle), want.Hellinger), got, want)
						if e <= 1 && g.scratch.capped {
							t.Fatalf("%s: η = %v ran the cap pass", label, e)
						}
					}
					// Rewind the oracle for the next representation.
					oracle, err = buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lam}, 0.05, 1, scanPairs)
					if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	})
}
