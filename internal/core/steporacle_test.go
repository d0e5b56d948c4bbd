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

// edgesOf returns the graph's COO view, built from its rows: each edge
// once, from its lower endpoint's row, in canonical (a, b) order.
func edgesOf(g *StateGraph) []edge {
	var out []edge
	for a := range g.nodes {
		for p := g.adjStart[a]; p < g.adjStart[a+1]; p++ {
			if b := int(g.adjNbr[p]); b > a {
				out = append(out, edge{a: a, b: b, weight: g.tab.perString[g.adjDist[p]]})
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
	g, vals := initStateGraph(counts, w, eps)
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
	nbr := make([]int32, start[nV])
	dist := make([]uint8, start[nV])
	next := append([]int32(nil), start[:nV]...)
	for _, e := range edges {
		d := bitstring.Hamming(g.nodes[e.a].value, g.nodes[e.b].value)
		if old := g.tab.perString[d]; old != 0 && old != e.weight {
			panic(fmt.Sprintf("edges at distance %d disagree on weight: %v vs %v", d, old, e.weight))
		}
		g.tab.perString[d] = e.weight
		nbr[next[e.a]], dist[next[e.a]] = int32(e.b), uint8(d)
		next[e.a]++
		nbr[next[e.b]], dist[next[e.b]] = int32(e.a), uint8(d)
		next[e.b]++
	}
	g.adjStart, g.adjNbr, g.adjDist = start, nbr, dist
}

// checkRows asserts the row invariants every graph must satisfy: rows
// strictly ascending without self-loops, the adjacency symmetric with
// equal distances both ways, degrees summing to 2E, every stored
// distance equal to the endpoints' Hamming distance and carrying a
// nonzero weight.
func checkRows(t *testing.T, label string, g *StateGraph) {
	t.Helper()
	nV := g.NumVertices()
	if len(g.adjStart) != nV+1 || g.adjStart[0] != 0 || len(g.adjDist) != len(g.adjNbr) {
		t.Fatalf("%s: row arrays malformed: %d offsets, %d neighbours, %d distances",
			label, len(g.adjStart), len(g.adjNbr), len(g.adjDist))
	}
	degSum := 0
	for i := 0; i < nV; i++ {
		row := g.adjNbr[g.adjStart[i]:g.adjStart[i+1]]
		if len(row) != g.Degree(i) {
			t.Fatalf("%s: vertex %d: row length %d != Degree %d", label, i, len(row), g.Degree(i))
		}
		degSum += len(row)
		for k, j := range row {
			if int(j) == i || (k > 0 && row[k-1] >= j) {
				t.Fatalf("%s: vertex %d: row not strictly ascending or self-looped: %v", label, i, row)
			}
			d := g.adjDist[int(g.adjStart[i])+k]
			if want := bitstring.Hamming(g.nodes[i].value, g.nodes[j].value); int(d) != want {
				t.Fatalf("%s: entry (%d,%d) distance %d want %d", label, i, j, d, want)
			}
			if g.tab.perString[d] == 0 {
				t.Fatalf("%s: entry (%d,%d) at distance %d has no weight", label, i, j, d)
			}
			back := g.adjNbr[g.adjStart[j]:g.adjStart[j+1]]
			q := sort.Search(len(back), func(x int) bool { return back[x] >= int32(i) })
			if q == len(back) || back[q] != int32(i) || g.adjDist[int(g.adjStart[j])+q] != d {
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

// stepCase is one oracle corpus: a graph recipe plus a learning-rate
// schedule.
type stepCase struct {
	name   string
	raw    *bitstring.Dist
	w      EdgeWeighter
	topK   int
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
		{name: "topk4", raw: poissonCounts(10, 0b0110011010, 2, 4000, 64), w: PoissonEdges{Lambda: 2}, topK: 4, eta: inv},
		{name: "eta2.5", raw: poissonCounts(10, 0b1011001110, 1.5, 4000, 61), w: PoissonEdges{Lambda: 1.5}, eta: hot, capped: true},
		{name: "zero-z", raw: isolated, w: zeroSelfEdges{PoissonEdges{Lambda: 1.5}}, eta: inv, zeroZ: true},
	}
}

// TestStepMatchesScatterOracle pins the pull kernel to the scatter
// reference: counts, L1Delta and Hellinger bit-for-bit at every worker
// count, FlowMoved (a per-vertex sum in vertex order) identical across
// worker counts and within 1e-12 relative of the edge-ordered sum.
func TestStepMatchesScatterOracle(t *testing.T) {
	for _, c := range stepCases() {
		oracle, err := buildStateGraphCtx(context.Background(), c.raw, c.w, 0.05, 1, scanAuto, c.topK)
		if err != nil {
			t.Fatal(err)
		}
		if oracle.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", c.name)
		}
		edges := edgesOf(oracle)
		const iters = 20
		want := make([]StepStats, iters+1)
		counts := make([][]float64, iters+1)
		for i := 1; i <= iters; i++ {
			want[i] = scatterStep(oracle, edges, c.eta(i))
			counts[i] = make([]float64, len(oracle.nodes))
			for v := range oracle.nodes {
				counts[i][v] = oracle.nodes[v].count
			}
		}
		var flowRef []float64
		for _, w := range testutil.WorkerMatrix(t) {
			label := fmt.Sprintf("%s workers=%d", c.name, w)
			g, err := buildStateGraphCtx(context.Background(), c.raw, c.w, 0.05, w, scanAuto, c.topK)
			if err != nil {
				t.Fatal(err)
			}
			var capped, zeroZ bool
			flows := make([]float64, iters+1)
			for i := 1; i <= iters; i++ {
				got := g.Step(c.eta(i))
				for v := range g.nodes {
					if g.nodes[v].count != counts[i][v] {
						t.Fatalf("%s iter %d: count[%d] = %v want %v", label, i, v, g.nodes[v].count, counts[i][v])
					}
					capped = capped || g.scratch.v[v].scale < 1
					zeroZ = zeroZ || g.scratch.v[v].z <= 0
				}
				if got.L1Delta != want[i].L1Delta || got.Hellinger != want[i].Hellinger {
					t.Fatalf("%s iter %d: stats %+v want %+v", label, i, got, want[i])
				}
				if d := math.Abs(got.FlowMoved - want[i].FlowMoved); d > 1e-12*math.Abs(want[i].FlowMoved) {
					t.Fatalf("%s iter %d: FlowMoved %v vs oracle %v", label, i, got.FlowMoved, want[i].FlowMoved)
				}
				flows[i] = got.FlowMoved
			}
			if flowRef == nil {
				flowRef = flows
			}
			for i := range flows {
				if flows[i] != flowRef[i] {
					t.Fatalf("%s iter %d: FlowMoved %v differs from the first worker count's %v", label, i, flows[i], flowRef[i])
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

// FuzzStepOracle compares Step against the scatter reference bitwise on
// random small corpora, learning rates and worker counts {1, 2, 3}.
func FuzzStepOracle(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(60), uint8(15), uint8(10), uint8(2))
	f.Add(uint64(2), uint8(6), uint8(30), uint8(30), uint8(25), uint8(3))
	f.Add(uint64(3), uint8(10), uint8(200), uint8(8), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n, support, lambda10, eta10, workers uint8) {
		width := int(n)%12 + 2
		sup := int(support)%200 + 1
		if sup > 1<<width {
			sup = 1 << width
		}
		lam := float64(lambda10%60+1) / 10
		eta := float64(eta10%40+1) / 10
		w := int(workers)%3 + 1
		raw := uniformDist(width, sup, seed)
		oracle, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lam}, 0.05, 1, scanAuto, 0)
		if err != nil {
			t.Fatal(err)
		}
		g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: lam}, 0.05, w, scanAuto, 0)
		if err != nil {
			t.Fatal(err)
		}
		edges := edgesOf(oracle)
		for i := 1; i <= 6; i++ {
			want := scatterStep(oracle, edges, eta/float64(i))
			got := g.Step(eta / float64(i))
			if got.L1Delta != want.L1Delta || got.Hellinger != want.Hellinger {
				t.Fatalf("iter %d workers=%d: stats %+v want %+v", i, w, got, want)
			}
			for v := range g.nodes {
				if g.nodes[v].count != oracle.nodes[v].count {
					t.Fatalf("iter %d workers=%d: count[%d] = %v want %v", i, w, v, g.nodes[v].count, oracle.nodes[v].count)
				}
			}
		}
	})
}
