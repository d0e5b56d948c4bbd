package core

import (
	"context"
	"fmt"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/testutil"
)

// uniformDist draws `support` distinct outcomes uniformly over width n
// with random positive counts — the widest Hamming-weight spread, which
// exercises the bucket windowing hardest.
func uniformDist(n, support int, seed uint64) *bitstring.Dist {
	rng := mathx.NewRNG(seed)
	d := bitstring.NewDist(n)
	for d.Support() < support {
		v := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
		d.Add(v, float64(rng.Intn(50)+1))
	}
	return d
}

// sameGraph asserts full equality including radius and pruned telemetry —
// the contract between engine variants (strategies × worker counts).
func sameGraph(t *testing.T, label string, want, got *StateGraph) {
	t.Helper()
	if got.Radius() != want.Radius() {
		t.Fatalf("%s: radius %d want %d", label, got.Radius(), want.Radius())
	}
	if got.pruned != want.pruned {
		t.Fatalf("%s: pruned %d want %d", label, got.pruned, want.pruned)
	}
	sameEdges(t, label, want, got)
}

// sameEdges asserts the parts that define mitigation output — vertex set,
// exact edge list with weights, CSR layout. This is the contract against
// the brute oracle: the engine scans only the effective radius, so its
// radius/pruned telemetry is narrower than the seed scan's, but the edge
// set and every weight must be bit-for-bit identical.
func sameEdges(t *testing.T, label string, want, got *StateGraph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: vertices %d want %d", label, got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: edges %d want %d", label, got.NumEdges(), want.NumEdges())
	}
	for ei := range want.edges {
		w, g := want.edges[ei], got.edges[ei]
		if w.a != g.a || w.b != g.b || w.weight != g.weight {
			t.Fatalf("%s: edge %d = (%d,%d,%v) want (%d,%d,%v)",
				label, ei, g.a, g.b, g.weight, w.a, w.b, w.weight)
		}
	}
	for i := 0; i <= want.NumVertices(); i++ {
		if got.adjStart[i] != want.adjStart[i] {
			t.Fatalf("%s: adjStart[%d] = %d want %d", label, i, got.adjStart[i], want.adjStart[i])
		}
	}
	for i := range want.adjEdges {
		if got.adjEdges[i] != want.adjEdges[i] {
			t.Fatalf("%s: adjEdges[%d] = %d want %d", label, i, got.adjEdges[i], want.adjEdges[i])
		}
	}
}

func sameDist(t *testing.T, label string, want, got *bitstring.Dist) {
	t.Helper()
	if got.Support() != want.Support() {
		t.Fatalf("%s: support %d want %d", label, got.Support(), want.Support())
	}
	for _, v := range want.Outcomes() {
		if got.Count(v) != want.Count(v) {
			t.Fatalf("%s: count[%s] = %v want %v",
				label, bitstring.Format(v, want.Width()), got.Count(v), want.Count(v))
		}
	}
}

// TestScanMatchesBruteOracle drives both discovery strategies and the
// full worker matrix against the seed's serial O(V²) scan on randomized
// inputs across widths 4–16, asserting bit-for-bit identical edge sets,
// weights, pruned counts, and CSR layout.
func TestScanMatchesBruteOracle(t *testing.T) {
	cases := []struct {
		n       int
		support int
		lambda  float64
		seed    uint64
	}{
		{4, 12, 1.0, 1},
		{5, 30, 0.7, 2},
		{6, 60, 1.5, 3},
		{8, 150, 2.0, 4},
		{10, 300, 1.2, 5},
		{12, 400, 2.5, 6},
		{14, 500, 0.5, 7},
		{16, 600, 1.5, 8},
	}
	workers := testutil.WorkerMatrix(t)
	for _, c := range cases {
		// Mix a clustered and a uniform corpus: clustered data packs the
		// weight buckets, uniform data spreads them.
		dists := map[string]*bitstring.Dist{
			"clustered": poissonCounts(c.n, bitstring.BitString(0x5a5a)&(1<<uint(c.n)-1), c.lambda, c.support*3, c.seed),
			"uniform":   uniformDist(c.n, c.support, c.seed+100),
		}
		for kind, raw := range dists {
			oracle, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: c.lambda}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			var ref *StateGraph // first engine variant; the rest must match it fully
			for _, strat := range []scanStrategy{scanAuto, scanBucket, scanSphere} {
				for _, w := range workers {
					label := fmt.Sprintf("n=%d %s strat=%s workers=%d", c.n, kind, strat, w)
					g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: c.lambda}, 0.05, w, strat, 0)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameEdges(t, label+" vs oracle", oracle, g)
					if ref == nil {
						ref = g
					} else {
						sameGraph(t, label+" vs ref", ref, g)
					}
				}
			}
		}
	}
}

// TestScanMatchesOracleHAMMERWeighter repeats the oracle check under the
// ablation edge model, whose radius/threshold interplay differs from the
// Poisson tail.
func TestScanMatchesOracleHAMMERWeighter(t *testing.T) {
	raw := uniformDist(10, 200, 11)
	oracle, err := buildStateGraphBrute(raw, InverseDistanceEdges{}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var ref *StateGraph
	for _, strat := range []scanStrategy{scanBucket, scanSphere} {
		g, err := buildStateGraphCtx(context.Background(), raw, InverseDistanceEdges{}, 0.05, 4, strat, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameEdges(t, fmt.Sprintf("hammer strat=%s vs oracle", strat), oracle, g)
		if ref == nil {
			ref = g
		} else {
			sameGraph(t, fmt.Sprintf("hammer strat=%s vs ref", strat), ref, g)
		}
	}
}

// TestMitigateIdenticalAcrossWorkers pins the determinism guarantee end
// to end: Mitigate output is bit-for-bit identical for every worker
// count and equals the brute-force oracle run through the same schedule.
func TestMitigateIdenticalAcrossWorkers(t *testing.T) {
	for _, c := range []struct {
		n      int
		lambda float64
		seed   uint64
	}{
		{4, 1.0, 21},
		{9, 1.5, 22},
		{16, 2.0, 23},
	} {
		raw := poissonCounts(c.n, bitstring.BitString(0x2cd3)&(1<<uint(c.n)-1), c.lambda, 2000, c.seed)
		opts := NewOptions()

		// Brute oracle: same schedule on the reference-scanned graph.
		og, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: c.lambda}, opts.Epsilon)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= opts.Iterations; i++ {
			og.Step(1 / float64(i))
		}
		oracle := og.Dist().Normalized(raw.Total())

		for _, w := range testutil.WorkerMatrix(t) {
			opts.BuildWorkers = w
			out, err := MitigateCtx(context.Background(), raw, c.lambda, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameDist(t, fmt.Sprintf("n=%d workers=%d", c.n, w), oracle, out)
		}
	}
}

// TestCSRAdjacencyConsistent checks the CSR layout against the edge
// list: every edge appears exactly once in each endpoint's row, rows are
// ascending, and degrees sum to 2E.
func TestCSRAdjacencyConsistent(t *testing.T) {
	raw := uniformDist(10, 250, 31)
	g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1.5}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	var degSum int
	for i := 0; i < g.NumVertices(); i++ {
		inc := g.IncidentEdges(i)
		if len(inc) != g.Degree(i) {
			t.Fatalf("vertex %d: len(IncidentEdges) %d != Degree %d", i, len(inc), g.Degree(i))
		}
		degSum += len(inc)
		for k, ei := range inc {
			e := g.edges[ei]
			if e.a != i && e.b != i {
				t.Fatalf("vertex %d: edge %d does not touch it", i, ei)
			}
			if k > 0 && inc[k-1] >= ei {
				t.Fatalf("vertex %d: incident edges not ascending: %v", i, inc)
			}
		}
	}
	if degSum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d want %d", degSum, 2*g.NumEdges())
	}
}

// TestStepAllocationFree pins the scratch-reuse contract: after the
// first call, the 20-iteration mitigation loop allocates nothing.
func TestStepAllocationFree(t *testing.T) {
	raw := uniformDist(10, 300, 41)
	g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1.5}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("want a non-trivial graph")
	}
	g.Step(1) // warm the scratch
	if n := testing.AllocsPerRun(100, func() {
		g.Step(0.5)
	}); n != 0 {
		t.Fatalf("Step allocates %v per op after warm-up", n)
	}
}

// TestGraphFidelityMatchesDistSnapshot checks the tracked-mitigation
// fast path against the definitionally-correct snapshot form.
func TestGraphFidelityMatchesDistSnapshot(t *testing.T) {
	raw := poissonCounts(8, 0b10110100, 1.5, 3000, 51)
	ideal := bitstring.NewDist(8)
	ideal.Add(0b10110100, 1)
	g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1.5}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		g.Step(1 / float64(i))
		fast := g.Fidelity(ideal)
		slow := bitstring.Fidelity(ideal, g.Dist())
		if !approx(fast, slow, 1e-12) {
			t.Fatalf("iteration %d: Fidelity %v vs snapshot %v", i, fast, slow)
		}
	}
	if g.Fidelity(nil) != 0 {
		t.Error("nil ideal should yield 0")
	}
	if g.Fidelity(bitstring.NewDist(8)) != 0 {
		t.Error("empty ideal should yield 0")
	}
}
