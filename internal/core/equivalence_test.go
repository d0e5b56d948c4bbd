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
// adjacency rows with their distances, and every edge's weight. This is
// the contract against the brute oracle: the engine scans only the
// effective radius, so its radius/pruned telemetry is narrower than the
// seed scan's, but the rows and every weight must be bit-for-bit
// identical. got must also satisfy the row invariants (checkRows).
func sameEdges(t *testing.T, label string, want, got *StateGraph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: vertices %d want %d", label, got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: edges %d want %d", label, got.NumEdges(), want.NumEdges())
	}
	checkRows(t, label, got)
	for i := 0; i <= want.NumVertices(); i++ {
		if got.adjStart[i] != want.adjStart[i] {
			t.Fatalf("%s: adjStart[%d] = %d want %d", label, i, got.adjStart[i], want.adjStart[i])
		}
	}
	for p := range want.adjNbr {
		if got.adjNbr[p] != want.adjNbr[p] || got.adjDist[p] != want.adjDist[p] {
			t.Fatalf("%s: row entry %d = (%d, d=%d) want (%d, d=%d)",
				label, p, got.adjNbr[p], got.adjDist[p], want.adjNbr[p], want.adjDist[p])
		}
	}
	we, ge := edgesOf(want), edgesOf(got)
	for ei := range we {
		if w, g := we[ei], ge[ei]; w != g {
			t.Fatalf("%s: edge %d = (%d,%d,%v) want (%d,%d,%v)",
				label, ei, g.a, g.b, g.weight, w.a, w.b, w.weight)
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

// TestCSRAdjacencyConsistent checks the adjacency rows against the
// edge model: rows ascending, adjacency symmetric, degrees summing to
// 2E, every stored distance equal to the Hamming distance — and every
// edge of the brute oracle present at its weight.
func TestCSRAdjacencyConsistent(t *testing.T) {
	raw := uniformDist(10, 250, 31)
	g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1.5}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("want a non-trivial graph")
	}
	checkRows(t, "auto", g)
	oracle, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: 1.5}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "vs brute", oracle, g)
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

	// Sharded: an explicit worker count on a graph above the auto-mode
	// grain, so the phases fan out through the bound shards every call.
	big := uniformDist(12, 600, 43)
	gs, err := BuildStateGraphCtx(context.Background(), big, PoissonEdges{Lambda: 2}, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if 2*gs.NumEdges() < stepParMinHalfEdges {
		t.Fatalf("sharded case has %d half-edges, want >= %d", 2*gs.NumEdges(), stepParMinHalfEdges)
	}
	gs.Step(1)
	if gs.scratch.shards == nil || gs.scratch.shards.Len() != 2 {
		t.Fatal("workers=2 graph did not bind two shards")
	}
	if n := testing.AllocsPerRun(20, func() {
		gs.Step(0.5)
	}); n != 0 {
		t.Fatalf("sharded Step allocates %v per op after warm-up", n)
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
