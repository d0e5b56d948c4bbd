package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"qbeep/internal/bitstring"
	"qbeep/internal/mathx"
	"qbeep/internal/testutil"
)

// uniformDist draws `support` distinct outcomes uniformly over width n
// with random positive counts — the widest Hamming-weight spread.
func uniformDist(n, support int, seed uint64) *bitstring.Dist {
	rng := mathx.NewRNG(seed)
	counts := make(map[bitstring.BitString]float64, support)
	for len(counts) < support {
		v := bitstring.BitString(rng.Uint64() & (1<<uint(n) - 1))
		counts[v] += float64(rng.Intn(50) + 1)
	}
	return bitstring.FromCounts(n, counts)
}

// sameEdges asserts the parts that define a graph — vertex set,
// adjacency rows with their distances, every edge's weight — and its
// radius and pruned telemetry. This is the contract between engine
// variants (strategies × worker counts) and against the brute oracle,
// which scans the same radius: the largest shell that passes ε. got
// must also satisfy the row invariants (checkRows).
func sameEdges(t *testing.T, label string, want, got *StateGraph) {
	t.Helper()
	if got.Radius() != want.Radius() {
		t.Fatalf("%s: radius %d want %d", label, got.Radius(), want.Radius())
	}
	if got.pruned != want.pruned {
		t.Fatalf("%s: pruned %d want %d", label, got.pruned, want.pruned)
	}
	for _, g := range []*StateGraph{want, got} {
		if err := g.ensureRows(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
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
	for p, w := range want.adj {
		if g := got.adj[p]; g != w {
			t.Fatalf("%s: row entry %d = (%d, d=%d) want (%d, d=%d)",
				label, p, g>>8, uint8(g), w>>8, uint8(w))
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
// inputs across widths 4–20, asserting bit-for-bit identical edge sets,
// weights, pruned counts, and CSR layout. The n = 10 corpora at λ >= 13
// are the far end of the Eq. 2 range: only the outermost shells pass ε
// (at λ = 14 and 14.5 only d = n, so complements are the only edges),
// or none does and the radius is 0. The uniform corpus of 995 of the
// 1024 strings at λ = 14 is the rows graph the qaoa-fleet workload
// builds: about 480 complement edges, too few for the spectrum, found
// by a ball walk over the whole register on more than one shard.
func TestScanMatchesBruteOracle(t *testing.T) {
	cases := []struct {
		n       int
		support int
		lambda  float64
		seed    uint64
		shells  []int // the shells that pass ε, where the case pins them
	}{
		{4, 12, 1.0, 1, nil},
		{5, 30, 0.7, 2, nil},
		{6, 60, 1.5, 3, nil},
		{8, 150, 2.0, 4, nil},
		{10, 300, 1.2, 5, nil},
		{12, 400, 2.5, 6, nil},
		{14, 500, 0.5, 7, nil},
		{16, 600, 1.5, 8, nil},
		{10, 300, 13, 9, []int{9, 10}},
		{10, 300, 14, 10, []int{10}},
		{10, 300, 14.5, 11, []int{10}},
		{10, 995, 14, 13, []int{10}},
		{10, 300, 20, 12, []int{}},
	}
	workers := testutil.WorkerMatrix(t)
	for _, c := range cases {
		if c.shells != nil {
			tab := newWeightTable(PoissonEdges{Lambda: c.lambda}, 0.05, c.n)
			var got []int
			for d := 1; d <= c.n; d++ {
				if tab.perString[d] != 0 {
					got = append(got, d)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(c.shells) {
				t.Fatalf("n=%d λ=%g: shells %v pass ε, want %v", c.n, c.lambda, got, c.shells)
			}
		}
		// Mix a clustered and a uniform corpus: clustered data packs a
		// few Hamming weights, uniform data spreads them.
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
			for _, strat := range []scanStrategy{scanAuto, scanPairs, scanSphere} {
				for _, w := range workers {
					label := fmt.Sprintf("n=%d %s strat=%s workers=%d", c.n, kind, strat, w)
					g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: c.lambda}, 0.05, w, strat)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameEdges(t, label+" vs oracle", oracle, g)
					if ref == nil {
						ref = g
					} else {
						sameEdges(t, label+" vs ref", ref, g)
					}
					if strat != scanAuto && c.n <= spectrumMaxWidth {
						sameHistogram(t, label, raw, g, w)
					}
				}
			}
		}
	}
	// The histogram at the widths its transform shards, 13–20, up to
	// λ = 12, where the radius reaches n − 2 to n: the pair scan must
	// match the brute oracle, and the histogram at every worker count
	// its tallies. The ball walk would probe most of the register per
	// vertex here.
	for _, c := range []struct {
		n, support int
		lambda     float64
		seed       uint64
	}{
		{13, 300, 6, 21}, {14, 300, 12, 22}, {15, 400, 1.5, 23}, {16, 300, 12, 24},
		{17, 400, 4, 25}, {18, 300, 12, 26}, {19, 400, 8, 27}, {20, 300, 12, 28},
	} {
		dists := map[string]*bitstring.Dist{
			"clustered": poissonCounts(c.n, bitstring.BitString(0x5a5a5)&(1<<uint(c.n)-1), c.lambda, c.support*3, c.seed),
			"uniform":   uniformDist(c.n, c.support, c.seed+100),
		}
		for kind, raw := range dists {
			oracle, err := buildStateGraphBrute(raw, PoissonEdges{Lambda: c.lambda}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workers {
				label := fmt.Sprintf("n=%d λ=%g %s pairs workers=%d", c.n, c.lambda, kind, w)
				g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: c.lambda}, 0.05, w, scanPairs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if w == workers[0] {
					sameEdges(t, label+" vs oracle", oracle, g)
				}
				sameHistogram(t, label, raw, g, w)
			}
		}
	}
}

// sameHistogram checks the pair-distance histogram, computed on a
// spectrum with workers shards, an independent oracle for the scan's
// tallies on the widths the spectrum serves: its edge and pruned counts
// must equal those of the rows g's scan laid out.
func sameHistogram(t *testing.T, label string, raw *bitstring.Dist, g *StateGraph, workers int) {
	t.Helper()
	vals := raw.Outcomes()
	pairs := newSpectrum(g.n, workers).pairHistogram(context.Background(), vals, krawtchouk(g.n))
	edges, pruned := g.tab.tallyPairs(pairs[:], g.radius)
	if edges != g.NumEdges() || pruned != g.pruned {
		t.Fatalf("%s: histogram gives %d edges, %d pruned; the scan %d, %d", label, edges, pruned, g.NumEdges(), g.pruned)
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
	for _, strat := range []scanStrategy{scanPairs, scanSphere} {
		g, err := buildStateGraphCtx(context.Background(), raw, InverseDistanceEdges{}, 0.05, 4, strat)
		if err != nil {
			t.Fatal(err)
		}
		sameEdges(t, fmt.Sprintf("hammer strat=%s vs oracle", strat), oracle, g)
		if ref == nil {
			ref = g
		} else {
			sameEdges(t, fmt.Sprintf("hammer strat=%s vs ref", strat), ref, g)
		}
	}
}

// TestMitigateIdenticalAcrossWorkers pins the determinism guarantee end
// to end: Mitigate output is bit-for-bit identical for every worker
// count and equals the brute-force oracle run through the same schedule.
// Each corpus runs twice through the build's strategy seam: forced onto
// rows, which must match the oracle bit for bit, and in auto mode, which
// puts the n=4 corpus on the spectrum; a spectrum run must match the
// oracle within the accumulated DESIGN.md §7 spectrum bound.
func TestMitigateIdenticalAcrossWorkers(t *testing.T) {
	spectrumRuns := 0
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
		// The auto build's representation, run through the schedule in
		// step with the oracle to accumulate the spectrum bound.
		g, err := BuildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: c.lambda}, opts.Epsilon, 1)
		if err != nil {
			t.Fatal(err)
		}
		var tol float64
		for i := 1; i <= opts.Iterations; i++ {
			og.Step(1 / float64(i))
			g.Step(1 / float64(i))
			if g.spec != nil {
				tol += spectrumStepBound(g)
			}
		}
		oracle := og.Dist().Normalized(raw.Total())

		for _, rep := range []struct {
			name     string
			strat    scanStrategy
			spectrum bool
		}{
			{"rows", scanPairs, false},
			{"auto", scanAuto, g.spec != nil},
		} {
			var ref *bitstring.Dist
			for _, w := range testutil.WorkerMatrix(t) {
				out, _, err := mitigateCtx(context.Background(), raw, c.lambda, opts, nil, w, rep.strat)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("n=%d %s workers=%d", c.n, rep.name, w)
				if ref == nil {
					ref = out
				}
				sameDist(t, label+" vs first worker count", ref, out)
				if !rep.spectrum {
					sameDist(t, label, oracle, out)
					continue
				}
				spectrumRuns++
				for _, v := range append(oracle.Outcomes(), out.Outcomes()...) {
					if d := math.Abs(out.Count(v) - oracle.Count(v)); d > oracleMassTol*raw.Total()+tol {
						t.Fatalf("%s: count[%s] = %v, oracle %v (|Δ| %g)", label, bitstring.Format(v, c.n), out.Count(v), oracle.Count(v), d)
					}
				}
			}
		}
	}
	if spectrumRuns == 0 {
		t.Fatal("no auto build took the spectrum")
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
// first call, the 20-iteration mitigation loop allocates nothing, on
// rows (inline and sharded) and on the spectrum under either transform
// kernel.
func TestStepAllocationFree(t *testing.T) {
	raw := uniformDist(10, 300, 41)
	g, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1.5}, 0.05, 0, scanPairs)
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
	gs, err := buildStateGraphCtx(context.Background(), big, PoissonEdges{Lambda: 2}, 0.05, 2, scanPairs)
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

	// The spectrum, under both transform kernels: at n <= 12 its
	// transforms run inline at any worker count, at n = 16 on the
	// spectrum's own two shards; the row passes bind none either way.
	for _, k := range whtKernels {
		t.Run(k.name, func(t *testing.T) {
			useWHTKernel(t, k.avx2)
			for _, c := range []struct {
				raw             *bitstring.Dist
				workers, shards int
			}{{raw, 1, 0}, {big, 2, 0}, {poissonCounts(16, 0b1011001110100101, 1.5, 3000, 67), 2, 2}} {
				g, err := buildStateGraphCtx(context.Background(), c.raw, PoissonEdges{Lambda: 1.5}, 0.05, c.workers, scanSpectrum)
				if err != nil {
					t.Fatal(err)
				}
				if g.spec == nil {
					t.Fatal("the seam did not force the spectrum")
				}
				g.Step(1)
				if g.scratch.shards != nil {
					t.Fatalf("workers=%d spectrum graph bound row shards", c.workers)
				}
				if shards := g.spec.shards; (shards == nil && c.shards != 0) || (shards != nil && shards.Len() != c.shards) {
					t.Fatalf("workers=%d n=%d: spectrum shards %v, want %d", c.workers, g.n, shards, c.shards)
				}
				if n := testing.AllocsPerRun(20, func() {
					g.Step(0.5)
				}); n != 0 {
					t.Fatalf("workers=%d spectrum Step allocates %v per op after warm-up", c.workers, n)
				}
			}
		})
	}
}

// TestBuildAllocationsFlatInWorkers pins the scan's buffers: each shard
// keeps one chunked pair buffer and each task records pieces of it, with
// no scratch pool and no per-task copy, so the build's allocations grow
// by the shard's own few — its bound goroutine closure and its first
// pair chunk — and not by the task count (min(8·workers, 64)). On the
// V4096 λ = 1 corpus a build allocates 39 times at one worker and 62 at
// eight; a per-task copy alone would add 64 at eight. The slack of 4
// absorbs the count's run-to-run spread.
func TestBuildAllocationsFlatInWorkers(t *testing.T) {
	raw := benchGraphDist(4096)
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := buildStateGraphCtx(context.Background(), raw, PoissonEdges{Lambda: 1}, 0.05, workers, scanAuto); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(1)
	for _, workers := range []int{2, 4, 8} {
		if n, limit := allocs(workers), base+3*float64(workers-1)+4; n > limit {
			t.Errorf("workers=%d: %v allocations per build, want <= %v (%v at one worker, plus 3 per extra shard, plus 4)", workers, n, limit, base)
		}
	}
}

// TestVertexCountLimit: a row entry keeps its neighbour index in 24
// bits, so a build of 2²⁴ or more vertices fails instead of wrapping the
// index. The check runs on the count alone, before any vertex is
// allocated, so it is tested on the count.
func TestVertexCountLimit(t *testing.T) {
	if err := checkVertexCount(maxVertices - 1); err != nil {
		t.Fatalf("%d vertices: %v", maxVertices-1, err)
	}
	for _, nV := range []int{maxVertices, maxVertices + 1, 1 << 30} {
		if err := checkVertexCount(nV); err == nil {
			t.Fatalf("%d vertices: want an error", nV)
		}
	}
	// The largest index packs and unpacks intact.
	j := uint32(maxVertices - 1)
	if e := j<<8 | 255; e>>8 != j || uint8(e) != 255 {
		t.Fatalf("entry %#x does not round-trip index %d", e, j)
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
