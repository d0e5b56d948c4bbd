package core

// Edge discovery for the state graph. BuildStateGraphCtx's pair scan is the
// innermost loop of the whole pipeline — it runs once per mitigation,
// thousands of times per figure corpus — so it gets an engine of its own:
//
//   - a per-distance weight table, so the scan performs two array loads
//     per candidate pair instead of an interface call into the model
//     (a Poisson PMF) plus a binomial coefficient;
//   - a Hamming-ball walk for small radii: enumerate the C(n, 1..r)
//     strings around each vertex with incremental XOR and probe a
//     presence bitmap, making discovery O(V·C(n,≤r)) — near-linear in V
//     for the radii ε = 0.05 induces. Narrow registers resolve confirmed
//     hits through a direct value→vertex table; wide ones (up to
//     sphereMaxWidth) binary-search the sorted value slice instead, so
//     million-vertex corpora at n = 26 stay on the near-linear path;
//   - a plain pair scan for everything else: registers wider than
//     sphereMaxWidth, and vertex sets too small for the ball to pay;
//   - one cut of the vertex range into contiguous ranges of equal
//     estimated work, drained by internal/par workers with per-worker
//     packed-pair scratch. Each range appends its forward pairs (a, b),
//     b > a, in the order it finds them; two counting transposes over the
//     ranges in ascending order lay out the graph's adjacency rows, each
//     ascending by construction — bit-for-bit identical to the serial
//     O(V²) scan for either strategy and any worker count.
//
// The seed's serial scan survives in the tests as bruteScanEdges: the
// randomized equivalence tests use it as the oracle, and
// BenchmarkBuildStateGraphBrute measures the engine against it.

import (
	"context"
	"math"
	"runtime"

	"qbeep/internal/bitstring"
	"qbeep/internal/par"
)

// scanStrategy selects the edge-discovery algorithm. scanAuto picks by
// estimated probe counts (and may skip the scan for the spectrum, see
// trySpectrum); the equivalence tests force each path.
type scanStrategy int

const (
	scanAuto scanStrategy = iota
	// scanPairs compares every vertex with every vertex above it.
	scanPairs
	// scanSphere walks the Hamming ball around each vertex and probes a
	// presence bitmap. Requires n <= sphereMaxWidth.
	scanSphere
	// scanNone is reported when the graph cannot have edges (radius 0 or
	// fewer than two vertices).
	scanNone
	// scanSpectrum is the build without a scan: Step runs on the
	// Walsh–Hadamard spectrum (spectrum.go). Forcing it needs
	// n <= spectrumMaxWidth and a shell that passes ε; otherwise the
	// build falls back to scanAuto's rows.
	scanSpectrum
)

func (s scanStrategy) String() string {
	switch s {
	case scanPairs:
		return "pairs"
	case scanSphere:
		return "sphere"
	case scanNone:
		return "none"
	case scanSpectrum:
		return "spectrum"
	default:
		return "auto"
	}
}

// sphereLUTMaxWidth caps the direct-indexed value→vertex table of the
// ball-walk strategy at 2^20 entries (4 MiB).
const sphereLUTMaxWidth = 20

// sphereMaxWidth caps the ball-walk strategy itself. Past the LUT width
// the presence bitmap (2^n bits — 32 MiB at n = 28) still answers the
// overwhelmingly-common miss in one load; only confirmed hits pay a
// binary search over the sorted value slice for their vertex index.
const sphereMaxWidth = 28

// scanSerialThreshold: scans expected to probe fewer candidates than this
// stay on one goroutine — fan-out overhead would dominate the work.
const scanSerialThreshold = 1 << 12

// scanCtxChunk is how many vertices a scan range walks between ctx
// checks, so a deadline stops even a single-task scan mid-run.
const scanCtxChunk = 256

// weightTable precomputes the per-distance edge data once per build and
// stays with the graph as its only weight storage: each adjacency entry
// carries its distance, which indexes the table. perString[d] is the
// stored edge weight, 0 where a shell carries no edge: a mitigation
// build stores w(d)/C(n,d) for the shells whose model mass passes ε
// (newWeightTable), NeighbourSums the raw w(d). Index 0 is unused:
// vertices are distinct outcomes, so pair distances are >= 1. The table
// spans every uint8, so indexing it with a stored distance needs no
// bounds check.
type weightTable struct {
	perString [256]float64
}

// newWeightTable walks d = 1..n. The shells between the largest passing
// one and n all fail ε; effectiveRadius stops the scan before them.
func newWeightTable(w EdgeWeighter, eps float64, n int) weightTable {
	var t weightTable
	for d := 1; d <= n; d++ {
		if shell := w.Weight(d); shell >= eps {
			t.perString[d] = shell / float64(bitstring.SphereSize(n, d))
		}
	}
	return t
}

// effectiveRadius returns the largest distance with a nonzero weight —
// the scan bound. Shells beyond it cannot produce an edge, and they are
// the largest by far: one 16-qubit shell is C(16,4) = 1820 of a
// 2517-string ball.
func (t weightTable) effectiveRadius() int {
	for d := len(t.perString) - 1; d >= 1; d-- {
		if t.perString[d] != 0 {
			return d
		}
	}
	return 0
}

// edgeScanner is the shared read-only state of one edge-discovery run.
type edgeScanner struct {
	vals   []bitstring.BitString // node values in node-index (ascending) order
	n      int
	radius int
	tab    *weightTable

	// Sphere strategy only. seen is a presence bitmap probed on every
	// ball position: at 2^n bits it stays L1-resident (8 KiB at n = 16)
	// where an index table does not, and the overwhelming majority of
	// ball probes miss — the bitmap answers those without touching
	// anything bigger.
	seen []uint64
	// lut resolves a confirmed hit to its node index + 1 on narrow
	// registers (n <= sphereLUTMaxWidth); nil past that width, where hits
	// binary-search vals instead.
	lut []int32
	// masks[t] holds the ball deltas whose top set bit is t, packed
	// delta<<8 | distance, precomputed once per scan. The per-vertex walk
	// visits only the groups whose top bit is clear in the vertex value:
	// those are exactly the deltas with v^delta > v, i.e. the neighbors
	// with a higher node index (values ascend with index), so half the
	// ball is skipped outright and the symmetric b > a filter costs
	// nothing per probe.
	masks [][]uint64
}

// ballMasks enumerates every nonzero string with popcount <= radius over
// n bits, packed delta<<8 | popcount and grouped by top set bit. Group
// sizes are known in closed form (top bit t contributes Σ_{d≤r} C(t,d−1)
// deltas), so all groups share one exactly-sized arena — two allocations
// total instead of O(n·log group) append growth. Runs once per scan; the
// per-vertex hot loop just XORs these into the vertex value.
func ballMasks(n, radius int) [][]uint64 {
	total := 0
	for t := 0; t < n; t++ {
		c := 1 // C(t, d-1), starting at d = 1
		for d := 1; d <= radius; d++ {
			total += c
			if d <= t {
				c = c * (t - d + 1) / d
			} else {
				c = 0
			}
		}
	}
	arena := make([]uint64, 0, total)
	masks := make([][]uint64, n)
	var rec func(delta uint64, top, start, depth int)
	rec = func(delta uint64, top, start, depth int) {
		for i := start; i < top; i++ {
			u := delta | 1<<uint(i)
			arena = append(arena, u<<8|uint64(depth))
			if depth < radius {
				rec(u, top, i+1, depth+1)
			}
		}
	}
	for t := 0; t < n; t++ {
		base := len(arena)
		arena = append(arena, (1<<uint(t))<<8|1)
		if radius > 1 {
			rec(1<<uint(t), t, 0, 2)
		}
		masks[t] = arena[base:len(arena):len(arena)]
	}
	return masks
}

// scanTask is one unit of parallel edge discovery: a contiguous vertex
// range. Tasks are planned in ascending vertex order, so visiting the
// per-task results in task order visits the pairs in ascending a.
type scanTask struct {
	lo, hi int
}

// scanScratch is one worker's reusable discovery state: the packed-pair
// buffer. Scratches cycle through a buffered-channel pool, so a worker
// draining many tasks allocates only the exact-size per-task pair copies
// after warm-up.
//
//qbeep:pooled
type scanScratch struct {
	hits []uint64
}

// scanResult is one task's share of the discovery output: its forward
// pairs packed a<<32 | b (8 bytes each), a ascending, until every task is
// done and the rows can be allocated at their exact size.
type scanResult struct {
	hits   []uint64
	pruned int
}

// planScanTasks cuts [0, nV) into min(8·workers, 64) contiguous ranges of
// near-equal estimated work; over-decomposing lets the par queue absorb
// the estimate's error and the triangular shape of the work (vertex a
// scans only neighbours b > a). A sphere vertex's estimate is its exact
// probe count, the sizes of the mask groups whose top bit is clear in
// its value; a pair vertex compares itself with the nV−1−a vertices
// above it. The ranges ascend, which keeps the row layout canonical for
// any worker count.
func (sc *edgeScanner) planScanTasks(strat scanStrategy, workers int) []scanTask {
	nV := len(sc.vals)
	k := min(8*workers, 64, nV)
	if workers <= 1 || k <= 1 {
		return []scanTask{{0, nV}}
	}
	work := func(a int) float64 { return float64(nV - 1 - a) }
	if strat == scanSphere {
		work = func(a int) float64 {
			var w int
			for t, group := range sc.masks {
				if sc.vals[a]&(1<<uint(t)) == 0 {
					w += len(group)
				}
			}
			return float64(w)
		}
	}
	var total float64
	for a := 0; a < nV; a++ {
		total += work(a)
	}
	tasks := make([]scanTask, 0, k)
	lo, acc := 0, 0.0
	for a := 0; a < nV && len(tasks) < k-1; a++ {
		// Cut once the work so far reaches the next of the k quantiles.
		if acc += work(a); acc*float64(k) >= total*float64(len(tasks)+1) {
			tasks = append(tasks, scanTask{lo, a + 1})
			lo = a + 1
		}
	}
	if lo < nV {
		tasks = append(tasks, scanTask{lo, nV})
	}
	return tasks
}

// scanEdges discovers every thresholded edge and lays the result out as
// the graph's adjacency rows: vertex i's neighbours, ascending, are
// nbr[start[i]:start[i+1]], each with its Hamming distance in dist.
// Every edge appears in both endpoints' rows, and the rows are identical
// regardless of strategy, partitioning, or worker count; pruned counts
// candidate pairs within the radius dropped by ε, matching the serial
// scan's accounting exactly. A cancelled ctx, or a scan task that fails,
// fails the scan with that error.
func scanEdges(ctx context.Context, vals []bitstring.BitString, n, radius int, tab *weightTable, workers int, strat scanStrategy) (start, nbr []int32, dist []uint8, pruned int, used scanStrategy, err error) {
	nV := len(vals)
	if radius <= 0 || nV < 2 {
		return make([]int32, nV+1), nil, nil, 0, scanNone, nil
	}
	sc := &edgeScanner{vals: vals, n: n, radius: radius, tab: tab}

	// Candidate counts drive both the strategy choice and the
	// serial-vs-parallel decision: the walk probes half the ball per
	// vertex (top-bit grouping), the pair scan compares each pair once.
	var ball float64
	for d := 1; d <= radius && d <= n; d++ {
		ball += float64(bitstring.SphereSize(n, d))
	}
	probes, pairs := float64(nV)*ball/2, float64(nV)*float64(nV-1)/2
	if strat == scanAuto {
		// A probe — XOR plus one cache-resident bitmap load — counts as
		// half a pair comparison on the LUT widths; past them the bitmap
		// spills the cache and a probe counts as a whole one.
		strat = scanPairs
		if n <= sphereLUTMaxWidth && probes < 2*pairs || n <= sphereMaxWidth && probes < pairs {
			strat = scanSphere
		}
	} else if strat == scanSphere && n > sphereMaxWidth {
		strat = scanPairs
	}
	cand := pairs
	if strat == scanSphere {
		cand = probes
		sc.seen = make([]uint64, (1<<uint(n)+63)/64)
		if n <= sphereLUTMaxWidth {
			sc.lut = make([]int32, 1<<uint(n))
			for i, v := range vals {
				sc.lut[v] = int32(i) + 1
				sc.seen[v>>6] |= 1 << (v & 63)
			}
		} else {
			for _, v := range vals {
				sc.seen[v>>6] |= 1 << (v & 63)
			}
		}
		sc.masks = ballMasks(n, radius)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cand < scanSerialThreshold {
		workers = 1
	}
	tasks := sc.planScanTasks(strat, workers)

	results := make([]scanResult, len(tasks))
	// Expected pairs per task under a uniform corpus, where either
	// strategy finds pairs in proportion to its work and the tasks share
	// the work evenly — presizes the pair buffers so discovery appends
	// rarely reallocate. Clustered corpora exceed it and fall back to
	// append growth.
	hitEst := 0.5 * ball * float64(nV) * math.Ldexp(float64(nV), -n)
	hitCap := int(1.2*hitEst/float64(len(tasks))) + 64

	if len(tasks) == 1 {
		// Serial fast path: scan straight into the result, no copy.
		s := &scanScratch{hits: make([]uint64, 0, hitCap)}
		pr, err := sc.scanRange(ctx, tasks[0], strat, s)
		if err != nil {
			return nil, nil, nil, 0, strat, err
		}
		results[0] = scanResult{hits: s.hits, pruned: pr} //qbeep:allow-poolretain serial path: the scratch is function-local, never pooled, and dies with this frame
	} else {
		pool := make(chan *scanScratch, workers)
		for i := 0; i < workers; i++ {
			pool <- &scanScratch{hits: make([]uint64, 0, hitCap)}
		}
		err := par.ForEachCtx(ctx, len(tasks), workers, func(ti int) error {
			s := <-pool
			s.hits = s.hits[:0]
			pr, err := sc.scanRange(ctx, tasks[ti], strat, s)
			if err == nil {
				hits := make([]uint64, len(s.hits))
				copy(hits, s.hits)
				results[ti] = scanResult{hits: hits, pruned: pr}
			}
			pool <- s
			return err
		})
		// A failed task left its result empty: the rows would silently
		// miss its vertices' forward edges.
		if err != nil {
			return nil, nil, nil, 0, strat, err
		}
	}

	// Rows from the forward pairs (a, b), b > a, which the tasks hold in
	// ascending a: one degree pass, then two counting transposes. The
	// first visits the pairs in ascending a and appends a to row b, so
	// each row's lower neighbours come out ascending. The second visits
	// the rows in ascending b and appends b to the row of each of b's
	// lower neighbours, so each row's upper neighbours follow them, also
	// ascending. When row b is visited its own upper part is still empty
	// (those appends come from rows c > b), so next[b] bounds its lower
	// part. The distances follow in one sequential pass over the finished
	// rows: a popcount per entry costs less than carrying each distance
	// through both transposes' scattered writes. dist is allocated with
	// nbr, while the pair buffers are still live: allocated after them, it
	// lands on top of the buffers whenever a GC cycle has just marked them
	// live, which raised the peak heap of a counts-large request from 159
	// to 171 MB in some runs.
	start = make([]int32, nV+1)
	for ti := range results {
		pruned += results[ti].pruned
		for _, p := range results[ti].hits {
			start[p>>32+1]++
			start[uint32(p)+1]++
		}
	}
	for i := 0; i < nV; i++ {
		start[i+1] += start[i]
	}
	nbr = make([]int32, start[nV])
	dist = make([]uint8, start[nV])
	next := make([]int32, nV)
	copy(next, start[:nV])
	for ti := range results {
		for _, p := range results[ti].hits {
			b := uint32(p)
			nbr[next[b]] = int32(p >> 32)
			next[b]++
		}
	}
	for b := 0; b < nV; b++ {
		for _, a := range nbr[start[b]:next[b]] {
			nbr[next[a]] = int32(b)
			next[a]++
		}
	}
	for i, v := range vals {
		row := nbr[start[i]:start[i+1]]
		d := dist[start[i]:start[i+1]]
		for k, j := range row {
			d[k] = uint8(bitstring.Hamming(v, vals[j]))
		}
	}
	return start, nbr, dist, pruned, strat, nil
}

// scanRange appends the edges (a, b) with a in the task's range and
// b > a, packed a<<32 | b, to the scratch pair buffer (s.hits, reset by
// the caller): a ascends, each vertex's b come in the order found.
// Returns the pruned count, or ctx's error when it is done at one of the
// checks every scanCtxChunk vertices.
func (sc *edgeScanner) scanRange(ctx context.Context, t scanTask, strat scanStrategy, s *scanScratch) (int, error) {
	if strat == scanSphere {
		return sc.sphereRange(ctx, t, s)
	}
	return sc.pairRange(ctx, t, s)
}

// sphereRange is scanRange's Hamming-ball walk.
func (sc *edgeScanner) sphereRange(ctx context.Context, t scanTask, s *scanScratch) (int, error) {
	lo, hi := t.lo, t.hi
	pruned := 0
	hits := s.hits
	// Hoist the scanner fields: the appends below keep the compiler from
	// proving the fields loop-invariant, and this is the hottest loop in
	// the pipeline.
	vals, tab := sc.vals, &sc.tab.perString
	seen, lut, masks := sc.seen, sc.lut, sc.masks
	// idxOf resolves a confirmed hit to its node index: direct table
	// on narrow registers, binary search over the ascending value
	// slice past the LUT width. Only hits pay it — the bitmap has
	// already answered every miss.
	idxOf := func(u bitstring.BitString) uint64 {
		if lut != nil {
			return uint64(lut[u] - 1)
		}
		l, h := 0, len(vals)
		for l < h {
			mid := int(uint(l+h) >> 1)
			if vals[mid] < u {
				l = mid + 1
			} else {
				h = mid
			}
		}
		return uint64(l)
	}
	// len(seen) is always a power of two (2^max(0,n-6)), so masking
	// the word index proves it in-bounds and drops the bounds check
	// from the innermost load.
	wmask := bitstring.BitString(len(seen) - 1)
	for a := lo; a < hi; a++ {
		if (a-lo)%scanCtxChunk == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		va, pa := vals[a], uint64(a)<<32
		for t, group := range masks {
			if va&(1<<uint(t)) != 0 {
				continue // v^delta < v: the lower-index side owns the pair
			}
			// Unrolled by two: the bitmap loads of a pair are
			// independent, so they overlap instead of serializing on
			// L1 latency.
			i := 0
			for ; i+2 <= len(group); i += 2 {
				m0, m1 := group[i], group[i+1]
				u0 := va ^ bitstring.BitString(m0>>8)
				u1 := va ^ bitstring.BitString(m1>>8)
				h0 := seen[(u0>>6)&wmask] & (1 << (u0 & 63))
				h1 := seen[(u1>>6)&wmask] & (1 << (u1 & 63))
				if h0 != 0 {
					// Observed, and u > va guarantees index idxOf(u) > a.
					if d := m0 & 0xff; tab[d] != 0 {
						hits = append(hits, pa|idxOf(u0))
					} else {
						pruned++
					}
				}
				if h1 != 0 {
					if d := m1 & 0xff; tab[d] != 0 {
						hits = append(hits, pa|idxOf(u1))
					} else {
						pruned++
					}
				}
			}
			if i < len(group) {
				m := group[i]
				u := va ^ bitstring.BitString(m>>8)
				if seen[(u>>6)&wmask]&(1<<(u&63)) != 0 {
					if d := m & 0xff; tab[d] != 0 {
						hits = append(hits, pa|idxOf(u))
					} else {
						pruned++
					}
				}
			}
		}
	}
	s.hits = hits
	return pruned, nil
}

// pairRange is scanRange's pair scan: vertex a compares itself with
// every b > a.
func (sc *edgeScanner) pairRange(ctx context.Context, t scanTask, s *scanScratch) (int, error) {
	lo, hi := t.lo, t.hi
	pruned := 0
	hits := s.hits
	vals, tab, radius := sc.vals, &sc.tab.perString, sc.radius
	for a := lo; a < hi; a++ {
		if (a-lo)%scanCtxChunk == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		va := vals[a]
		for j, vb := range vals[a+1:] {
			d := bitstring.Hamming(va, vb)
			if d > radius {
				continue
			}
			if tab[d] == 0 {
				pruned++
				continue
			}
			hits = append(hits, uint64(a)<<32|uint64(a+1+j))
		}
	}
	s.hits = hits
	return pruned, nil
}
