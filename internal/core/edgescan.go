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
//     estimated work, drained by the shards of one internal/par Shards
//     into per-shard chunked pair buffers. Each range appends its forward
//     pairs (a, b), b > a, in the order it finds them; a counting sort
//     on the calling goroutine lays out the graph's adjacency rows,
//     each ascending by construction — bit-for-bit identical to the
//     serial O(V²) scan for either strategy and any worker count.
//
// The seed's serial scan survives in the tests as bruteScanEdges: the
// randomized equivalence tests use it as the oracle, and
// BenchmarkBuildStateGraphBrute measures the engine against it.

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"

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
	// room bounds the forward pairs one vertex can find: the strings at
	// the distances that carry an edge, and the other vertices.
	room int

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

// pairBuf is one shard's forward-pair buffer: pairs packed a<<32 | b,
// 8 bytes each, until every task is done and the rows can be allocated
// at their exact size. The scan appends into the current chunk and,
// before each vertex, starts a new chunk if the free space could not
// hold the most pairs a vertex can find (edgeScanner.room), so no
// append reallocates and no pair is ever copied. A chunk holds at least
// twice that many. A task's pairs are the pieces it filled, in order.
type pairBuf struct {
	cur    []uint64 // the current chunk; its open piece starts at mark
	mark   int
	pieces [][]uint64 // closed pieces, in fill order
	chunk  int        // the capacity of a new chunk
	pruned int
}

// closePiece ends the open piece at the chunk's fill mark.
func (b *pairBuf) closePiece() {
	if len(b.cur) > b.mark {
		b.pieces = append(b.pieces, b.cur[b.mark:len(b.cur):len(b.cur)])
	}
	b.mark = len(b.cur)
}

// newChunk closes the open piece of hits, the current chunk as filled so
// far, and returns an empty chunk.
func (b *pairBuf) newChunk(hits []uint64) []uint64 {
	b.cur = hits
	b.closePiece()
	b.cur, b.mark = make([]uint64, 0, b.chunk), 0
	return b.cur
}

// taskPieces locates one finished task's pairs: pieces [first, last) of
// shard's buffer.
type taskPieces struct {
	shard, first, last int
}

// scanBuild is one scanEdges scan, shared by the shards of its
// par.Shards. The shards claim tasks in ascending order through next, so
// a shard runs one task at a time and its pieces follow the task order.
type scanBuild struct {
	ctx   context.Context
	sc    *edgeScanner
	strat scanStrategy
	tasks []scanTask
	next  atomic.Int64
	bufs  []pairBuf    // per shard
	found []taskPieces // per task
}

// scan drains tasks into shard k's pair buffer until none is left or
// ctx is done; scanEdges reports ctx's error.
func (s *scanBuild) scan(k int) {
	b := &s.bufs[k]
	for {
		ti := int(s.next.Add(1) - 1)
		if ti >= len(s.tasks) {
			return
		}
		first := len(b.pieces)
		if err := s.sc.scanRange(s.ctx, s.tasks[ti], s.strat, b); err != nil {
			return
		}
		s.found[ti] = taskPieces{k, first, len(b.pieces)}
	}
}

// pieces returns task ti's pairs, in the order its scan found them.
func (s *scanBuild) pieces(ti int) [][]uint64 {
	f := s.found[ti]
	return s.bufs[f.shard].pieces[f.first:f.last]
}

// planScanTasks cuts [0, nV) into min(8·workers, 64) contiguous ranges of
// near-equal estimated work; over-decomposing lets the shards' queue
// absorb the estimate's error and the triangular shape of the work
// (vertex a scans only neighbours b > a). A sphere vertex's estimate is
// its exact probe count, the sizes of the mask groups whose top bit is
// clear in its value; a pair vertex compares itself with the nV−1−a
// vertices above it. The ranges ascend, which keeps the row layout
// canonical for any worker count.
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
// the graph's adjacency rows: vertex i's row is
// adj[start[i]:start[i+1]], one packed entry j<<8 | d(i, j) per
// neighbour j, ascending in j. Every edge appears in both endpoints'
// rows, and the rows are identical regardless of strategy, partitioning,
// or worker count; pruned counts candidate pairs within the radius
// dropped by ε, matching the serial scan's accounting exactly. A
// cancelled ctx fails the scan with its error, and so does a scan shard
// that panics. vals must have fewer than maxVertices entries.
//
// The scan runs on a par.Shards; the layout runs on the calling
// goroutine, as a counting sort over the tasks' forward pairs (a, b),
// b > a, which come in ascending a when read in task order. A degree
// pass and a prefix sum place the rows; a scatter appends each a to row
// b, so every row's lower part (the neighbours below it) ascends; then a
// pass over the rows b in ascending order packs each lower entry's
// distance in place and mirrors the entry into row a, so every row's
// upper part ascends too, after its lower part.
func scanEdges(ctx context.Context, vals []bitstring.BitString, n, radius int, tab *weightTable, workers int, strat scanStrategy) (start []int32, adj []uint32, pruned int, used scanStrategy, err error) {
	nV := len(vals)
	if radius <= 0 || nV < 2 {
		return make([]int32, nV+1), nil, 0, scanNone, nil
	}
	sc := &edgeScanner{vals: vals, n: n, radius: radius, tab: tab}

	// Candidate counts drive both the strategy choice and the
	// serial-vs-parallel decision: the walk probes half the ball per
	// vertex (top-bit grouping), the pair scan compares each pair once.
	// Only the shells that carry an edge can add a pair.
	var ball, shells float64
	for d := 1; d <= radius && d <= n; d++ {
		ball += float64(bitstring.SphereSize(n, d))
		if tab.perString[d] != 0 {
			shells += float64(bitstring.SphereSize(n, d))
		}
	}
	sc.room = int(min(shells, float64(nV-1)))
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
	s := &scanBuild{ctx: ctx, sc: sc, strat: strat, tasks: sc.planScanTasks(strat, workers)}
	shards := min(workers, len(s.tasks))
	s.found = make([]taskPieces, len(s.tasks))
	s.bufs = make([]pairBuf, shards)
	// Expected pairs per shard under a uniform corpus, where the shards
	// share the edge shells' pairs evenly, sizes the chunks, so a uniform
	// scan fills about one per shard. Clustered corpora exceed it and
	// take more chunks. One arena holds every shard's piece list, with
	// room for a piece per task each before any list grows.
	hitEst := 0.5 * shells * float64(nV) * math.Ldexp(float64(nV), -n)
	arena := make([][]uint64, shards*len(s.tasks))
	for k := range s.bufs {
		s.bufs[k].chunk = max(int(1.2*hitEst/float64(shards))+64, 2*sc.room)
		s.bufs[k].pieces = arena[k*len(s.tasks) : k*len(s.tasks) : (k+1)*len(s.tasks)]
	}
	if err := par.NewShards(shards, s.scan).Run(ctx, shards); err != nil {
		return nil, nil, 0, strat, err
	}
	// A task stopped by ctx left its pairs out: the rows would silently
	// miss its vertices' forward edges.
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, strat, err
	}
	for k := range s.bufs {
		pruned += s.bufs[k].pruned
	}

	start = make([]int32, nV+1)
	for ti := range s.tasks {
		for _, piece := range s.pieces(ti) {
			for _, p := range piece {
				start[p>>32+1]++
				start[uint32(p)+1]++
			}
		}
	}
	for v := 0; v < nV; v++ {
		start[v+1] += start[v]
	}
	// adj is allocated while the pair buffers are still live: allocated
	// after them, it could land on top of pair buffers that a GC mark has
	// just found live, and raise the build's peak heap.
	adj = make([]uint32, start[nV])
	next := make([]int32, nV)
	copy(next, start[:nV])
	for ti := range s.tasks {
		for _, piece := range s.pieces(ti) {
			for _, p := range piece {
				b := uint32(p)
				adj[next[b]] = uint32(p >> 32)
				next[b]++
			}
		}
	}
	// When row b is visited its upper part is still empty (its entries
	// come from the rows above b), so next[b] ends its lower part.
	for b := 0; b < nV; b++ {
		vb := vals[b]
		row := adj[start[b]:next[b]]
		for q, a := range row {
			d := uint32(bitstring.Hamming(vals[a], vb))
			row[q] = a<<8 | d
			adj[next[a]] = uint32(b)<<8 | d
			next[a]++
		}
	}
	return start, adj, pruned, strat, nil
}

// scanRange appends the edges (a, b) with a in the task's range and
// b > a, packed a<<32 | b, to the shard's pair buffer as the pieces it
// closes: a ascends, each vertex's b come in the order found. It adds
// the pruned count to the buffer's, or returns ctx's error when it is
// done at one of the checks every scanCtxChunk vertices.
func (sc *edgeScanner) scanRange(ctx context.Context, t scanTask, strat scanStrategy, b *pairBuf) error {
	if strat == scanSphere {
		return sc.sphereRange(ctx, t, b)
	}
	return sc.pairRange(ctx, t, b)
}

// sphereRange is scanRange's Hamming-ball walk.
func (sc *edgeScanner) sphereRange(ctx context.Context, t scanTask, b *pairBuf) error {
	lo, hi := t.lo, t.hi
	pruned := 0
	hits := b.cur
	// Hoist the scanner fields: the appends below keep the compiler from
	// proving the fields loop-invariant, and this is the hottest loop in
	// the pipeline.
	vals, tab := sc.vals, &sc.tab.perString
	seen, lut, masks, room := sc.seen, sc.lut, sc.masks, sc.room
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
				return err
			}
		}
		if cap(hits)-len(hits) < room {
			hits = b.newChunk(hits)
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
	b.cur = hits
	b.closePiece()
	b.pruned += pruned
	return nil
}

// pairRange is scanRange's pair scan: vertex a compares itself with
// every b > a.
func (sc *edgeScanner) pairRange(ctx context.Context, t scanTask, b *pairBuf) error {
	lo, hi := t.lo, t.hi
	pruned := 0
	hits := b.cur
	vals, tab, radius, room := sc.vals, &sc.tab.perString, sc.radius, sc.room
	for a := lo; a < hi; a++ {
		if (a-lo)%scanCtxChunk == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if cap(hits)-len(hits) < room {
			hits = b.newChunk(hits)
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
	b.cur = hits
	b.closePiece()
	b.pruned += pruned
	return nil
}
