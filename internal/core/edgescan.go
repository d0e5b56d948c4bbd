package core

// Edge discovery for the state graph. BuildStateGraphCtx's pair scan is the
// innermost loop of the whole pipeline — it runs once per mitigation,
// thousands of times per figure corpus — so it gets an engine of its own:
//
//   - a per-distance weight table, so the scan performs two array loads
//     per candidate pair instead of an interface call into the model
//     (a Poisson PMF) plus a binomial coefficient;
//   - popcount bucketing: |wt(a)−wt(b)| ≤ Hamming(a,b), and the distance
//     parity is pinned to (wt(a)+wt(b)) mod 2, so only buckets whose
//     minimum achievable distance is within the model radius are scanned;
//   - a Hamming-ball walk for small radii: enumerate the C(n, 1..r)
//     strings around each vertex with incremental XOR and probe a
//     presence bitmap, making discovery O(V·C(n,≤r)) — near-linear in V
//     for the radii ε = 0.05 induces. Narrow registers resolve confirmed
//     hits through a direct value→vertex table; wide ones (up to
//     sphereMaxWidth) binary-search the sorted value slice instead, so
//     million-vertex corpora at n = 26 stay on the near-linear path;
//   - two-level sharding across internal/par workers: level 1 partitions
//     the vertex set along data boundaries (top-bit groups for the
//     sphere walk, popcount-histogram work quantiles for the bucket
//     scan), level 2 splits heavy partitions into contiguous scan
//     ranges. Workers drain tasks with per-worker packed-hit scratch,
//     and per-task hit lists merge in ascending task order into the
//     graph's adjacency rows, each ascending — bit-for-bit identical to
//     the serial O(V²) scan for any strategy, any partitioning, and any
//     worker count.
//
// The seed's serial scan survives in the tests as bruteScanEdges: the
// randomized equivalence tests use it as the oracle, and
// BenchmarkBuildStateGraphBrute measures the engine against it.

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"qbeep/internal/bitstring"
	"qbeep/internal/par"
)

// scanStrategy selects the edge-discovery algorithm. scanAuto picks by
// estimated probe counts; the equivalence tests force each path.
type scanStrategy int

const (
	scanAuto scanStrategy = iota
	// scanBucket scans vertex pairs from popcount buckets within radius.
	scanBucket
	// scanSphere walks the Hamming ball around each vertex and probes a
	// presence bitmap. Requires n <= sphereMaxWidth.
	scanSphere
	// scanNone is reported when the graph cannot have edges (radius 0 or
	// fewer than two vertices).
	scanNone
)

func (s scanStrategy) String() string {
	switch s {
	case scanBucket:
		return "bucket"
	case scanSphere:
		return "sphere"
	case scanNone:
		return "none"
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

// weightTable precomputes the per-distance edge data once per build and
// stays with the graph as its only weight storage: each adjacency entry
// carries its distance, which indexes the table. perString[d] is the
// stored edge weight w(d)/C(n,d) for shells whose model mass passes ε,
// and 0 for shells inside the radius that fail the threshold (those
// candidates count as pruned). Index 0 is unused: vertices are distinct
// outcomes, so pair distances are >= 1. The table spans every uint8, so
// indexing it with a stored distance needs no bounds check.
type weightTable struct {
	perString [256]float64
}

func newWeightTable(w EdgeWeighter, eps float64, n, radius int) weightTable {
	var t weightTable
	for d := 1; d <= radius && d <= n; d++ {
		if shell := w.Weight(d); shell >= eps {
			t.perString[d] = shell / float64(bitstring.SphereSize(n, d))
		}
	}
	return t
}

// effectiveRadius returns the largest distance whose shell passes the ε
// threshold — the true scan bound. The model's MaxRadius is a tail
// cutoff, so its boundary shell always fails ε and scanning it can only
// prune; dropping dead boundary shells shrinks the Hamming ball (and the
// bucket window) substantially: one 16-qubit shell is C(16,4) = 1820 of
// a 2517-string ball.
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

	// Flat popcount buckets (counting-sort layout): bucket w's node
	// indices, ascending, are bucketIdx[bucketStart[w]:bucketStart[w+1]].
	// One histogram pass plus two fixed slices replaces the per-bucket
	// slice-of-slices, and the histogram doubles as the pre-sizing source
	// for the scan scratch below.
	bucketStart []int32 // len n+2
	bucketIdx   []int32 // len nV
	hitEst      float64 // expected edges per vertex (uniform-corpus estimate)
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
	// nothing per probe. Across visited groups the probed values ascend
	// (higher top bit ⇒ larger u), so only within-group hits need sorting.
	masks [][]uint64
}

// bucket returns popcount bucket w's node indices, ascending.
func (sc *edgeScanner) bucket(w int) []int32 {
	return sc.bucketIdx[sc.bucketStart[w]:sc.bucketStart[w+1]]
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
// range inside one level-1 partition. Tasks are planned in ascending
// vertex order, so merging per-task results in task order reproduces the
// canonical serial edge order.
type scanTask struct {
	lo, hi int
}

// scanScratch is one worker's reusable discovery state: the packed-hit
// buffer and (bucket strategy) the per-bucket forward cursors. Scratches
// cycle through a buffered-channel pool, so a worker draining many tasks
// allocates only the exact-size per-task hit copies after warm-up.
//
//qbeep:pooled
type scanScratch struct {
	hits []uint64
	cur  []int32
}

// scanResult is one task's share of the discovery output. Hits stay
// packed (8 bytes each) until every task is done and the final edge
// slice can be allocated at its exact size — appending edge structs
// directly would triple the growth-copy traffic.
type scanResult struct {
	hits   []uint64 // packed b<<8 | d, one ascending run per vertex
	starts []int32  // vertex (relative to task lo) -> offset into hits
	pruned int
}

// planScanTasks builds the two-level decomposition of [0, nV). Level 1
// partitions the vertex set along data boundaries: the sphere walk cuts
// at top-bit-group edges (values ascend with node index, so each group
// is contiguous), the bucket scan at popcount-histogram work quantiles.
// Level 2 splits partitions whose estimated share of the scan exceeds an
// even grain into contiguous sub-ranges, so the par queue can balance
// skewed partitions. Every task stays in ascending vertex order, which
// keeps the ordered merge canonical for any worker count.
func (sc *edgeScanner) planScanTasks(strat scanStrategy, workers int) []scanTask {
	nV := len(sc.vals)
	if workers <= 1 || nV < 2 {
		return []scanTask{{0, nV}}
	}
	// Over-decompose so the dynamic queue balances the triangular
	// workload (vertex a scans only neighbors b > a).
	target := workers * 8
	if target > 64 {
		target = 64
	}
	if target > nV {
		target = nV
	}

	var parts []scanTask
	var workPrefix []float64
	if strat == scanSphere {
		lo := 0
		for i := 1; i <= nV; i++ {
			if i == nV || bits.Len64(uint64(sc.vals[i])) != bits.Len64(uint64(sc.vals[lo])) {
				parts = append(parts, scanTask{lo, i})
				lo = i
			}
		}
	} else {
		// A bucket-scan vertex's candidate count is its popcount window's
		// total occupancy, so the prefix sum of per-vertex window sizes
		// cuts equal-work partitions no matter how skewed the weight
		// histogram is.
		win := make([]float64, sc.n+1)
		for w := 0; w <= sc.n; w++ {
			lo := w - sc.radius
			if lo < 0 {
				lo = 0
			}
			hi := w + sc.radius
			if hi > sc.n {
				hi = sc.n
			}
			win[w] = float64(sc.bucketStart[hi+1] - sc.bucketStart[lo])
		}
		workPrefix = make([]float64, nV+1)
		for i, v := range sc.vals {
			workPrefix[i+1] = workPrefix[i] + win[v.Weight()]
		}
		nParts := workers
		if nParts > 8 {
			nParts = 8
		}
		if nParts > nV {
			nParts = nV
		}
		parts = cutByWork(workPrefix, 0, nV, nParts)
	}

	totalWork := float64(nV)
	if workPrefix != nil {
		totalWork = workPrefix[nV]
	}
	grain := totalWork / float64(target)
	tasks := make([]scanTask, 0, target+len(parts))
	for _, p := range parts {
		pw := float64(p.hi - p.lo)
		if workPrefix != nil {
			pw = workPrefix[p.hi] - workPrefix[p.lo]
		}
		k := 1
		if grain > 0 {
			k = int(pw/grain + 0.5)
		}
		if k < 1 {
			k = 1
		}
		if k > p.hi-p.lo {
			k = p.hi - p.lo
		}
		switch {
		case k == 1:
			tasks = append(tasks, p)
		case workPrefix != nil:
			tasks = append(tasks, cutByWork(workPrefix, p.lo, p.hi, k)...)
		default:
			for i := 0; i < k; i++ {
				tasks = append(tasks, scanTask{p.lo + i*(p.hi-p.lo)/k, p.lo + (i+1)*(p.hi-p.lo)/k})
			}
		}
	}
	return tasks
}

// cutByWork splits [lo, hi) into at most k contiguous ranges of
// near-equal work under the prefix-sum weighting: boundaries are the
// work quantiles, found by binary search; ranges that would come out
// empty are skipped.
func cutByWork(prefix []float64, lo, hi, k int) []scanTask {
	out := make([]scanTask, 0, k)
	base, span := prefix[lo], prefix[hi]-prefix[lo]
	cur := lo
	for i := 1; i <= k && cur < hi; i++ {
		cut := hi
		if i < k {
			q := base + span*float64(i)/float64(k)
			l, h := cur, hi
			for l < h {
				mid := int(uint(l+h) >> 1)
				if prefix[mid] < q {
					l = mid + 1
				} else {
					h = mid
				}
			}
			cut = l
		}
		if cut <= cur {
			continue
		}
		out = append(out, scanTask{cur, cut})
		cur = cut
	}
	if cur < hi {
		out = append(out, scanTask{cur, hi})
	}
	return out
}

// scanEdges discovers every thresholded edge and lays the result out as
// the graph's adjacency rows: vertex i's neighbours, ascending, are
// nbr[start[i]:start[i+1]], each with its Hamming distance in dist.
// Every edge appears in both endpoints' rows, and the rows are identical
// regardless of strategy, partitioning, or worker count; pruned counts
// candidate pairs within the radius dropped by ε, matching the serial
// scan's accounting exactly.
func scanEdges(ctx context.Context, vals []bitstring.BitString, n, radius int, tab *weightTable, workers int, strat scanStrategy) (start, nbr []int32, dist []uint8, pruned int, used scanStrategy) {
	nV := len(vals)
	if radius <= 0 || nV < 2 {
		return make([]int32, nV+1), nil, nil, 0, scanNone
	}
	sc := &edgeScanner{vals: vals, n: n, radius: radius, tab: tab}
	// Flat buckets by counting sort: the histogram prefix sum is the
	// bucket boundary array, and scanning vals in index order keeps each
	// bucket's node indices ascending.
	hist := make([]int32, n+2)
	for _, v := range vals {
		hist[v.Weight()+1]++
	}
	for w := 0; w <= n; w++ {
		hist[w+1] += hist[w]
	}
	sc.bucketStart = hist
	sc.bucketIdx = make([]int32, nV)
	fill := make([]int32, n+1)
	copy(fill, hist[:n+1])
	for i, v := range vals {
		w := v.Weight()
		sc.bucketIdx[fill[w]] = int32(i)
		fill[w]++
	}

	// Candidate estimates drive both the strategy choice and the
	// serial-vs-parallel decision.
	var bucketCand int64
	for wa := 0; wa <= n; wa++ {
		la := int64(len(sc.bucket(wa)))
		if la == 0 {
			continue
		}
		for wb := wa; wb <= n && wb-wa <= radius; wb++ {
			if wb == wa {
				if radius >= 2 { // same-weight pairs differ in >= 2 bits
					bucketCand += la * (la - 1) / 2
				}
				continue
			}
			bucketCand += la * int64(len(sc.bucket(wb)))
		}
	}
	var ballSize int64
	for d := 1; d <= radius && d <= n; d++ {
		ballSize += int64(bitstring.SphereSize(n, d))
	}
	// Expected hits per vertex under a uniform corpus — presizes the hit
	// buffers so discovery appends rarely reallocate. Clustered corpora
	// exceed it and fall back to append growth.
	sc.hitEst = 0.5 * float64(ballSize) * math.Ldexp(float64(nV), -n)
	if strat == scanAuto {
		strat = scanBucket
		if n <= sphereLUTMaxWidth && int64(nV)*ballSize/2 < 2*bucketCand {
			// The walk probes half the ball per vertex (top-bit grouping),
			// and a probe — XOR plus one L1-resident bitmap load — costs
			// about half a bucket candidate (random value fetch plus
			// popcount).
			strat = scanSphere
		} else if n > sphereLUTMaxWidth && n <= sphereMaxWidth && int64(nV)*ballSize/2 < bucketCand {
			// Wide registers: the bitmap spills L1, so a probe costs
			// about one bucket candidate.
			strat = scanSphere
		}
	} else if strat == scanSphere && n > sphereMaxWidth {
		strat = scanBucket
	}
	cand := bucketCand
	if strat == scanSphere {
		cand = int64(nV) * ballSize / 2
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
	// One shared arena holds every task's starts window (task length
	// plus the leading zero each), cut along precomputed offsets.
	startsArena := make([]int32, nV+len(tasks))
	offs := make([]int, len(tasks))
	maxVerts, off := 0, 0
	for i, t := range tasks {
		offs[i] = off
		off += t.hi - t.lo + 1
		if t.hi-t.lo > maxVerts {
			maxVerts = t.hi - t.lo
		}
	}
	hitCap := int(sc.hitEst*float64(maxVerts)*1.2) + 64

	if len(tasks) == 1 {
		// Serial fast path: scan straight into the result, no copy.
		s := &scanScratch{hits: make([]uint64, 0, hitCap)}
		starts := startsArena[:nV+1]
		pr := sc.scanRange(tasks[0], strat, s, starts)
		results[0] = scanResult{hits: s.hits, starts: starts, pruned: pr} //qbeep:allow-poolretain serial path: the scratch is function-local, never pooled, and dies with this frame
	} else {
		pool := make(chan *scanScratch, workers)
		for i := 0; i < workers; i++ {
			pool <- &scanScratch{hits: make([]uint64, 0, hitCap)}
		}
		par.ForEachCtx(ctx, len(tasks), workers, func(ti int) error {
			t := tasks[ti]
			s := <-pool
			s.hits = s.hits[:0]
			starts := startsArena[offs[ti] : offs[ti]+t.hi-t.lo+1]
			pr := sc.scanRange(t, strat, s, starts)
			hits := make([]uint64, len(s.hits))
			copy(hits, s.hits)
			results[ti] = scanResult{hits: hits, starts: starts, pruned: pr}
			pool <- s
			return nil
		})
	}

	// Rows from the per-task forward hits (b > a, packed b<<8 | d): one
	// degree pass, then one fill pass in ascending a. Row b receives its
	// lower neighbours while the a < b runs are visited and its own
	// forward run after them, so every row comes out ascending.
	start = make([]int32, nV+1)
	for ti := range results {
		r := &results[ti]
		pruned += r.pruned
		lo := tasks[ti].lo
		for k := 0; k+1 < len(r.starts); k++ {
			run := r.hits[r.starts[k]:r.starts[k+1]]
			start[lo+k+1] += int32(len(run))
			for _, p := range run {
				start[(p>>8)+1]++
			}
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
		r := &results[ti]
		lo := tasks[ti].lo
		for k := 0; k+1 < len(r.starts); k++ {
			a := lo + k
			for _, p := range r.hits[r.starts[k]:r.starts[k+1]] {
				b, d := p>>8, uint8(p)
				nbr[next[a]], dist[next[a]] = int32(b), d
				next[a]++
				nbr[next[b]], dist[next[b]] = int32(a), d
				next[b]++
			}
		}
	}
	return start, nbr, dist, pruned, strat
}

// scanRange emits the edges (a, b) with a in the task's range and b > a,
// each vertex's neighbors sorted ascending, into the scratch hit buffer
// (s.hits, reset by the caller). starts must span hi-lo+1 entries; on
// return starts[k] is the hit offset of vertex lo+k. Returns the pruned
// count.
func (sc *edgeScanner) scanRange(t scanTask, strat scanStrategy, s *scanScratch, starts []int32) int {
	lo, hi := t.lo, t.hi
	pruned := 0
	hits := s.hits
	starts[0] = 0
	// Hoist the scanner fields: the appends below keep the compiler from
	// proving the fields loop-invariant, and these are the two hottest
	// loops in the pipeline.
	vals, tab, radius := sc.vals, &sc.tab.perString, sc.radius
	if strat == scanSphere {
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
			va := vals[a]
			for t, group := range masks {
				if va&(1<<uint(t)) != 0 {
					continue // v^delta < v: the lower-index side owns the pair
				}
				seg := len(hits)
				// Unrolled by two: the bitmap loads of a pair are
				// independent, so they overlap instead of serializing on
				// L1 latency. Hits are rare; both taken branches stay in
				// probe order, preserving the canonical emission order.
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
							hits = append(hits, idxOf(u0)<<8|d)
						} else {
							pruned++
						}
					}
					if h1 != 0 {
						if d := m1 & 0xff; tab[d] != 0 {
							hits = append(hits, idxOf(u1)<<8|d)
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
							hits = append(hits, idxOf(u)<<8|d)
						} else {
							pruned++
						}
					}
				}
				sortPacked(hits[seg:])
			}
			starts[a-lo+1] = int32(len(hits))
		}
		s.hits = hits
		return pruned
	}
	// Per-bucket cursors to the first node index > a, seeded from the
	// bucket boundaries and reset per task. Vertices are processed in
	// ascending index order, so each cursor only moves forward —
	// amortized O(bucket) per task instead of a binary search per
	// (vertex, bucket) visit.
	if cap(s.cur) < sc.n+1 {
		s.cur = make([]int32, sc.n+1)
	}
	s.cur = s.cur[:sc.n+1]
	copy(s.cur, sc.bucketStart[:sc.n+1])
	cur := s.cur
	bucketIdx, bucketStart := sc.bucketIdx, sc.bucketStart
	for a := lo; a < hi; a++ {
		va := vals[a]
		wa := va.Weight()
		loW := wa - radius
		if loW < 0 {
			loW = 0
		}
		hiW := wa + radius
		if hiW > sc.n {
			hiW = sc.n
		}
		seg := len(hits)
		for wb := loW; wb <= hiW; wb++ {
			if wb == wa && radius < 2 {
				continue // same-weight distances are even and >= 2
			}
			end := int(bucketStart[wb+1])
			c := int(cur[wb])
			for c < end && int(bucketIdx[c]) <= a {
				c++
			}
			cur[wb] = int32(c)
			for _, j := range bucketIdx[c:end] {
				d := bitstring.Hamming(va, vals[j])
				if d > radius {
					continue
				}
				if tab[d] == 0 {
					pruned++
					continue
				}
				hits = append(hits, uint64(j)<<8|uint64(d))
			}
		}
		if len(hits)-seg > 24 {
			slices.Sort(hits[seg:])
		} else {
			sortPacked(hits[seg:])
		}
		starts[a-lo+1] = int32(len(hits))
	}
	s.hits = hits
	return pruned
}

// sortPacked is an insertion sort for the short per-vertex (sphere: per
// top-bit-group) hit runs — a handful of elements each, where a generic
// sort's dispatch overhead would exceed the work.
//
//qbeep:mustinline
//qbeep:allocfree
func sortPacked(s []uint64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
