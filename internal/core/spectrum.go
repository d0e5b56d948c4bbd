package core

// The spectrum representation of the state graph (DESIGN.md §7). Every
// edge weight depends only on its endpoints' Hamming distance, so each
// neighbour sum of Step is a convolution over Z₂ⁿ:
//
//	(W·x)(v) = Σ_u k(v⊕u)·x(u),   k(z) = perString[wt(z)], k(0) = 0,
//
// with x zero-padded from the vertices to all 2ⁿ strings. The
// Walsh–Hadamard transform H (H·H = 2ⁿ·I) diagonalises it:
// W·x = H·(ŵ ⊙ H·x)/2ⁿ with ŵ = H·k. Because k depends only on the
// weight, so does ŵ: ŵ(y) = Σ_d perString[d]·K_d(wt(y)), a Krawtchouk
// sum, stored as n+1 numbers. A row-sum pass then costs two transforms
// of n·2ⁿ⁻¹ butterflies whatever the edge count, and no edge is listed.
//
// The same transform counts the edges without a scan: the
// autocorrelation of the vertex indicator 1_V counts the ordered vertex
// pairs at every XOR difference, and its weight-d shell sum is
// Σ_y (H·1_V)(y)²·K_d(wt(y)) / 2ⁿ, one transform plus n+1 dot products,
// integer-exact in int64 for n <= spectrumMaxWidth.

import (
	"context"
	"math"
	"math/bits"
	"runtime"

	"qbeep/internal/bitstring"
	"qbeep/internal/par"
)

// spectrumMaxWidth caps the spectrum representation: its work buffer
// holds 2ⁿ float64s, 8 MiB at n = 20, and the pair histogram's integer
// sums stay below 2⁶³ (DESIGN.md §7). Wider registers keep CSR rows.
const spectrumMaxWidth = 20

// The representation choice (BuildStateGraphCtx), in units of one CSR
// row-entry gather. A spectrum step costs about spectrumStepCost per
// n·2ⁿ: four transforms of n·2ⁿ⁻¹ butterflies plus the scatter, scale
// and gather sweeps. A CSR graph costs 4 row entries per edge per step
// (two passes, two entries per edge) plus csrScanCost per edge for its
// scan and row layout, amortised over a 20-iteration run. DESIGN.md §7
// records the measurement behind both. With the AVX2 kernel a
// counts-large spectrum step measured 0.50 ns per n·2ⁿ at GOMAXPROCS 1
// and 0.46 at 2, against 0.62 and 0.66 ns per row entry for its rows
// (one 10-step sample each on a 2-vCPU Xeon): a ratio of 0.7–0.8, not
// 1.5. The constant stays at 1.5 so that every build keeps its
// representation and its outputs.
const (
	spectrumStepCost = 1.5
	csrScanCost      = 4.0
)

// spectrumPays reports whether a spectrum step over an n-bit register
// is cheaper than a CSR step over edges edges plus its share of the scan.
func spectrumPays(n int, edges float64) bool {
	return spectrumStepCost*float64(n)*math.Ldexp(1, n) < (4+csrScanCost)*edges
}

// A transform runs its low whtBlockBits stages block by block, each
// block of 2¹² float64s (32 KiB) L1-resident through them, then the
// remaining n − whtBlockBits stages over chunks of consecutive columns,
// each chunk copied into a buffer of at most 2^whtChunkBits entries
// (512 KiB, L2-resident) whose rows stay contiguous; in place, the
// chunk's rows would sit 32 KiB apart, on the same few cache sets.
const (
	whtBlockBits = 12
	whtChunkBits = 16
)

// spectrum is a state graph's Walsh–Hadamard representation, used by
// Step in place of CSR rows.
type spectrum struct {
	n int
	// khat[j] is ŵ(y)/2ⁿ for every y of weight j: the inverse
	// transform's 1/2ⁿ is folded in, exactly (a power of two).
	// khatSeg[j0·L + p] is khat[j0 + wt(p)] over the L entries a
	// transform scales at once (a block, or a chunk's row of width
	// entries), for each weight j0 of the first one's index.
	khat, khatSeg []float64
	// buf is the 2ⁿ work buffer every transform runs in place on.
	buf []float64
	// isolated marks vertices without a neighbour: their sums are
	// exactly 0, so they are neither scattered nor gathered. Gathered,
	// such a vertex would read a rounding residue, which makes its a_i
	// unbounded when w₀ = 0; scattered, its a_i = η·M/w₀ would leak
	// into every sum through the transform's rounding.
	isolated []bool
	edges    int
	// vals are the vertex values, ascending; the vertices of block b
	// are vals[blockStart[b]:blockStart[b+1]].
	vals       []bitstring.BitString
	blockStart []int32
	// shards runs the phases (a transform's blocks and chunks, a pass's
	// gather), bound once per graph with the build's worker count; nil
	// at n <= whtBlockBits, where a transform is a single block and
	// every phase runs inline. chunk holds one buffer of width columns
	// by 2^(n−whtBlockBits) rows per shard.
	shards *par.Shards
	chunk  []float64
	width  int
	// One phase's arguments, which the shards read: phase selects it;
	// in, when non-nil, is scattered into each zeroed block before the
	// block phase; scaled multiplies entry y by khat[wt(y)] after its
	// last butterfly; out receives the gather.
	phase   int
	scaled  bool
	in, out []float64
	// weight[p] is wt(p) over one block: wt(y0+p) = wt(y0) + weight[p]
	// for y0 a multiple of the block.
	weight []uint8
	// The build's shell sweep: shellInd[j] is the edge-shell
	// indicator's spectrum at weight j, which it scales each entry by,
	// and shard k adds F(y)² into shellSums[k][wt(y)].
	shellInd  [spectrumMaxWidth + 1]float64
	shellSums [][spectrumMaxWidth + 1]int64
}

// krawtchouk returns K_d(j) = Σ_s (−1)^s·C(j,s)·C(n−j,d−s) at
// [d·(n+1) + j]: the sum of (−1)^popcount(z&y) over the weight-d strings
// z, for any y of weight j. Every entry is an integer of magnitude at
// most C(n,d).
func krawtchouk(n int) []float64 {
	k := make([]float64, (n+1)*(n+1))
	for d := 0; d <= n; d++ {
		for j := 0; j <= n; j++ {
			var v int64
			for s := max(0, d-(n-j)); s <= min(d, j); s++ {
				t := int64(bitstring.SphereSize(j, s) * bitstring.SphereSize(n-j, d-s))
				if s%2 == 1 {
					t = -t
				}
				v += t
			}
			k[d*(n+1)+j] = float64(v)
		}
	}
	return k
}

// whtStages applies the stages of span h, 2h, ... up to len(x)/2 to x,
// whose length is a power of two times h. Stages run in pairs as
// radix-4 butterflies: (a, b, c, d) at spans 0, h, 2h, 3h become
// ((a+b)+(c+d), (a−b)+(c−d), (a+b)−(c+d), (a−b)−(c−d)), the span-h
// butterflies (a, b) → (a+b, a−b) followed by the span-2h ones with the
// same operands in the same order, so every output is bitwise the one a
// stage-by-stage loop computes. From span 1, the first two pairs run
// together on 16-entry groups; an odd stage count ends on a radix-2
// stage. A stage is its own inverse up to a factor 2, so the forward
// and the inverse transform share them. With whtAVX2 the groups and
// the radix-4 stages at h >= 4 run in the AVX2 kernel, whose lanes do
// the same additions in the same order.
//
//qbeep:allocfree
func whtStages(x []float64, h int) {
	if h == 1 && len(x) >= 16 && whtAVX2 {
		whtGroupsAVX2(x)
		h = 16
	}
	if h == 1 && len(x) >= 16 {
		// Spans 1, 2, 4 and 8, one 16-entry group at a time.
		for i := 0; i < len(x); i += 16 {
			q := (*[16]float64)(x[i : i+16])
			for j := 0; j < 16; j += 4 {
				s0, s1, s2, s3 := q[j]+q[j+1], q[j]-q[j+1], q[j+2]+q[j+3], q[j+2]-q[j+3]
				q[j], q[j+1], q[j+2], q[j+3] = s0+s2, s1+s3, s0-s2, s1-s3
			}
			for p := 0; p < 4; p++ {
				a, b, c, d := q[p], q[p+4], q[p+8], q[p+12]
				s0, s1, s2, s3 := a+b, a-b, c+d, c-d
				q[p], q[p+4], q[p+8], q[p+12] = s0+s2, s1+s3, s0-s2, s1-s3
			}
		}
		h = 16
	}
	for ; 4*h <= len(x); h *= 4 {
		if whtAVX2 && h >= 4 {
			whtRadix4AVX2(x, h)
			continue
		}
		for i := 0; i < len(x); i += 4 * h {
			q0, q1, q2, q3 := x[i:i+h], x[i+h:i+2*h], x[i+2*h:i+3*h], x[i+3*h:i+4*h]
			q1, q2, q3 = q1[:len(q0)], q2[:len(q0)], q3[:len(q0)]
			for p, a := range q0 {
				b, c, d := q1[p], q2[p], q3[p]
				s0, s1, s2, s3 := a+b, a-b, c+d, c-d
				q0[p], q1[p], q2[p], q3[p] = s0+s2, s1+s3, s0-s2, s1-s3
			}
		}
	}
	if 2*h == len(x) {
		lo, hi := x[:h], x[h:]
		for p, a := range lo {
			b := hi[p]
			lo[p], hi[p] = a+b, a-b
		}
	}
}

// newSpectrum allocates the work buffer of a spectrum over an n-bit
// register (n <= spectrumMaxWidth) and, above one block, binds its
// transform's shards: workers of them like the build's (<= 0 selects
// GOMAXPROCS), one per block at most.
func newSpectrum(n, workers int) *spectrum {
	sp := &spectrum{n: n, buf: make([]float64, 1<<n), weight: make([]uint8, 1<<min(n, whtBlockBits))}
	for p := range sp.weight {
		sp.weight[p] = uint8(bits.OnesCount(uint(p)))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > whtBlockBits {
		workers = min(workers, 1<<(n-whtBlockBits))
		// A chunk holds at most 2^whtChunkBits entries, and there are
		// at least as many chunks as shards.
		rows := 1 << (n - whtBlockBits)
		sp.width = min(1<<whtChunkBits/rows, 1<<whtBlockBits>>bits.Len(uint(workers-1)))
		sp.chunk = make([]float64, workers*rows*sp.width)
		sp.shards = par.NewShards(workers, sp.shard)
	}
	return sp
}

// pairHistogram transforms the vertex indicator of vals (ascending)
// into buf and returns pairs[d], the number of unordered vertex pairs
// at Hamming distance d >= 1. The sweep that sums the shells, on the
// transform's shards, also leaves F(y)·shellInd[wt(y)] in buf, the
// input of finish's transform. ctx parents the worker spans.
func (sp *spectrum) pairHistogram(ctx context.Context, vals []bitstring.BitString, kraw []float64) [spectrumMaxWidth + 1]int {
	n := sp.n
	for _, v := range vals {
		sp.buf[v] = 1
	}
	sp.wht(ctx, false)
	// F(y) = (H·1_V)(y) is an integer with |F| <= V <= 2ⁿ, so F² is
	// exact, Σ_y F(y)² = 2ⁿ·V <= 2⁴⁰, and every shell sum below is at
	// most 2⁴⁰·C(n, d) < 2⁵⁸: int64 holds them all exactly, so the
	// shards' partial sums add up to the same shells in any order.
	sp.shellSums = make([][spectrumMaxWidth + 1]int64, 1)
	if sp.shards != nil {
		sp.shellSums = make([][spectrumMaxWidth + 1]int64, sp.shards.Len())
	}
	sp.runPhase(ctx, phaseShells)
	var shell [spectrumMaxWidth + 1]int64
	for _, sums := range sp.shellSums {
		for j, a := range sums {
			shell[j] += a
		}
	}
	sp.shellSums = nil
	var pairs [spectrumMaxWidth + 1]int
	for d := 1; d <= n; d++ {
		var ordered int64
		for j, a := range shell[:n+1] {
			ordered += a * int64(kraw[d*(n+1)+j])
		}
		pairs[d] = int(ordered>>uint(n)) / 2
	}
	return pairs
}

// The phases a shard runs: a transform's block and column-chunk
// stages, the gather of the vertices' entries, and the build's shell
// sweep.
const (
	phaseBlocks = iota
	phaseChunks
	phaseGather
	phaseShells
)

// wht applies the Walsh–Hadamard transform to buf in place and, when
// scaled, multiplies entry y by khat[wt(y)] after its last butterfly.
// Each entry sees the stages in ascending span, the block-local ones
// (span < 2^whtBlockBits) before the column ones, so the result is
// bitwise that of a stage-by-stage loop at any shard count.
//
//qbeep:allocfree
func (sp *spectrum) wht(ctx context.Context, scaled bool) {
	sp.scaled = scaled
	sp.runPhase(ctx, phaseBlocks)
	if sp.n > whtBlockBits {
		sp.runPhase(ctx, phaseChunks)
	}
}

// runPhase runs phase on every shard. A shard panic (only a bug can
// cause one) resurfaces on the calling goroutine.
//
//qbeep:allocfree
func (sp *spectrum) runPhase(ctx context.Context, phase int) {
	sp.phase = phase
	if sp.shards == nil {
		sp.shard(0)
		return
	}
	if err := sp.shards.Run(ctx, sp.shards.Len()); err != nil {
		panic(err)
	}
}

// shard runs shard k's part of the current phase. The block phase
// transforms whole blocks, each first cleared and scattered into when
// in is set; the chunk phase treats buf as a matrix of
// 2^(n−whtBlockBits) rows by 2^whtBlockBits columns, whose remaining
// stages pair rows, and runs them on column chunks: each chunk is
// copied into the shard's buffer row by row, so its stages are a
// transform of that buffer from span w, the chunk width, on. The gather
// reads each vertex's entry into out, 0 for an isolated vertex; exact
// sums are >= 0, and the clamp removes a negative rounding residue. The
// shell sweep sums F(y)² by weight over whole blocks and scales each
// entry by shellInd.
//
//qbeep:allocfree
func (sp *spectrum) shard(k int) {
	shards := 1
	if sp.shards != nil {
		shards = sp.shards.Len()
	}
	buf, n := sp.buf, sp.n
	block := 1 << min(n, whtBlockBits)
	switch sp.phase {
	case phaseGather:
		lo, hi := par.Range(k, shards, len(sp.vals))
		for i := lo; i < hi; i++ {
			var sum float64
			if !sp.isolated[i] {
				sum = max(buf[sp.vals[i]], 0)
			}
			sp.out[i] = sum
		}
	case phaseShells:
		var shell [spectrumMaxWidth + 1]int64
		lo, hi := par.Range(k, shards, len(buf)/block)
		for b := lo; b < hi; b++ {
			j0 := bits.OnesCount(uint(b * block))
			sh, ind := shell[j0:], sp.shellInd[j0:]
			x := buf[b*block : (b+1)*block]
			for p, f := range x {
				w := sp.weight[p]
				sh[w] += int64(f) * int64(f)
				x[p] = f * ind[w]
			}
		}
		sp.shellSums[k] = shell
	case phaseBlocks:
		lo, hi := par.Range(k, shards, len(buf)/block)
		for b := lo; b < hi; b++ {
			x := buf[b*block : (b+1)*block]
			if sp.in != nil {
				clear(x)
				for i := sp.blockStart[b]; i < sp.blockStart[b+1]; i++ {
					if !sp.isolated[i] {
						x[int(sp.vals[i])&(block-1)] = sp.in[i]
					}
				}
			}
			whtStages(x, 1)
			if sp.scaled && n <= whtBlockBits {
				for p, k := range sp.khatSeg[:len(x)] {
					x[p] *= k
				}
			}
		}
	case phaseChunks:
		rows, width := len(buf)>>whtBlockBits, sp.width
		t := sp.chunk[k*rows*width : (k+1)*rows*width]
		lo, hi := par.Range(k, shards, block/width)
		for c := lo; c < hi; c++ {
			for r := 0; r < rows; r++ {
				copy(t[r*width:(r+1)*width], buf[r*block+c*width:])
			}
			whtStages(t, width)
			for r := 0; r < rows; r++ {
				y0 := r*block + c*width
				row, tr := buf[y0:y0+width], t[r*width:(r+1)*width]
				if !sp.scaled {
					copy(row, tr)
					continue
				}
				j0 := bits.OnesCount(uint(y0))
				for p, k := range sp.khatSeg[j0*width : (j0+1)*width] {
					row[p] = tr[p] * k
				}
			}
		}
	}
}

// segmentKhat fills khatSeg from khat. A segment starts at a multiple
// y0 of its length L, a power of two, so wt(y0+p) = wt(y0) + wt(p).
func (sp *spectrum) segmentKhat() {
	seg := len(sp.weight)
	if sp.n > whtBlockBits {
		seg = sp.width
	}
	jmax := sp.n - bits.TrailingZeros(uint(seg))
	sp.khatSeg = make([]float64, (jmax+1)*seg)
	for j0 := 0; j0 <= jmax; j0++ {
		for p := range seg {
			sp.khatSeg[j0*seg+p] = sp.khat[j0+int(sp.weight[p])]
		}
	}
}

// tallyPairs splits a pair-distance histogram within radius into what
// a scan would report: the pairs whose shell passes ε (the edges) and
// those whose shell fails it (the pruned candidates).
func (t *weightTable) tallyPairs(pairs []int, radius int) (edges, pruned int) {
	for d := 1; d <= radius; d++ {
		if t.perString[d] != 0 {
			edges += pairs[d]
		} else {
			pruned += pairs[d]
		}
	}
	return edges, pruned
}

// spectra fills shellInd, the edge-shell indicator's spectrum, and
// ŵ/2ⁿ from the weight table: both are Krawtchouk sums over the shells
// that pass ε.
func (sp *spectrum) spectra(tab *weightTable, kraw []float64) {
	n := sp.n
	sp.khat = make([]float64, n+1)
	for j := 0; j <= n; j++ {
		var ind, w float64
		for d := 1; d <= n; d++ {
			if k := kraw[d*(n+1)+j]; tab.perString[d] != 0 {
				ind += k
				w += tab.perString[d] * k
			}
		}
		sp.shellInd[j] = ind
		sp.khat[j] = math.Ldexp(w, -n)
	}
}

// finish readies a spectrum whose buf holds the indicator transform
// scaled by shellInd for Step: it marks the isolated vertices. buf
// becomes the work buffer. A vertex's neighbour count is the indicator
// convolved with the edge-shell indicator, read off as 2ⁿ times the
// count; the transform's rounding error stays below 4 at
// n <= spectrumMaxWidth (DESIGN.md §7), so testing it against half of
// 2ⁿ tells a count of 0 from one of 1 exactly.
func (sp *spectrum) finish(ctx context.Context, vals []bitstring.BitString, edges int) {
	n := sp.n
	sp.segmentKhat()
	sp.wht(ctx, false)
	half := math.Ldexp(1, n-1)
	sp.isolated = make([]bool, len(vals))
	sp.blockStart = make([]int32, len(sp.buf)/len(sp.weight)+1)
	for i, v := range vals {
		sp.isolated[i] = sp.buf[v] < half
		sp.blockStart[int(v)/len(sp.weight)+1] = int32(i) + 1
	}
	for b := 1; b < len(sp.blockStart); b++ {
		sp.blockStart[b] = max(sp.blockStart[b], sp.blockStart[b-1])
	}
	sp.vals, sp.edges = vals, edges
}

// trySpectrum decides the representation (DESIGN.md §7). It returns nil
// — build CSR rows — when strat forces a scan, the register is wider
// than spectrumMaxWidth, no shell passes ε, or the cost model prefers
// rows; scanSpectrum skips the cost model. An upper bound on the edge
// count rules out clearly sparse graphs before any transform; otherwise
// the pair-distance histogram gives the exact edge and pruned counts.
func (g *StateGraph) trySpectrum(ctx context.Context, vals []bitstring.BitString, strat scanStrategy) *spectrum {
	n, nV := g.n, len(vals)
	if (strat != scanAuto && strat != scanSpectrum) || n > spectrumMaxWidth || g.radius == 0 || nV < 2 {
		return nil
	}
	if strat == scanAuto {
		var shells float64 // neighbours a vertex can have at most
		for d := 1; d <= g.radius; d++ {
			if g.tab.perString[d] != 0 {
				shells += float64(bitstring.SphereSize(n, d))
			}
		}
		bound := math.Min(float64(nV)*float64(nV-1)/2, float64(nV)*shells/2)
		if !spectrumPays(n, bound) {
			return nil
		}
	}
	kraw := krawtchouk(n)
	sp := newSpectrum(n, g.workers)
	sp.spectra(&g.tab, kraw)
	pairs := sp.pairHistogram(ctx, vals, kraw)
	edges, pruned := g.tab.tallyPairs(pairs[:], g.radius)
	if strat == scanAuto && !spectrumPays(n, float64(edges)) {
		return nil
	}
	sp.finish(ctx, vals, edges)
	g.pruned = pruned
	return sp
}

// sums computes the neighbour sums H·(ŵ ⊙ H·x)/2ⁿ of x at the vertices
// into out: scatter x into the zeroed buffer block by block and
// transform, scaling by ŵ/2ⁿ, transform back, gather. Every phase runs
// on the spectrum's shards; x and out are borrowed for the call only.
//
//qbeep:allocfree
func (sp *spectrum) sums(ctx context.Context, x, out []float64) {
	sp.in = x
	sp.wht(ctx, true)
	sp.in = nil
	sp.wht(ctx, false)
	sp.out = out
	sp.runPhase(ctx, phaseGather)
	sp.out = nil
}
