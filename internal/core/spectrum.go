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
// integer-exact in float64 for n <= spectrumMaxWidth.

import (
	"math"
	"math/bits"

	"qbeep/internal/bitstring"
)

// spectrumMaxWidth caps the spectrum representation: its work buffer
// holds 2ⁿ float64s, 32 KiB at n = 12, which stays cache-resident
// through every stage of a transform run inline. Wider registers keep
// CSR rows.
const spectrumMaxWidth = 12

// The representation choice (BuildStateGraphCtx), in units of one CSR
// row-entry gather. A spectrum step costs about spectrumStepCost per
// n·2ⁿ: four transforms of n·2ⁿ⁻¹ butterflies plus the scatter, scale
// and gather sweeps. A CSR graph costs 4 row entries per edge per step
// (two passes, two entries per edge) plus csrScanCost per edge for its
// scan and row layout, amortised over a 20-iteration run. DESIGN.md §7
// records the measurement behind both.
const (
	spectrumStepCost = 1.5
	csrScanCost      = 4.0
)

// spectrumPays reports whether a spectrum step over an n-bit register
// is cheaper than a CSR step over edges edges plus its share of the scan.
func spectrumPays(n int, edges float64) bool {
	return spectrumStepCost*float64(n)*math.Ldexp(1, n) < (4+csrScanCost)*edges
}

// spectrum is a state graph's Walsh–Hadamard representation, used by
// Step in place of CSR rows.
type spectrum struct {
	n int
	// khat[j] is ŵ(y)/2ⁿ for every y of weight j: the inverse
	// transform's 1/2ⁿ is folded in, exactly (a power of two).
	khat []float64
	// buf is the 2ⁿ work buffer every transform runs in place on.
	buf []float64
	// isolated marks vertices without a neighbour: their sums are
	// exactly 0, so they are neither scattered nor gathered. Gathered,
	// such a vertex would read a rounding residue, which makes its a_i
	// unbounded when w₀ = 0; scattered, its a_i = η·M/w₀ would leak
	// into every sum through the transform's rounding.
	isolated []bool
	edges    int
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

// whtStage applies the span-h butterflies (a, b) → (a+b, a−b) to x,
// whose length is a multiple of 2h. A stage is its own inverse up to a
// factor 2, so the forward and the inverse transform share it.
//
//qbeep:allocfree
func whtStage(x []float64, h int) {
	for i := 0; i+2*h <= len(x); i += 2 * h {
		lo, hi := x[i:i+h], x[i+h:i+2*h]
		for p, a := range lo {
			b := hi[p]
			lo[p], hi[p] = a+b, a-b
		}
	}
}

// wht applies the full transform to x, whose length is a power of two.
//
//qbeep:allocfree
func wht(x []float64) {
	for h := 1; h < len(x); h *= 2 {
		whtStage(x, h)
	}
}

// newSpectrum transforms the vertex indicator of vals (ascending, n <=
// spectrumMaxWidth) and returns the spectrum, its transform still in
// buf, and pairs[d], the number of unordered vertex pairs at Hamming
// distance d >= 1. Every value is an integer below 2⁵³, so the counts
// are exact.
func newSpectrum(vals []bitstring.BitString, n int, kraw []float64) (*spectrum, [spectrumMaxWidth + 1]int) {
	sp := &spectrum{n: n, buf: make([]float64, 1<<n)}
	for _, v := range vals {
		sp.buf[v] = 1
	}
	wht(sp.buf)
	// |F(y)| <= V, so Σ_y F(y)² = 2ⁿ·V <= 2²⁴, and every shell sum
	// below stays within 2²⁴·C(n, d) < 2³⁴.
	var shell [spectrumMaxWidth + 1]float64
	for y, f := range sp.buf {
		shell[bits.OnesCount64(uint64(y))] += f * f
	}
	var pairs [spectrumMaxWidth + 1]int
	for d := 1; d <= n; d++ {
		var ordered float64
		for j, a := range shell[:n+1] {
			ordered += a * kraw[d*(n+1)+j]
		}
		pairs[d] = int(math.Ldexp(ordered, -n)) / 2
	}
	return sp, pairs
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

// finish readies a spectrum whose buf holds the indicator transform for
// Step: it marks the isolated vertices, whose neighbour count (the
// indicator convolved with the edge-shell indicator, an exact integer)
// is 0, and fills ŵ/2ⁿ from the weight table. buf becomes the work
// buffer.
func (sp *spectrum) finish(vals []bitstring.BitString, tab *weightTable, kraw []float64, edges int) {
	n := sp.n
	var shellInd [spectrumMaxWidth + 1]float64
	sp.khat = make([]float64, n+1)
	for j := 0; j <= n; j++ {
		var ind, w float64
		for d := 1; d <= n; d++ {
			if k := kraw[d*(n+1)+j]; tab.perString[d] != 0 {
				ind += k
				w += tab.perString[d] * k
			}
		}
		shellInd[j] = ind
		sp.khat[j] = math.Ldexp(w, -n)
	}
	for y := range sp.buf {
		sp.buf[y] *= shellInd[bits.OnesCount64(uint64(y))]
	}
	wht(sp.buf)
	sp.isolated = make([]bool, len(vals))
	for i, v := range vals {
		sp.isolated[i] = sp.buf[v] == 0
	}
	sp.edges = edges
}

// trySpectrum decides the representation (DESIGN.md §7). It returns nil
// — build CSR rows — when strat forces a scan, the register is wider
// than spectrumMaxWidth, no shell passes ε, or the cost model prefers
// rows; scanSpectrum skips the cost model. An upper bound on the edge
// count rules out clearly sparse graphs before any transform; otherwise
// the pair-distance histogram gives the exact edge and pruned counts.
func (g *StateGraph) trySpectrum(vals []bitstring.BitString, strat scanStrategy) *spectrum {
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
	sp, pairs := newSpectrum(vals, n, kraw)
	edges, pruned := g.tab.tallyPairs(pairs[:], g.radius)
	if strat == scanAuto && !spectrumPays(n, float64(edges)) {
		return nil
	}
	sp.finish(vals, &g.tab, kraw, edges)
	g.pruned = pruned
	return sp
}

// spectrumSums computes the current pass's neighbour sums into s.sum
// as H·(ŵ ⊙ H·x)/2ⁿ: scatter x into the zeroed buffer, transform,
// scale by ŵ/2ⁿ, transform back, gather. The transform runs inline: at
// n <= spectrumMaxWidth a whole pass costs tens of microseconds.
//
//qbeep:allocfree
func (g *StateGraph) spectrumSums() {
	sp, s := g.spec, &g.scratch
	buf, x, sums := sp.buf, s.x, s.sum
	clear(buf)
	for i, nd := range g.nodes {
		if !sp.isolated[i] {
			buf[nd.value] = x[i]
		}
	}
	wht(buf)
	for y := range buf {
		buf[y] *= sp.khat[bits.OnesCount64(uint64(y))]
	}
	wht(buf)
	for i, nd := range g.nodes {
		var sum float64
		if !sp.isolated[i] {
			// Exact sums are >= 0; the transform can leave a negative
			// rounding residue, which the clamp removes.
			sum = max(buf[nd.value], 0)
		}
		sums[i] = sum
	}
}
