// Package densitymatrix implements an exact mixed-state simulator: the
// n-qubit density matrix evolved by unitary gates and Kraus noise
// channels. It is the ground-truth reference for the fast failure-event
// executor in internal/noise — exponentially more expensive (4^n complex
// entries), so it is used for validation at small widths, not for the
// evaluation corpora.
package densitymatrix

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"

	"qbeep/internal/bitstring"
	"qbeep/internal/circuit"
	"qbeep/internal/par"
)

// MaxQubits bounds the register width (4^10 = ~1M complex entries).
const MaxQubits = 10

// Matrix2 is a single-qubit operator.
type Matrix2 [2][2]complex128

// Dagger returns the conjugate transpose.
func (m Matrix2) Dagger() Matrix2 {
	return Matrix2{
		{cmplx.Conj(m[0][0]), cmplx.Conj(m[1][0])},
		{cmplx.Conj(m[0][1]), cmplx.Conj(m[1][1])},
	}
}

// Density is the n-qubit density matrix ρ with qubit 0 the
// least-significant index bit of both row and column.
//
// Gate and channel application uses pair-stride kernels over the row and
// column index spaces (no per-index mask tests) with a scratch matrix
// reused across calls, and shards rows across internal/par workers for
// wide registers; the contents of ρ are bitwise independent of the worker
// count because shards partition whole row pairs.
type Density struct {
	n       int
	dim     int
	rho     []complex128 // row-major dim×dim
	scratch []complex128 // reusable output buffer for out-of-place kernels
	signs   []float64    // reusable ±1 table for diagonal conjugations
	workers int          // row shard count; 0 = auto
	// ctx parents the row shard fan-outs' worker spans (SetContext);
	// nil until set.
	ctx context.Context
	// shards runs the row kernels, bound once per matrix; pend holds one
	// kernel call's arguments for them (see shard).
	shards *par.Shards
	pend   rowKernel
	// daggers is apply1's reusable buffer of K† per Kraus operator.
	daggers []Matrix2
}

// Row kernels, selected by rowKernel.kind.
const (
	kernelKraus = iota // Σ_k K ρ K† on qubit mask (apply1)
	kernelPerm         // basis permutation perm (applyPerm)
	kernelSigns        // diagonal ±1 conjugation by signs (applyDiagSigns)
)

// rowKernel is one kernel call: which kernel, over how many row slots
// split into n shards, and the kernel's operands. The out-of-place
// kernels write d.scratch.
type rowKernel struct {
	kind, rows, n int
	mask          int
	kraus         []Matrix2
	perm          basisPerm
}

// basisPerm is a controlled bit-flip permutation of basis indices: an
// index with every ctrl bit set has its flip bits flipped — or, with
// swap, its two flip bits exchanged (flipped only when they differ).
type basisPerm struct {
	ctrl, flip int
	swap       bool
}

func (p basisPerm) apply(i int) int {
	if i&p.ctrl != p.ctrl {
		return i
	}
	if f := i & p.flip; p.swap && (f == 0 || f == p.flip) {
		return i
	}
	return i ^ p.flip
}

// SetWorkers sets the row shard count: w > 1 shards the kernels over w
// par workers, w == 1 forces serial application, w <= 0 restores the
// default (GOMAXPROCS once the matrix is large enough to pay for the
// fan-out). ρ's contents are bitwise independent of w.
func (d *Density) SetWorkers(w int) {
	if w < 0 {
		w = 0
	}
	d.workers = w
}

// parMinRows is the row-space size below which auto mode stays serial.
const parMinRows = 1 << 6

// SetContext parents the row shard fan-outs' "par.worker" spans under
// the span active in ctx for the rest of this matrix's evolution.
func (d *Density) SetContext(ctx context.Context) {
	d.ctx = ctx
}

// resolveWorkers picks the shard count for a kernel over `rows` row slots.
func (d *Density) resolveWorkers(rows int) int {
	w := d.workers
	if w <= 0 {
		if rows < parMinRows {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shard runs the kernel described by d.pend over a partition of its row
// slots across the resolved worker count. Each kernel writes only state
// owned by its row range.
func (d *Density) shard() {
	w := d.resolveWorkers(d.pend.rows)
	if w <= 1 {
		d.kernelRange(0, d.pend.rows)
		return
	}
	if d.shards == nil || d.shards.Len() < w {
		d.shards = par.NewShards(w, d.runShard)
	}
	d.pend.n = w
	err := d.shards.Run(d.ctx, w)
	if err != nil {
		panic(err) // kernels cannot fail: resurface the shard's panic here
	}
}

func (d *Density) runShard(k int) {
	if lo, hi := par.Range(k, d.pend.n, d.pend.rows); lo < hi {
		d.kernelRange(lo, hi)
	}
}

func (d *Density) kernelRange(lo, hi int) {
	switch d.pend.kind {
	case kernelKraus:
		d.krausRows(lo, hi)
	case kernelPerm:
		d.permRows(lo, hi)
	case kernelSigns:
		d.signRows(lo, hi)
	}
}

// swapScratch installs the scratch buffer as ρ, keeping the old storage
// as the next call's scratch.
func (d *Density) swapScratch() {
	d.rho, d.scratch = d.scratch, d.rho
}

// ensureScratch returns the reusable output buffer, zeroed when asked.
func (d *Density) ensureScratch(zero bool) []complex128 {
	if d.scratch == nil {
		return d.ensureScratchAlloc()
	}
	if zero {
		clear(d.scratch)
	}
	return d.scratch
}

func (d *Density) ensureScratchAlloc() []complex128 {
	d.scratch = make([]complex128, len(d.rho))
	return d.scratch
}

// New returns ρ = |0...0⟩⟨0...0|.
func New(n int) (*Density, error) {
	return NewBasis(n, 0)
}

// NewBasis returns ρ = |b⟩⟨b|.
func NewBasis(n int, b bitstring.BitString) (*Density, error) {
	if n <= 0 || n > MaxQubits {
		return nil, fmt.Errorf("densitymatrix: width %d outside (0,%d]", n, MaxQubits)
	}
	dim := 1 << uint(n)
	if uint64(b) >= uint64(dim) {
		return nil, fmt.Errorf("densitymatrix: basis %d outside %d-qubit register", b, n)
	}
	d := &Density{n: n, dim: dim, rho: make([]complex128, dim*dim)}
	d.rho[int(b)*dim+int(b)] = 1
	return d, nil
}

// N returns the register width.
func (d *Density) N() int { return d.n }

// At returns ρ[r][c].
func (d *Density) At(r, c int) complex128 { return d.rho[r*d.dim+c] }

// Trace returns tr(ρ) (1 for a valid state).
func (d *Density) Trace() complex128 {
	var t complex128
	for i := 0; i < d.dim; i++ {
		t += d.rho[i*d.dim+i]
	}
	return t
}

// Purity returns tr(ρ²): 1 for pure states, 1/2^n for maximally mixed.
func (d *Density) Purity() float64 {
	var p complex128
	for r := 0; r < d.dim; r++ {
		for c := 0; c < d.dim; c++ {
			p += d.rho[r*d.dim+c] * d.rho[c*d.dim+r]
		}
	}
	return real(p)
}

// Prob returns the measurement probability of basis state b, ⟨b|ρ|b⟩.
func (d *Density) Prob(b bitstring.BitString) float64 {
	return real(d.rho[int(b)*d.dim+int(b)])
}

// Dist returns the diagonal as a probability distribution.
func (d *Density) Dist() *bitstring.Dist {
	out := bitstring.NewDist(d.n)
	for i := 0; i < d.dim; i++ {
		p := real(d.rho[i*d.dim+i])
		if p > 1e-14 {
			out.Add(bitstring.BitString(i), p)
		}
	}
	return out
}

// apply1 applies ρ → Σ_k K_k ρ K_k† for single-qubit Kraus operators on
// qubit q. A unitary is the single-element channel {U}.
//
// Rows and columns are walked with pair strides: row pairs (r0, r0|mask)
// come from the compressed row-pair index space, and the column loop
// iterates outer blocks of 2·mask with a contiguous inner run of mask
// columns — no per-index mask tests anywhere. Row-pair shards write
// disjoint rows of the output, so the fan-out is race-free and the result
// is bitwise identical for any worker count.
func (d *Density) apply1(q int, kraus []Matrix2) {
	d.daggers = d.daggers[:0]
	// Precompute each operator's dagger once, outside the hot loops.
	for _, k := range kraus {
		d.daggers = append(d.daggers, k.Dagger())
	}
	d.ensureScratch(true)
	d.pend = rowKernel{kind: kernelKraus, rows: d.dim >> 1, mask: 1 << uint(q), kraus: kraus}
	d.shard()
	d.pend = rowKernel{}
	d.swapScratch()
}

// krausRows applies apply1's channel to compressed row pairs [lo, hi).
func (d *Density) krausRows(lo, hi int) {
	mask, dim, rho, next := d.pend.mask, d.dim, d.rho, d.scratch
	kraus, daggers := d.pend.kraus, d.daggers
	for t := lo; t < hi; t++ {
		r0 := (t&^(mask-1))<<1 | t&(mask-1)
		r1 := r0 | mask
		row0 := rho[r0*dim : r0*dim+dim]
		row1 := rho[r1*dim : r1*dim+dim]
		out0 := next[r0*dim : r0*dim+dim]
		out1 := next[r1*dim : r1*dim+dim]
		for ki := range kraus {
			k, kd := kraus[ki], daggers[ki]
			for cb := 0; cb < dim; cb += mask << 1 {
				for c0 := cb; c0 < cb+mask; c0++ {
					c1 := c0 | mask
					// 2x2 block of ρ in (r, c) qubit-q space.
					p00 := row0[c0]
					p01 := row0[c1]
					p10 := row1[c0]
					p11 := row1[c1]
					// K ρ K† on the block.
					a00 := k[0][0]*p00 + k[0][1]*p10
					a01 := k[0][0]*p01 + k[0][1]*p11
					a10 := k[1][0]*p00 + k[1][1]*p10
					a11 := k[1][0]*p01 + k[1][1]*p11
					out0[c0] += a00*kd[0][0] + a01*kd[1][0]
					out0[c1] += a00*kd[0][1] + a01*kd[1][1]
					out1[c0] += a10*kd[0][0] + a11*kd[1][0]
					out1[c1] += a10*kd[0][1] + a11*kd[1][1]
				}
			}
		}
	}
}

// applyPerm conjugates ρ by a basis permutation: row r of the output is
// row perm(r) rearranged by the same permutation on columns. Every input
// row writes exactly one output row, so row shards never collide, and the
// scratch needs no zeroing (the permutation covers every entry).
func (d *Density) applyPerm(perm basisPerm) {
	d.ensureScratch(false)
	d.pend = rowKernel{kind: kernelPerm, rows: d.dim, perm: perm}
	d.shard()
	d.pend = rowKernel{}
	d.swapScratch()
}

// permRows applies applyPerm's permutation to input rows [lo, hi).
func (d *Density) permRows(lo, hi int) {
	dim, rho, next, perm := d.dim, d.rho, d.scratch, d.pend.perm
	for r := lo; r < hi; r++ {
		src := rho[r*dim : r*dim+dim]
		pr := perm.apply(r)
		dst := next[pr*dim : pr*dim+dim]
		for c, v := range src {
			dst[perm.apply(c)] = v
		}
	}
}

// applyCX applies the CNOT unitary (a permutation: conjugating ρ by the
// permutation matrix permutes rows and columns).
func (d *Density) applyCX(ctrl, tgt int) {
	d.applyPerm(basisPerm{ctrl: 1 << uint(ctrl), flip: 1 << uint(tgt)})
}

// applyDiagSigns conjugates ρ by the diagonal ±1 matrix in d.signs:
// ρ[r][c] *= sign[r]·sign[c], in place and branch-free.
func (d *Density) applyDiagSigns() {
	d.pend = rowKernel{kind: kernelSigns, rows: d.dim}
	d.shard()
	d.pend = rowKernel{}
}

// signRows applies applyDiagSigns to rows [lo, hi).
func (d *Density) signRows(lo, hi int) {
	dim, rho, signs := d.dim, d.rho, d.signs
	for r := lo; r < hi; r++ {
		sr := signs[r]
		row := rho[r*dim : r*dim+dim]
		for c := range row {
			row[c] *= complex(sr*signs[c], 0)
		}
	}
}

// applyCZ applies the CZ unitary (diagonal ±1 phases).
func (d *Density) applyCZ(a, b int) {
	am := 1 << uint(a)
	bm := 1 << uint(b)
	if d.signs == nil {
		d.signs = make([]float64, d.dim)
	}
	both := am | bm
	for i := range d.signs {
		if i&both == both {
			d.signs[i] = -1
		} else {
			d.signs[i] = 1
		}
	}
	d.applyDiagSigns()
}

const invSqrt2 = 0.7071067811865476

func gateMatrix(g circuit.Gate) (Matrix2, bool) {
	switch g.Kind {
	case circuit.I:
		return Matrix2{{1, 0}, {0, 1}}, true
	case circuit.X:
		return Matrix2{{0, 1}, {1, 0}}, true
	case circuit.Y:
		return Matrix2{{0, -1i}, {1i, 0}}, true
	case circuit.Z:
		return Matrix2{{1, 0}, {0, -1}}, true
	case circuit.H:
		return Matrix2{{invSqrt2, invSqrt2}, {invSqrt2, -invSqrt2}}, true
	case circuit.S:
		return Matrix2{{1, 0}, {0, 1i}}, true
	case circuit.Sdg:
		return Matrix2{{1, 0}, {0, -1i}}, true
	case circuit.T:
		return Matrix2{{1, 0}, {0, cmplx.Exp(1i * math.Pi / 4)}}, true
	case circuit.Tdg:
		return Matrix2{{1, 0}, {0, cmplx.Exp(-1i * math.Pi / 4)}}, true
	case circuit.SX:
		return Matrix2{
			{complex(0.5, 0.5), complex(0.5, -0.5)},
			{complex(0.5, -0.5), complex(0.5, 0.5)}}, true
	case circuit.RX:
		c, s := math.Cos(g.Params[0]/2), math.Sin(g.Params[0]/2)
		return Matrix2{
			{complex(c, 0), complex(0, -s)},
			{complex(0, -s), complex(c, 0)}}, true
	case circuit.RY:
		c, s := math.Cos(g.Params[0]/2), math.Sin(g.Params[0]/2)
		return Matrix2{
			{complex(c, 0), complex(-s, 0)},
			{complex(s, 0), complex(c, 0)}}, true
	case circuit.RZ:
		return Matrix2{
			{cmplx.Exp(complex(0, -g.Params[0]/2)), 0},
			{0, cmplx.Exp(complex(0, g.Params[0]/2))}}, true
	case circuit.U3:
		th, ph, la := g.Params[0], g.Params[1], g.Params[2]
		ct, st := math.Cos(th/2), math.Sin(th/2)
		return Matrix2{
			{complex(ct, 0), -cmplx.Exp(complex(0, la)) * complex(st, 0)},
			{cmplx.Exp(complex(0, ph)) * complex(st, 0),
				cmplx.Exp(complex(0, ph+la)) * complex(ct, 0)}}, true
	default:
		return Matrix2{}, false
	}
}

// Apply applies one unitary gate to ρ.
func (d *Density) Apply(g circuit.Gate) error {
	if err := g.Validate(d.n); err != nil {
		return err
	}
	switch g.Kind {
	case circuit.Measure, circuit.Barrier:
		return nil
	case circuit.CX:
		d.applyCX(g.Qubits[0], g.Qubits[1])
		return nil
	case circuit.CZ:
		d.applyCZ(g.Qubits[0], g.Qubits[1])
		return nil
	case circuit.SWAP:
		d.applyCX(g.Qubits[0], g.Qubits[1])
		d.applyCX(g.Qubits[1], g.Qubits[0])
		d.applyCX(g.Qubits[0], g.Qubits[1])
		return nil
	case circuit.CCX:
		// CCX as controlled-controlled permutation.
		d.applyPerm(basisPerm{ctrl: 1<<uint(g.Qubits[0]) | 1<<uint(g.Qubits[1]), flip: 1 << uint(g.Qubits[2])})
		return nil
	case circuit.CSWAP:
		d.applyPerm(basisPerm{ctrl: 1 << uint(g.Qubits[0]), flip: 1<<uint(g.Qubits[1]) | 1<<uint(g.Qubits[2]), swap: true})
		return nil
	default:
		m, ok := gateMatrix(g)
		if !ok {
			return fmt.Errorf("densitymatrix: unsupported gate %s", g.Kind)
		}
		d.apply1(g.Qubits[0], []Matrix2{m})
		return nil
	}
}

// Channel applies a single-qubit Kraus channel to qubit q. The operators
// must satisfy Σ K†K = I (checked to a tolerance).
func (d *Density) Channel(q int, kraus []Matrix2) error {
	if q < 0 || q >= d.n {
		return fmt.Errorf("densitymatrix: qubit %d outside [0,%d)", q, d.n)
	}
	if err := ValidateKraus(kraus); err != nil {
		return err
	}
	d.apply1(q, kraus)
	return nil
}

// ValidateKraus checks the completeness relation Σ K†K = I.
func ValidateKraus(kraus []Matrix2) error {
	if len(kraus) == 0 {
		return fmt.Errorf("densitymatrix: empty Kraus set")
	}
	var sum Matrix2
	for _, k := range kraus {
		kd := k.Dagger()
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				sum[r][c] += kd[r][0]*k[0][c] + kd[r][1]*k[1][c]
			}
		}
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			want := complex128(0)
			if r == c {
				want = 1
			}
			if cmplx.Abs(sum[r][c]-want) > 1e-9 {
				return fmt.Errorf("densitymatrix: Kraus completeness violated at (%d,%d): %v", r, c, sum[r][c])
			}
		}
	}
	return nil
}
