package mathx

import "math"

// Ziggurat samplers (Marsaglia & Tsang, "The Ziggurat Method for
// Generating Random Variables", J. Stat. Softw. 5(8), 2000). A
// ziggurat covers a decreasing density f on [0, ∞) with strips of equal
// area v: the base strip holds the rectangle [0, r) × [0, f(r)) plus the
// tail beyond r, and each strip above it is a rectangle whose left part
// lies wholly under f. A draw picks a strip and a point in it from one
// Uint64 and, almost always, returns at once; only a point in a strip's
// right edge (under or over the curve) or in the tail costs an exp or a
// log. The draws are exact in distribution, up to float64 rounding of
// the tables.

// zigTable is one ziggurat of up to 256 strips, in Marsaglia–Tsang's
// layout: strip i ≥ 1 spans x < x_i between heights f(x_i) and
// f(x_{i−1}) (f(x_0) = f(0) = 1 for the top strip), and strip 0 is the
// base, of effective width v/f(r). A 53-bit integer j scaled by w[i]
// places the point in strip i, and j < k[i] means it lies left of
// x_{i−1}, wholly under the curve.
type zigTable struct {
	k [256]uint64
	w [256]float64
	f [256]float64
}

// The Marsaglia–Tsang parameters: the base strip's edge r and the
// common strip area v, for 128 normal and 256 exponential strips.
const (
	zigNormR = 3.442619855899
	zigNormV = 9.91256303526217e-3
	zigExpR  = 7.697117470131487
	zigExpV  = 3.949659822581572e-3
)

// The tables are computed at package init from the recurrence, never
// pasted.
var (
	zigNorm = newZigTable(128, zigNormR, zigNormV,
		func(x float64) float64 { return math.Exp(-x * x / 2) },
		func(y float64) float64 { return math.Sqrt(-2 * math.Log(y)) })
	zigExp = newZigTable(256, zigExpR, zigExpV,
		func(x float64) float64 { return math.Exp(-x) },
		func(y float64) float64 { return -math.Log(y) })
)

// newZigTable builds an n-strip ziggurat for the density f (with
// inverse finv) from its base edge r and strip area v: x_{n−1} = r, and
// each strip's area v fixes the next edge in, x_i = finv(v/x_{i+1} +
// f(x_{i+1})).
func newZigTable(n int, r, v float64, f, finv func(float64) float64) *zigTable {
	const scale = 1 << 53
	t := &zigTable{}
	q := v / f(r)
	t.k[0] = uint64(r / q * scale)
	t.w[0], t.f[0] = q/scale, 1
	t.w[n-1], t.f[n-1] = r/scale, f(r)
	x := r
	for i := n - 2; i >= 1; i-- {
		xi := finv(v/x + f(x))
		t.k[i+1] = uint64(xi / x * scale)
		x = xi
		t.w[i], t.f[i] = x/scale, f(x)
	}
	return t
}

// ZigNormFloat64 returns a standard normal variate by the ziggurat
// method: about one Uint64 per draw, with no log or cos on the fast path.
// The low 7 bits of the Uint64 pick the strip, bit 7 the sign and the
// top 53 bits the point, so the three are independent. It is a second
// normal sampler beside NormFloat64 (Box–Muller), whose stream callers
// and seeded test corpora depend on; this one serves the shot loop.
//
//qbeep:allocfree
func (r *RNG) ZigNormFloat64() float64 {
	for {
		u := r.Uint64()
		i := u & 127
		j := u >> 11
		x := float64(j) * zigNorm.w[i]
		switch {
		case j < zigNorm.k[i]:
		case i == 0:
			x = r.normTail()
		case zigNorm.f[i]+r.Float64()*(zigNorm.f[i-1]-zigNorm.f[i]) < math.Exp(-x*x/2):
		default:
			continue
		}
		if u&128 != 0 {
			return -x
		}
		return x
	}
}

// normTail returns a standard normal variate conditioned on exceeding
// the base strip's edge r, by Marsaglia's exponential rejection.
//
//qbeep:allocfree
func (r *RNG) normTail() float64 {
	for {
		x := -math.Log(1-r.Float64()) / zigNormR
		if y := -math.Log(1 - r.Float64()); y+y >= x*x {
			return zigNormR + x
		}
	}
}

// ExpFloat64 returns a unit-rate exponential variate by the ziggurat
// method: about one Uint64 per draw. The low 8 bits of the Uint64 pick
// the strip and the top 53 bits the point. The tail beyond r is r plus a
// fresh exponential, drawn by inversion.
//
//qbeep:allocfree
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Uint64()
		i := u & 255
		j := u >> 11
		x := float64(j) * zigExp.w[i]
		switch {
		case j < zigExp.k[i]:
			return x
		case i == 0:
			return zigExpR - math.Log(1-r.Float64())
		case zigExp.f[i]+r.Float64()*(zigExp.f[i-1]-zigExp.f[i]) < math.Exp(-x):
			return x
		}
	}
}
