package mathx

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). Every stochastic component in the
// repository takes an explicit *RNG so experiments are reproducible
// bit-for-bit; math/rand is avoided so results cannot drift across Go
// releases.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes the generator in place to the exact state NewRNG
// would produce for seed. Hot loops that burn one stream per iteration
// (the shot engine's per-shot streams, through ReseedStream) reseed a
// long-lived generator instead of allocating a fresh one.
func (r *RNG) Reseed(seed uint64) {
	// splitmix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

//qbeep:mustinline
//qbeep:allocfree
func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
//
//qbeep:allocfree
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float in [0, 1).
//
//qbeep:mustinline
//qbeep:allocfree
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics for n <= 0.
//
//qbeep:mustinline
//qbeep:allocfree
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Uniform returns a uniform float in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// LogUniform returns a variate uniform in log space over [lo, hi); both
// bounds must be positive. Calibration parameters (error rates, T1/T2)
// spread over orders of magnitude, so log-uniform sampling matches how real
// device parameters scatter.
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("mathx: LogUniform requires 0 < lo < hi")
	}
	return math.Exp(r.Uniform(math.Log(lo), math.Log(hi)))
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split returns a new generator whose stream is independent of r's
// continuation, keyed by label. Use it to give sub-experiments their own
// deterministic streams.
func (r *RNG) Split(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// ReseedStream re-initializes r in place to the index-th generator of a
// family keyed by base: a deterministic function of (base, index) only,
// so callers can hand out per-task streams (the shot engine's per-shot
// streams) in any order, or from any worker, and still reproduce the
// exact same sequences for a fixed base. Unlike Split, it does not
// advance any parent generator, and it allocates nothing.
//
//qbeep:mustinline
//qbeep:allocfree
func (r *RNG) ReseedStream(base, index uint64) {
	r.Reseed(base ^ (index+1)*0x9e3779b97f4a7c15)
}
