package bitstring

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dist is an empirical distribution over n-qubit bit-strings: the counts (or
// re-weighted pseudo-counts after mitigation) observed for each outcome.
// Counts are float64 because mitigation redistributes fractional flow.
// Outcomes are stored ascending, so every consumer walks them in one
// deterministic order without sorting (DESIGN.md §10).
type Dist struct {
	n        int
	outcomes []BitString // strictly ascending
	counts   []float64   // counts[i] is the count of outcomes[i]
	total    float64
}

// NewDist returns an empty distribution over width-n bit-strings.
func NewDist(n int) *Dist { return &Dist{n: n} }

// FromCounts builds a distribution from a map of outcome to count.
func FromCounts(n int, counts map[BitString]float64) *Dist {
	keys := make([]BitString, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	d := NewDist(n)
	for _, k := range keys {
		d.Add(k, counts[k])
	}
	return d
}

// FromStringCounts builds a distribution from textual outcomes, e.g. the
// shape of an IBMQ result dictionary {"0101": 17, ...}. All keys must have
// the same width.
func FromStringCounts(counts map[string]float64) (*Dist, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("bitstring: empty counts")
	}
	keys := make([]string, 0, len(counts))
	for s := range counts {
		keys = append(keys, s)
	}
	vals, err := parseKeys(keys, counts)
	if err != nil {
		// Report the first offender in string order, so the message
		// never depends on map iteration order.
		sort.Strings(keys)
		_, err = parseKeys(keys, counts)
		return nil, err
	}
	// Equal-width keys order the same as strings and as integers, so the
	// total sums in the order of the sorted textual keys.
	slices.Sort(vals)
	d := &Dist{n: len(keys[0]), outcomes: make([]BitString, 0, len(vals)), counts: make([]float64, 0, len(vals))}
	key := make([]byte, d.n)
	for _, v := range vals {
		putBits(key, v)
		d.Add(v, counts[string(key)])
	}
	return d, nil
}

// parseKeys parses keys and returns the error of the first one, in keys'
// order, that does not parse, has a non-finite count or differs in
// width from keys[0].
func parseKeys(keys []string, counts map[string]float64) ([]BitString, error) {
	vals := make([]BitString, len(keys))
	for i, s := range keys {
		v, w, err := Parse(s)
		if err != nil {
			return nil, err
		}
		// Vendor dictionaries are untrusted input: a NaN or Inf count
		// would poison the running total and every probability derived
		// from it (found by FuzzDistFromCounts).
		if c := counts[s]; math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("bitstring: non-finite count %v for outcome %q", c, s)
		}
		if w != len(keys[0]) {
			return nil, fmt.Errorf("bitstring: mixed widths %d and %d", len(keys[0]), w)
		}
		vals[i] = v
	}
	return vals, nil
}

// Width returns the register width n.
func (d *Dist) Width() int { return d.n }

// Add adds c observations of outcome v. Adding a negative count is allowed
// (mitigation flows subtract), but the stored count is floored at zero.
// Adding past the largest outcome appends, so a builder that adds in
// ascending order never moves an element.
func (d *Dist) Add(v BitString, c float64) {
	i, found := slices.BinarySearch(d.outcomes, v)
	if !found {
		d.outcomes = slices.Insert(d.outcomes, i, v)
		d.counts = slices.Insert(d.counts, i, 0)
	}
	cur := d.counts[i]
	next := cur + c
	if next <= 0 {
		d.total -= cur
		d.outcomes = slices.Delete(d.outcomes, i, i+1)
		d.counts = slices.Delete(d.counts, i, i+1)
		return
	}
	d.total += next - cur
	d.counts[i] = next
}

// Count returns the count of outcome v (zero if unobserved).
//
//qbeep:mustinline
//qbeep:allocfree
func (d *Dist) Count(v BitString) float64 {
	lo, hi := 0, len(d.outcomes)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); d.outcomes[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(d.outcomes) && d.outcomes[lo] == v {
		return d.counts[lo]
	}
	return 0
}

// Total returns the sum of all counts (the shot count for raw data).
func (d *Dist) Total() float64 { return d.total }

// Prob returns the empirical probability of outcome v.
func (d *Dist) Prob(v BitString) float64 {
	if d.total == 0 {
		return 0
	}
	return d.Count(v) / d.total
}

// Support returns the number of distinct observed outcomes.
func (d *Dist) Support() int { return len(d.outcomes) }

// Outcomes returns a copy of the observed outcomes, ascending.
func (d *Dist) Outcomes() []BitString { return slices.Clone(d.outcomes) }

// Each calls fn for every outcome/count pair, outcomes ascending.
func (d *Dist) Each(fn func(v BitString, count float64)) {
	for i, v := range d.outcomes {
		fn(v, d.counts[i])
	}
}

// Clone returns a deep copy.
func (d *Dist) Clone() *Dist {
	return &Dist{n: d.n, outcomes: slices.Clone(d.outcomes), counts: slices.Clone(d.counts), total: d.total}
}

// Top returns the outcome with the largest count. ok is false for an empty
// distribution. Ties break toward the smaller value for determinism.
func (d *Dist) Top() (v BitString, ok bool) {
	var best BitString
	bestC := math.Inf(-1)
	for i, o := range d.outcomes {
		if c := d.counts[i]; c > bestC {
			best, bestC = o, c
		}
	}
	return best, len(d.outcomes) > 0
}

// Normalized returns a copy scaled so counts sum to total.
func (d *Dist) Normalized(total float64) *Dist {
	if d.total == 0 {
		return NewDist(d.n)
	}
	c, scale := d.Clone(), total/d.total
	for i := range c.counts {
		c.counts[i] *= scale
	}
	c.total = total
	return c
}

// StringCounts renders the distribution as a textual-outcome map, the shape
// vendor SDKs use. All keys share one backing string.
func (d *Dist) StringCounts() map[string]float64 {
	n, buf := d.n, make([]byte, len(d.outcomes)*d.n)
	for i, v := range d.outcomes {
		putBits(buf[i*n:(i+1)*n], v)
	}
	keys, m := string(buf), make(map[string]float64, len(d.outcomes))
	for i, c := range d.counts {
		m[keys[i*n:(i+1)*n]] = c
	}
	return m
}

// Marginal traces out all qubits not in keep: result bit i is input bit
// keep[i]. Counts of outcomes that collide after the projection merge.
func (d *Dist) Marginal(keep []int) (*Dist, error) {
	if len(keep) == 0 || len(keep) > d.n {
		return nil, fmt.Errorf("bitstring: marginal over %d of %d qubits", len(keep), d.n)
	}
	seen := make(map[int]bool, len(keep))
	for _, q := range keep {
		if q < 0 || q >= d.n {
			return nil, fmt.Errorf("bitstring: marginal qubit %d outside [0,%d)", q, d.n)
		}
		if seen[q] {
			return nil, fmt.Errorf("bitstring: marginal qubit %d repeated", q)
		}
		seen[q] = true
	}
	img := make([]BitString, len(d.outcomes))
	for i, v := range d.outcomes {
		for j, q := range keep {
			img[i] |= BitString(v.Bit(q)) << uint(j)
		}
	}
	// Seed every bucket at zero, which Add reads as unobserved, then add
	// in ascending source order: each bucket and the total sum exactly
	// as in a map, and no Add inserts.
	out := &Dist{n: len(keep), outcomes: slices.Clone(img)}
	slices.Sort(out.outcomes)
	out.outcomes = slices.Compact(out.outcomes)
	out.counts = make([]float64, len(out.outcomes))
	for i, m := range img {
		out.Add(m, d.counts[i])
	}
	return out, nil
}

// HammingSpectrum buckets the distribution by Hamming distance from center:
// element k of the result is the total probability mass at distance k.
func (d *Dist) HammingSpectrum(center BitString) []float64 {
	spec := make([]float64, d.n+1)
	if d.total == 0 {
		return spec
	}
	for i, v := range d.outcomes {
		spec[Hamming(v, center)] += d.counts[i] / d.total
	}
	return spec
}

// ExpectedHamming returns the expected Hamming distance from center under
// the distribution (the paper's EHD statistic).
func (d *Dist) ExpectedHamming(center BitString) float64 {
	if d.total == 0 {
		return 0
	}
	var s float64
	for i, v := range d.outcomes {
		s += float64(Hamming(v, center)) * d.counts[i]
	}
	return s / d.total
}

// Entropy returns the Shannon entropy of the distribution in bits.
func (d *Dist) Entropy() float64 {
	if d.total == 0 {
		return 0
	}
	var h float64
	for _, c := range d.counts {
		p := c / d.total
		h -= p * math.Log2(p)
	}
	return h
}

// Fidelity computes the classical (Bhattacharyya) fidelity between two
// distributions over the same register: F = (Σ_i sqrt(p_i q_i))².
// This is the fidelity definition the paper uses to compare ideal and
// observed outputs.
func Fidelity(p, q *Dist) float64 {
	if p.total == 0 || q.total == 0 {
		return 0
	}
	var s float64
	for i, v := range p.outcomes {
		if j, ok := slices.BinarySearch(q.outcomes, v); ok {
			s += math.Sqrt(p.counts[i] / p.total * q.counts[j] / q.total)
		}
	}
	return s * s
}

// Hellinger computes the Hellinger distance between two distributions:
// H = sqrt(1 - Σ sqrt(p_i q_i)), in [0, 1].
func Hellinger(p, q *Dist) float64 {
	bc := math.Sqrt(Fidelity(p, q))
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// HellingerVec computes the Hellinger distance between two probability
// vectors of equal length (used for Hamming-spectrum comparisons). Vectors
// are normalized internally; zero-mass vectors yield distance 1.
func HellingerVec(p, q []float64) float64 {
	var sp, sq float64
	for _, v := range p {
		sp += v
	}
	for _, v := range q {
		sq += v
	}
	if sp == 0 || sq == 0 {
		return 1
	}
	var bc float64
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		if p[i] > 0 && q[i] > 0 {
			bc += math.Sqrt(p[i] / sp * q[i] / sq)
		}
	}
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// TVD computes the total variation distance between two distributions.
func TVD(p, q *Dist) float64 {
	var s float64
	for _, v := range p.outcomes {
		s += math.Abs(p.Prob(v) - q.Prob(v))
	}
	for _, v := range q.outcomes {
		if _, ok := slices.BinarySearch(p.outcomes, v); !ok {
			s += q.Prob(v)
		}
	}
	return s / 2
}
