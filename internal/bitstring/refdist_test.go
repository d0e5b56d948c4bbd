package bitstring

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// refDist is the map-backed distribution Dist replaced, kept
// (renamed) as the differential oracle of FuzzDistOps: every count and
// total of the ordered Dist must match it bit for bit.
type refDist struct {
	n      int
	counts map[BitString]float64
	total  float64
}

func newRefDist(n int) *refDist {
	return &refDist{n: n, counts: make(map[BitString]float64)}
}

func refFromStringCounts(counts map[string]float64) (*refDist, error) {
	keys := make([]string, 0, len(counts))
	for s := range counts {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	var d *refDist
	for _, s := range keys {
		v, n, err := Parse(s)
		if err != nil {
			return nil, err
		}
		// Vendor dictionaries are untrusted input: a NaN or Inf count
		// would poison the running total and every probability derived
		// from it (found by FuzzDistFromCounts).
		if c := counts[s]; math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("bitstring: non-finite count %v for outcome %q", c, s)
		}
		if d == nil {
			d = newRefDist(n)
		} else if n != d.n {
			return nil, fmt.Errorf("bitstring: mixed widths %d and %d", d.n, n)
		}
		d.Add(v, counts[s])
	}
	if d == nil {
		return nil, fmt.Errorf("bitstring: empty counts")
	}
	return d, nil
}

func (d *refDist) Add(v BitString, c float64) {
	cur := d.counts[v]
	next := cur + c
	if next <= 0 {
		d.total -= cur
		delete(d.counts, v)
		return
	}
	d.total += next - cur
	d.counts[v] = next
}

func (d *refDist) Prob(v BitString) float64 {
	if d.total == 0 {
		return 0
	}
	return d.counts[v] / d.total
}

func (d *refDist) Outcomes() []BitString {
	out := make([]BitString, 0, len(d.counts))
	for v := range d.counts {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func (d *refDist) Top() (v BitString, ok bool) {
	var best BitString
	bestC := math.Inf(-1)
	for _, o := range d.Outcomes() {
		if c := d.counts[o]; c > bestC {
			best, bestC = o, c
		}
	}
	return best, len(d.counts) > 0
}

func (d *refDist) Normalized(total float64) *refDist {
	c := newRefDist(d.n)
	if d.total == 0 {
		return c
	}
	scale := total / d.total
	for k, v := range d.counts {
		c.counts[k] = v * scale
	}
	c.total = total
	return c
}

func (d *refDist) StringCounts() map[string]float64 {
	m := make(map[string]float64, len(d.counts))
	for k, v := range d.counts {
		m[Format(k, d.n)] = v
	}
	return m
}

func (d *refDist) Marginal(keep []int) (*refDist, error) {
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
	out := newRefDist(len(keep))
	for _, v := range d.Outcomes() {
		var m BitString
		for i, q := range keep {
			if v.Bit(q) == 1 {
				m |= 1 << uint(i)
			}
		}
		out.Add(m, d.counts[v])
	}
	return out, nil
}

func (d *refDist) HammingSpectrum(center BitString) []float64 {
	spec := make([]float64, d.n+1)
	if d.total == 0 {
		return spec
	}
	for _, v := range d.Outcomes() {
		spec[Hamming(v, center)] += d.counts[v] / d.total
	}
	return spec
}

func (d *refDist) ExpectedHamming(center BitString) float64 {
	if d.total == 0 {
		return 0
	}
	var s float64
	for _, v := range d.Outcomes() {
		s += float64(Hamming(v, center)) * d.counts[v]
	}
	return s / d.total
}

func (d *refDist) Entropy() float64 {
	if d.total == 0 {
		return 0
	}
	var h float64
	for _, v := range d.Outcomes() {
		p := d.counts[v] / d.total
		h -= p * math.Log2(p)
	}
	return h
}

func refFidelity(p, q *refDist) float64 {
	if p.total == 0 || q.total == 0 {
		return 0
	}
	var s float64
	for _, v := range p.Outcomes() {
		if qc, ok := q.counts[v]; ok {
			s += math.Sqrt(p.counts[v] / p.total * qc / q.total)
		}
	}
	return s * s
}

func refTVD(p, q *refDist) float64 {
	seen := make(map[BitString]bool, len(p.counts)+len(q.counts))
	var s float64
	for _, v := range p.Outcomes() {
		seen[v] = true
		s += math.Abs(p.Prob(v) - q.Prob(v))
	}
	for _, v := range q.Outcomes() {
		if !seen[v] {
			s += q.Prob(v)
		}
	}
	return s / 2
}
