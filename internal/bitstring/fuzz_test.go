package bitstring

import (
	"math"
	"slices"
	"testing"
)

// FuzzDistFromCounts hardens the untrusted boundary of the counts
// model: FromStringCounts consumes vendor result dictionaries
// ({"0101": 17, ...}), so arbitrary keys and counts must never panic,
// and any distribution it accepts must satisfy the Dist invariants the
// mitigation core leans on — strictly sorted positive-count outcomes, a
// total equal to the outcome sum, and a lossless string round trip.
func FuzzDistFromCounts(f *testing.F) {
	f.Add("0101", 17.0, "0110", 2.5)
	f.Add("0", 1.0, "1", 0.0)
	f.Add("0011", -3.0, "0011", 2.0)
	f.Add("01x1", 1.0, "", 1.0)
	f.Add("1111111111111111111111111111111111111111111111111111111111111111", 1.0, "0", 2.0)
	f.Add("10", math.NaN(), "01", math.Inf(1))
	f.Fuzz(func(t *testing.T, k1 string, c1 float64, k2 string, c2 float64) {
		counts := map[string]float64{k1: c1, k2: c2}
		d, err := FromStringCounts(counts)
		if err != nil {
			return // rejection is fine; panics are not
		}
		n := d.Width()
		if n <= 0 || n > 64 {
			t.Fatalf("accepted width %d outside (0, 64]", n)
		}
		outs := d.Outcomes()
		if len(outs) != d.Support() {
			t.Fatalf("Outcomes len %d != Support %d", len(outs), d.Support())
		}
		var sum float64
		for i, v := range outs {
			if i > 0 && outs[i-1] >= v {
				t.Fatalf("Outcomes not strictly sorted: %v", outs)
			}
			c := d.Count(v)
			if !(c > 0) {
				t.Fatalf("stored outcome %s has non-positive count %v", Format(v, n), c)
			}
			sum += c
		}
		if !approxEqual(sum, d.Total()) {
			t.Fatalf("Total %v != outcome sum %v", d.Total(), sum)
		}
		if d.Support() == 0 {
			return
		}
		back, err := FromStringCounts(d.StringCounts())
		if err != nil {
			t.Fatalf("round trip through StringCounts rejected: %v", err)
		}
		if back.Width() != n || back.Support() != d.Support() || !approxEqual(back.Total(), d.Total()) {
			t.Fatalf("round trip changed shape: width %d->%d support %d->%d total %v->%v",
				n, back.Width(), d.Support(), back.Support(), d.Total(), back.Total())
		}
	})
}

func approxEqual(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// FuzzDistOps drives the ordered Dist and the map-backed refDist
// through the same random Add sequences (negative and inexact counts
// included), then FromStringCounts, Marginal, Normalized and every
// statistic, and requires bit-identical counts, totals and results.
// Each op is three bytes: the outcome's low 8 bits, then 2 more outcome
// bits plus a flag picking p or q, then the count as int8/7.
func FuzzDistOps(f *testing.F) {
	f.Add(uint8(3), []byte{1, 0, 14, 5, 4, 200, 1, 0, 250, 7, 4, 3, 5, 0, 9}, uint16(0b0101), 0.5)
	f.Add(uint8(9), []byte{255, 3, 100, 0, 7, 20, 17, 2, 129, 255, 3, 156, 64, 1, 3}, uint16(0x8300), 3.0)
	f.Add(uint8(0), []byte{0, 0, 1, 1, 4, 1}, uint16(0x4001), -2.0)
	f.Fuzz(func(t *testing.T, width uint8, ops []byte, keepMask uint16, scale float64) {
		n := 1 + int(width%10)
		mask := BitString(1)<<uint(n) - 1
		p, q := NewDist(n), NewDist(n)
		rp, rq := newRefDist(n), newRefDist(n)
		strs := map[string]float64{}
		var center BitString
		for i := 0; i+2 < len(ops); i += 3 {
			v := (BitString(ops[i]) | BitString(ops[i+1]&3)<<8) & mask
			c := float64(int8(ops[i+2])) / 7
			if ops[i+1]&4 != 0 {
				q.Add(v, c)
				rq.Add(v, c)
			} else {
				p.Add(v, c)
				rp.Add(v, c)
			}
			strs[Format(v, n)] = c
			center ^= v
		}
		sameDist(t, "p", p, rp)
		sameDist(t, "q", q, rq)

		// Malformed keys on request, so the error paths are compared too.
		if keepMask&0x8000 != 0 {
			strs[Format(center, n+1)] = 1
		}
		if keepMask&0x4000 != 0 {
			strs[Format(center, n)] = math.NaN()
		}
		d, err := FromStringCounts(strs)
		rd, rerr := refFromStringCounts(strs)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("FromStringCounts error %v, reference %v", err, rerr)
		}
		if err == nil {
			sameDist(t, "FromStringCounts", d, rd)
		}

		var keep []int
		for b := 0; b < n; b++ {
			if keepMask&(1<<uint(b)) != 0 {
				keep = append(keep, b)
			}
		}
		if len(keep) > 0 {
			r := int(keepMask>>10) % len(keep)
			keep = append(keep[r:], keep[:r]...)
		}
		m, err := p.Marginal(keep)
		rm, rerr := rp.Marginal(keep)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Marginal(%v) error %v, reference %v", keep, err, rerr)
		}
		if err == nil {
			sameDist(t, "Marginal", m, rm)
		}
		sameDist(t, "Normalized", p.Normalized(scale), rp.Normalized(scale))

		sameFloat(t, "Fidelity(p, q)", Fidelity(p, q), refFidelity(rp, rq))
		sameFloat(t, "Fidelity(q, p)", Fidelity(q, p), refFidelity(rq, rp))
		sameFloat(t, "TVD(p, q)", TVD(p, q), refTVD(rp, rq))
		sameFloat(t, "TVD(q, p)", TVD(q, p), refTVD(rq, rp))
		center &= mask
		for _, pair := range []struct {
			d *Dist
			r *refDist
		}{{p, rp}, {q, rq}} {
			spec, rspec := pair.d.HammingSpectrum(center), pair.r.HammingSpectrum(center)
			for k := range rspec {
				sameFloat(t, "HammingSpectrum", spec[k], rspec[k])
			}
			sameFloat(t, "ExpectedHamming", pair.d.ExpectedHamming(center), pair.r.ExpectedHamming(center))
			sameFloat(t, "Entropy", pair.d.Entropy(), pair.r.Entropy())
			top, ok := pair.d.Top()
			rtop, rok := pair.r.Top()
			if top != rtop || ok != rok {
				t.Fatalf("Top = %v,%v, reference %v,%v", top, ok, rtop, rok)
			}
		}
	})
}

// sameDist fails unless d and r hold the same outcomes, ascending, with
// bit-identical counts and totals.
func sameDist(t *testing.T, what string, d *Dist, r *refDist) {
	t.Helper()
	if d.Width() != r.n {
		t.Fatalf("%s: width %d, reference %d", what, d.Width(), r.n)
	}
	want := r.Outcomes()
	if !slices.Equal(d.Outcomes(), want) {
		t.Fatalf("%s: outcomes %v, reference %v", what, d.Outcomes(), want)
	}
	i := 0
	d.Each(func(v BitString, c float64) {
		sameFloat(t, what+" count", c, r.counts[want[i]])
		sameFloat(t, what+" Count", d.Count(v), r.counts[v])
		i++
	})
	sameFloat(t, what+" total", d.Total(), r.total)
}

func sameFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}
