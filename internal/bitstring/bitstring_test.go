package bitstring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseFormatRoundTrip(t *testing.T) {
	cases := []struct {
		s    string
		v    BitString
		n    int
		fail bool
	}{
		{s: "0", v: 0, n: 1},
		{s: "1", v: 1, n: 1},
		{s: "10", v: 2, n: 2},
		{s: "01101", v: 13, n: 5},
		{s: "0000", v: 0, n: 4},
		{s: "1111", v: 15, n: 4},
		{s: "", fail: true},
		{s: "012", fail: true},
		{s: "abc", fail: true},
	}
	for _, c := range cases {
		v, n, err := Parse(c.s)
		if c.fail {
			if err == nil {
				t.Errorf("Parse(%q): expected error", c.s)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.s, err)
		}
		if v != c.v || n != c.n {
			t.Errorf("Parse(%q) = %d,%d want %d,%d", c.s, v, n, c.v, c.n)
		}
		if got := Format(v, n); got != c.s {
			t.Errorf("Format(%d,%d) = %q want %q", v, n, got, c.s)
		}
	}
}

func TestParseTooLong(t *testing.T) {
	s := make([]byte, MaxWidth+1)
	for i := range s {
		s[i] = '0'
	}
	if _, _, err := Parse(string(s)); err == nil {
		t.Fatal("expected error for overlong string")
	}
}

func TestParseFormatQuick(t *testing.T) {
	f := func(raw uint32) bool {
		v := BitString(raw)
		s := Format(v, 32)
		got, n, err := Parse(s)
		return err == nil && n == 32 && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitOps(t *testing.T) {
	var b BitString = 0b1010
	if b.Bit(0) != 0 || b.Bit(1) != 1 || b.Bit(3) != 1 {
		t.Errorf("Bit: got %d %d %d", b.Bit(0), b.Bit(1), b.Bit(3))
	}
	if got := b.FlipBit(2); got != 0b1110 {
		t.Errorf("FlipBit(2) = %b", got)
	}
	if b.Weight() != 2 {
		t.Errorf("Weight = %d", b.Weight())
	}
}

func TestHamming(t *testing.T) {
	cases := []struct {
		a, b BitString
		d    int
	}{
		{0, 0, 0},
		{0b1111, 0b0000, 4},
		{0b1010, 0b0101, 4},
		{0b1100, 0b1000, 1},
	}
	for _, c := range cases {
		if got := Hamming(c.a, c.b); got != c.d {
			t.Errorf("Hamming(%b,%b) = %d want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestHammingMetricProperties(t *testing.T) {
	// Symmetry and triangle inequality, the metric axioms the state graph
	// relies on.
	f := func(a, b, c uint16) bool {
		x, y, z := BitString(a), BitString(b), BitString(c)
		if Hamming(x, y) != Hamming(y, x) {
			return false
		}
		if Hamming(x, x) != 0 {
			return false
		}
		return Hamming(x, z) <= Hamming(x, y)+Hamming(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSphereSize(t *testing.T) {
	cases := []struct {
		n, d int
		want uint64
	}{
		{5, 0, 1}, {5, 1, 5}, {5, 2, 10}, {5, 5, 1},
		{10, 3, 120}, {15, 7, 6435}, {4, 5, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		if got := SphereSize(c.n, c.d); got != c.want {
			t.Errorf("SphereSize(%d,%d) = %d want %d", c.n, c.d, got, c.want)
		}
	}
}

func TestSphereSizeSymmetry(t *testing.T) {
	f := func(nRaw, dRaw uint8) bool {
		n := int(nRaw%30) + 1
		d := int(dRaw) % (n + 1)
		return SphereSize(n, d) == SphereSize(n, n-d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSphereSizeRowSum(t *testing.T) {
	// Σ_d C(n,d) == 2^n for small n: the spheres partition the hypercube.
	for n := 1; n <= 16; n++ {
		var sum uint64
		for d := 0; d <= n; d++ {
			sum += SphereSize(n, d)
		}
		if sum != uint64(1)<<uint(n) {
			t.Errorf("n=%d: sphere sizes sum to %d want %d", n, sum, uint64(1)<<uint(n))
		}
	}
}

func BenchmarkHamming(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]BitString, 1024)
	for i := range xs {
		xs[i] = BitString(r.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hamming(xs[i%1024], xs[(i+7)%1024])
	}
}
