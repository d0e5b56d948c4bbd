package bitstring

import (
	"math/rand"
	"testing"
)

// BenchmarkDistConvert times the count-conversion layer on a full-support
// 1024-outcome n = 10 distribution: the vendor-dictionary parse, the
// render back to strings and an 8-of-10-qubit marginal. Run with
// -benchmem; the allocation counts are part of the measurement.
func BenchmarkDistConvert(b *testing.B) {
	const n = 10
	r := rand.New(rand.NewSource(1))
	strs := make(map[string]float64, 1<<n)
	for v := 0; v < 1<<n; v++ {
		strs[Format(BitString(v), n)] = float64(1 + r.Intn(100))
	}
	d, err := FromStringCounts(strs)
	if err != nil {
		b.Fatal(err)
	}
	keep := []int{9, 7, 5, 3, 1, 0, 2, 4}
	b.Run("FromStringCounts", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FromStringCounts(strs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("StringCounts", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = d.StringCounts()
		}
	})
	b.Run("Marginal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.Marginal(keep); err != nil {
				b.Fatal(err)
			}
		}
	})
}
