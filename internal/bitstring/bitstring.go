// Package bitstring provides bit-string values, measurement-count
// distributions, and Hamming-spectrum utilities used throughout Q-BEEP.
//
// A bit-string is a measurement outcome of an n-qubit circuit, stored as the
// integer whose bit i is the measured value of qubit i (qubit 0 is the
// least-significant bit). The textual form renders qubit n-1 first, matching
// the convention used by IBMQ result dictionaries.
package bitstring

import (
	"fmt"
	"math/bits"
	"unicode/utf8"
)

// BitString is an n-qubit measurement outcome. The width is carried
// separately (see Dist and the helpers below) because leading zeros matter
// when rendering and when enumerating Hamming spheres.
type BitString uint64

// MaxWidth is the largest supported register width. Dense enumeration of a
// Hamming sphere is combinatorial, not exponential, so the cap exists only to
// keep BitString inside uint64.
const MaxWidth = 64

// Parse converts a textual bit-string such as "01101" into its value. The
// leftmost character is the most-significant qubit. It returns the value and
// the width.
func Parse(s string) (BitString, int, error) {
	if len(s) == 0 {
		return 0, 0, fmt.Errorf("bitstring: empty string")
	}
	if len(s) > MaxWidth {
		return 0, 0, fmt.Errorf("bitstring: %q longer than %d bits", s, MaxWidth)
	}
	var v BitString
	for i := 0; i < len(s); i++ {
		if c := s[i] - '0'; c <= 1 {
			v = v<<1 | BitString(c)
			continue
		}
		c, _ := utf8.DecodeRuneInString(s[i:])
		return 0, 0, fmt.Errorf("bitstring: invalid character %q in %q", c, s)
	}
	return v, len(s), nil
}

// Format renders v as a width-n binary string, most-significant qubit first.
func Format(v BitString, n int) string {
	b := make([]byte, n)
	putBits(b, v)
	return string(b)
}

// putBits renders v into dst as a len(dst)-bit binary string,
// most-significant qubit first.
func putBits(dst []byte, v BitString) {
	for i := range dst {
		dst[i] = '0' + byte(v>>uint(len(dst)-1-i)&1)
	}
}

// Bit reports the value of qubit i (0 or 1).
func (b BitString) Bit(i int) int {
	return int(b>>uint(i)) & 1
}

// SetBit returns b with qubit i set to val (0 or 1).
func (b BitString) SetBit(i, val int) BitString {
	if val == 0 {
		return b &^ (1 << uint(i))
	}
	return b | (1 << uint(i))
}

// FlipBit returns b with qubit i flipped.
func (b BitString) FlipBit(i int) BitString {
	return b ^ (1 << uint(i))
}

// Weight is the Hamming weight (number of set bits).
//
//qbeep:mustinline
//qbeep:allocfree
func (b BitString) Weight() int {
	return bits.OnesCount64(uint64(b))
}

// Hamming returns the Hamming distance between a and b. It is the
// innermost comparison of the edge scan, so it must stay inlinable and
// allocation-free.
//
//qbeep:mustinline
//qbeep:allocfree
func Hamming(a, b BitString) int {
	return bits.OnesCount64(uint64(a ^ b))
}

// Sphere enumerates all bit-strings of width n at Hamming distance exactly d
// from center, calling fn for each. Enumeration order is deterministic
// (lexicographic in the flipped-bit index sets). It stops early if fn
// returns false.
//
// The count of visited strings is C(n, d); callers that need only nearby
// shells keep d small, which is what makes Q-BEEP's state-graph edge
// generation tractable.
func Sphere(center BitString, n, d int, fn func(BitString) bool) {
	if d < 0 || d > n {
		return
	}
	if d == 0 {
		fn(center)
		return
	}
	// Iterative enumeration of d-combinations of [0, n).
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	for {
		v := center
		for _, i := range idx {
			v ^= 1 << uint(i)
		}
		if !fn(v) {
			return
		}
		// Advance combination.
		j := d - 1
		for j >= 0 && idx[j] == n-d+j {
			j--
		}
		if j < 0 {
			return
		}
		idx[j]++
		for k := j + 1; k < d; k++ {
			idx[k] = idx[k-1] + 1
		}
	}
}

// SphereSize returns C(n, d), the number of strings at distance d in an
// n-qubit register, saturating at the maximum uint64 on overflow.
func SphereSize(n, d int) uint64 {
	if d < 0 || d > n {
		return 0
	}
	if d > n-d {
		d = n - d
	}
	var c uint64 = 1
	for i := 0; i < d; i++ {
		hi, lo := bits.Mul64(c, uint64(n-i))
		if hi != 0 {
			return ^uint64(0)
		}
		c = lo / uint64(i+1)
	}
	return c
}
