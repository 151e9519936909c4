// Package bitset provides a dense []uint64 bit set, which the analysis
// hot path uses to track each entry point's dependency set by method id.
// Elements are small non-negative integers; Len and Reset run in
// O(words), and ForEach in O(words + elements).
//
// The zero value is an empty set. Sets grow on Add; they never shrink,
// so a pooled set can be Reset and reused without reallocation.
package bitset

import "math/bits"

const wordBits = 64

// Set is a bit set over small non-negative integers.
type Set []uint64

// New returns a set with capacity for elements in [0, n).
func New(n int) Set {
	if n <= 0 {
		return nil
	}
	return make(Set, (n+wordBits-1)/wordBits)
}

// Add inserts i into the set, growing it if needed. i must be >= 0.
func (s *Set) Add(i int) {
	w := i / wordBits
	if w >= len(*s) {
		grown := make(Set, w+1)
		copy(grown, *s)
		*s = grown
	}
	(*s)[w] |= 1 << uint(i%wordBits)
}

// Len returns the number of elements in the set.
func (s Set) Len() int {
	n := 0
	for _, word := range s {
		n += bits.OnesCount64(word)
	}
	return n
}

// Reset clears the set in place, keeping its capacity.
func (s Set) Reset() {
	for w := range s {
		s[w] = 0
	}
}

// ForEach calls f for each element in ascending order.
func (s Set) ForEach(f func(i int)) {
	for w, word := range s {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			f(w*wordBits + b)
			word &= word - 1
		}
	}
}
