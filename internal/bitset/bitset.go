// Package bitset provides a dense []uint64 bit set used by the analysis
// hot path for dependency tracking and other id-indexed sets. Elements
// are small non-negative integers (method ids, check ids, event ids);
// all set operations run in O(words), not O(elements).
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

// Has reports whether i is in the set.
func (s Set) Has(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	return w < len(s) && s[w]&(1<<uint(i%wordBits)) != 0
}

// Remove deletes i from the set if present.
func (s Set) Remove(i int) {
	if i < 0 {
		return
	}
	w := i / wordBits
	if w < len(s) {
		s[w] &^= 1 << uint(i%wordBits)
	}
}

// IntersectWith removes from s every element not in t.
func (s Set) IntersectWith(t Set) {
	for w := range s {
		if w < len(t) {
			s[w] &= t[w]
		} else {
			s[w] = 0
		}
	}
}

// Len returns the number of elements in the set.
func (s Set) Len() int {
	n := 0
	for _, word := range s {
		n += bits.OnesCount64(word)
	}
	return n
}

// Equal reports whether s and t contain the same elements, ignoring
// trailing zero words.
func (s Set) Equal(t Set) bool {
	long, short := s, t
	if len(long) < len(short) {
		long, short = short, long
	}
	for w, word := range short {
		if long[w] != word {
			return false
		}
	}
	for _, word := range long[len(short):] {
		if word != 0 {
			return false
		}
	}
	return true
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
