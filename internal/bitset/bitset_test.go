package bitset

import (
	"math/rand"
	"testing"
)

// mapSet is the reference model: the obviously-correct map-based set the
// bitset must agree with under every operation sequence.
type mapSet map[int]bool

func fromElems(elems []uint16) (Set, mapSet) {
	var s Set
	m := mapSet{}
	for _, e := range elems {
		i := int(e % 512)
		s.Add(i)
		m[i] = true
	}
	return s, m
}

// agree reports whether s holds exactly m's elements: as many, and each
// one ForEach visits in m.
func agree(s Set, m mapSet) bool {
	if s.Len() != len(m) {
		return false
	}
	ok := true
	s.ForEach(func(i int) {
		if !m[i] {
			ok = false
		}
	})
	return ok
}

func TestForEachAscending(t *testing.T) {
	var s Set
	want := []int{0, 1, 63, 64, 65, 200, 511}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

// FuzzSetOps drives a random operation sequence over one bitset and the
// map reference, checking full agreement after every step.
func FuzzSetOps(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(42), []byte{255, 254, 7, 7, 7})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		m := mapSet{}
		for _, op := range ops {
			i := rng.Intn(512)
			// One op in four resets, so sets grow to several elements.
			reset := op%4 == 3
			if reset {
				s.Reset()
				m = mapSet{}
			} else {
				s.Add(i)
				m[i] = true
			}
			if !agree(s, m) {
				t.Fatalf("divergence after op %d (reset %t, i=%d): bitset words=%x ref=%v", op, reset, i, []uint64(s), m)
			}
		}
	})
}
