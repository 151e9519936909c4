package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mapSet is the reference model: the obviously-correct map-based set the
// bitset must agree with under every operation sequence.
type mapSet map[int]bool

func (m mapSet) intersect(o mapSet) mapSet {
	out := mapSet{}
	for k := range m {
		if o[k] {
			out[k] = true
		}
	}
	return out
}

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
	for k := range m {
		if !s.Has(k) {
			ok = false
		}
	}
	return ok
}

func TestPropertyIntersect(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		s, ms := fromElems(xs)
		o, mo := fromElems(ys)
		s.IntersectWith(o)
		return agree(s, ms.intersect(mo)) && agree(o, mo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyContains(t *testing.T) {
	f := func(xs []uint16, probe uint16) bool {
		s, m := fromElems(xs)
		return s.Has(int(probe%1024)) == m[int(probe%1024)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRemoveEqual(t *testing.T) {
	f := func(xs []uint16, kill []uint16) bool {
		s, m := fromElems(xs)
		if c, _ := fromElems(xs); !s.Equal(c) {
			return false
		}
		for _, k := range kill {
			i := int(k % 512)
			s.Remove(i)
			delete(m, i)
		}
		return agree(s, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEqualIgnoresTrailingZeros: a set that grew and was emptied again
// must equal a never-grown empty set.
func TestEqualIgnoresTrailingZeros(t *testing.T) {
	var a, b Set
	a.Add(300)
	a.Remove(300)
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("empty sets with different capacity compare unequal")
	}
	b.Add(3)
	a.Add(3)
	if !a.Equal(b) {
		t.Error("equal sets with different capacity compare unequal")
	}
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
		var other Set
		mo := mapSet{}
		for _, op := range ops {
			i := rng.Intn(512)
			switch op % 5 {
			case 0:
				s.Add(i)
				m[i] = true
			case 1:
				s.Remove(i)
				delete(m, i)
			case 2:
				other.Add(i)
				mo[i] = true
			case 3:
				s.IntersectWith(other)
				m = m.intersect(mo)
			case 4:
				s.Reset()
				m = mapSet{}
			}
			if !agree(s, m) {
				t.Fatalf("divergence after op %d (i=%d): bitset words=%x ref=%v", op%5, i, []uint64(s), m)
			}
		}
	})
}
