package policy

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"policyoracle/internal/secmodel"
)

// sm is the domain the tests' check IDs index.
var sm = secmodel.SecurityManager()

// full is the set of every check of sm.
var full = CheckSet(1)<<uint(sm.NumChecks()) - 1

// mask keeps generated uint64s within the 31-check universe.
func mask(v uint64) CheckSet { return CheckSet(v) & full }

func TestCheckSetBasics(t *testing.T) {
	id, _ := sm.CheckByName("checkConnect", 2)
	id2, _ := sm.CheckByName("checkAccept", 2)
	s := Empty.With(id)
	if !s.Has(id) || s.Has(id2) {
		t.Errorf("With/Has wrong: %s", s.StringIn(sm))
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	s = s.With(id2)
	if got := s.IDs(); len(got) != 2 {
		t.Errorf("IDs = %v", got)
	}
	if s.Minus(Empty.With(id)) != Empty.With(id2) {
		t.Errorf("Minus wrong")
	}
}

func TestCheckSetStringSorted(t *testing.T) {
	a, _ := sm.CheckByName("checkWrite", 1)
	b, _ := sm.CheckByName("checkAccept", 2)
	s := Empty.With(a).With(b)
	if got := s.StringIn(sm); got != "{checkAccept, checkWrite}" {
		t.Errorf("StringIn = %q", got)
	}
	if got := Empty.StringIn(sm); got != "{}" {
		t.Errorf("empty = %q", got)
	}
}

// Property: union and intersection form a lattice on CheckSet.
func TestCheckSetLatticeLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Commutativity.
	if err := quick.Check(func(x, y uint64) bool {
		a, b := mask(x), mask(y)
		return a.Union(b) == b.Union(a) && a.Intersect(b) == b.Intersect(a)
	}, cfg); err != nil {
		t.Error(err)
	}
	// Associativity.
	if err := quick.Check(func(x, y, z uint64) bool {
		a, b, c := mask(x), mask(y), mask(z)
		return a.Union(b.Union(c)) == a.Union(b).Union(c) &&
			a.Intersect(b.Intersect(c)) == a.Intersect(b).Intersect(c)
	}, cfg); err != nil {
		t.Error(err)
	}
	// Absorption and idempotence.
	if err := quick.Check(func(x, y uint64) bool {
		a, b := mask(x), mask(y)
		return a.Union(a.Intersect(b)) == a &&
			a.Intersect(a.Union(b)) == a &&
			a.Union(a) == a && a.Intersect(a) == a
	}, cfg); err != nil {
		t.Error(err)
	}
	// Identity elements.
	if err := quick.Check(func(x uint64) bool {
		a := mask(x)
		return a.Union(Empty) == a && a.Intersect(full) == a
	}, cfg); err != nil {
		t.Error(err)
	}
	// Minus definition.
	if err := quick.Check(func(x, y uint64) bool {
		a, b := mask(x), mask(y)
		return a.Minus(b).Intersect(b) == Empty && a.Minus(b).Union(a.Intersect(b)) == a
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestCheckSetLenMatchesIDs(t *testing.T) {
	if err := quick.Check(func(x uint64) bool {
		a := mask(x)
		return a.Len() == len(a.IDs())
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomPathSets builds a normalized PathSets from raw values.
func randomPathSets(vals []uint64) PathSets {
	p := PathSets{}
	for _, v := range vals {
		p.Sets = append(p.Sets, mask(v))
	}
	if len(p.Sets) == 0 {
		p.Sets = []CheckSet{Empty}
	}
	return p.normalize()
}

func TestPathSetsJoinCommutativeAndIdempotent(t *testing.T) {
	gen := func(r *rand.Rand) PathSets {
		n := 1 + r.Intn(6)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = r.Uint64()
		}
		return randomPathSets(vals)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		p, q := gen(r), gen(r)
		if !p.Join(q).Equal(q.Join(p)) {
			t.Fatalf("join not commutative: %s vs %s", p.StringIn(sm), q.StringIn(sm))
		}
		if !p.Join(p).Equal(p) {
			t.Fatalf("join not idempotent: %s", p.StringIn(sm))
		}
	}
}

// flat returns the union of all of p's alternatives.
func flat(p PathSets) CheckSet {
	var u CheckSet
	for _, s := range p.Sets {
		u = u.Union(s)
	}
	return u
}

func TestPathSetsUnionConsistentWithJoin(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		p := randomPathSets([]uint64{r.Uint64(), r.Uint64()})
		q := randomPathSets([]uint64{r.Uint64(), r.Uint64(), r.Uint64()})
		// The flat union of a join equals the union of the flat unions.
		if flat(p.Join(q)) != flat(p).Union(flat(q)) {
			t.Fatalf("union mismatch: %s ⋈ %s", p.StringIn(sm), q.StringIn(sm))
		}
	}
}

func TestPathSetsAddCheckAddsToEveryAlternative(t *testing.T) {
	id, _ := sm.CheckByName("checkExit", 1)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := randomPathSets([]uint64{r.Uint64(), r.Uint64(), r.Uint64()})
		q := p.AddCheck(id)
		for _, s := range q.Sets {
			if !s.Has(id) {
				t.Fatalf("alternative %s missing added check in %s", s.StringIn(sm), q.StringIn(sm))
			}
		}
	}
}

func TestPathSetsCapCollapses(t *testing.T) {
	var vals []uint64
	for i := 0; i < PathCap+5; i++ {
		vals = append(vals, 1<<uint(i))
	}
	p := randomPathSets(vals)
	if !p.Overflow {
		t.Fatalf("expected overflow, got %s", p.StringIn(sm))
	}
	if len(p.Sets) != 1 {
		t.Fatalf("expected collapse to union, got %d sets", len(p.Sets))
	}
	want := Empty
	for _, v := range vals {
		want = want.Union(mask(v))
	}
	if p.Sets[0] != want {
		t.Fatalf("collapsed union = %s, want %s", p.Sets[0].StringIn(sm), want.StringIn(sm))
	}
}

func TestPathSetsCrossDistributes(t *testing.T) {
	a, _ := sm.CheckByName("checkRead", 1)
	b, _ := sm.CheckByName("checkWrite", 1)
	c, _ := sm.CheckByName("checkExit", 1)
	p := PathSets{Sets: []CheckSet{Empty.With(a), Empty.With(b)}}
	q := PathSets{Sets: []CheckSet{Empty.With(c)}}
	got := p.Cross(q)
	want := []CheckSet{Empty.With(a).With(c), Empty.With(b).With(c)}
	if len(got.Sets) != 2 || got.Sets[0] != want[0] && got.Sets[0] != want[1] {
		t.Errorf("cross = %s", got.StringIn(sm))
	}
}

func TestPathSetsKeyDistinguishes(t *testing.T) {
	a, _ := sm.CheckByName("checkRead", 1)
	p := PathSets{Sets: []CheckSet{Empty}}
	q := PathSets{Sets: []CheckSet{Empty.With(a)}}
	if p.Key() == q.Key() {
		t.Error("distinct path sets share a key")
	}
}

func TestEventPolicyOrigins(t *testing.T) {
	read, _ := sm.CheckByName("checkRead", 1)
	ep := NewEventPolicy(secmodel.ReturnEvent())
	ep.AddOrigin(read, "b.m()")
	ep.AddOrigin(read, "a.m()")
	ep.AddOrigin(read, "b.m()")
	got := ep.OriginsOf(read)
	if len(got) != 2 || got[0] != "a.m()" || got[1] != "b.m()" {
		t.Errorf("origins = %v", got)
	}
	got[0] = "z.m()" // a copy: callers cannot reorder a shared policy
	if again := ep.OriginsOf(read); again[0] != "a.m()" {
		t.Errorf("OriginsOf aliases the stored list: %v", again)
	}
}

func TestProgramPoliciesCounts(t *testing.T) {
	read, _ := sm.CheckByName("checkRead", 1)
	pp := NewProgramPolicies("lib")
	e1 := NewEntryPolicy("A.f()")
	e1.EventPolicyFor(secmodel.ReturnEvent()).May = Empty.With(read)
	e2 := NewEntryPolicy("A.g()")
	e2.EventPolicyFor(secmodel.ReturnEvent())
	pp.Entries["A.f()"] = e1
	pp.Entries["A.g()"] = e2
	if pp.CountPolicies() != 2 {
		t.Errorf("count = %d", pp.CountPolicies())
	}
	if pp.EntriesWithChecks() != 1 {
		t.Errorf("with checks = %d", pp.EntriesWithChecks())
	}
	if got := pp.SortedEntries(); !reflect.DeepEqual(got, []string{"A.f()", "A.g()"}) {
		t.Errorf("sorted = %v", got)
	}
}
