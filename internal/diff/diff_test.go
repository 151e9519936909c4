package diff

import (
	"strings"
	"testing"

	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

func check(t testing.TB, name string, arity int) secmodel.CheckID {
	t.Helper()
	id, ok := secmodel.SecurityManager().CheckByName(name, arity)
	if !ok {
		t.Fatalf("unknown check %s/%d", name, arity)
	}
	return id
}

// lib builds a ProgramPolicies from a compact spec:
// entry → event → (must, may, origins).
type evSpec struct {
	must, may policy.CheckSet
	origins   map[secmodel.CheckID]string
}

func lib(name string, entries map[string]map[secmodel.Event]evSpec) *policy.ProgramPolicies {
	pp := policy.NewProgramPolicies(name)
	for sig, events := range entries {
		ep := policy.NewEntryPolicy(sig)
		for ev, spec := range events {
			evp := ep.EventPolicyFor(ev)
			evp.Must = spec.must
			evp.May = spec.may
			for id, origin := range spec.origins {
				evp.AddOrigin(id, origin)
			}
		}
		pp.Entries[sig] = ep
	}
	return pp
}

func set(ids ...secmodel.CheckID) policy.CheckSet {
	var s policy.CheckSet
	for _, id := range ids {
		s = s.With(id)
	}
	return s
}

var ret = secmodel.ReturnEvent()

func TestIdenticalPoliciesNoDiff(t *testing.T) {
	c := check(t, "checkRead", 1)
	spec := map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {must: set(c), may: set(c), origins: map[secmodel.CheckID]string{c: "A.f()"}}},
		"A.g()": {ret: {}},
	}
	rep := Compare(lib("a", spec), lib("b", spec))
	if len(rep.Diffs) != 0 {
		t.Errorf("unexpected diffs: %v", rep.Diffs)
	}
	if rep.MatchingEntries != 2 {
		t.Errorf("matching = %d", rep.MatchingEntries)
	}
}

func TestCase2MissingPolicy(t *testing.T) {
	c := check(t, "checkWrite", 1)
	a := lib("a", map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {must: set(c), may: set(c), origins: map[secmodel.CheckID]string{c: "A.helper()"}}},
	})
	b := lib("b", map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {}},
	})
	rep := Compare(a, b)
	if len(rep.Diffs) != 1 {
		t.Fatalf("diffs = %v", rep.Diffs)
	}
	d := rep.Diffs[0]
	if d.Case != CaseMissingPolicy || d.MissingIn != "b" || d.DiffChecks != set(c) {
		t.Errorf("diff = %+v", d)
	}
	if !d.B.Present {
		// b's side is the empty one; Present marks the policy-less side.
		t.Log("ok: B side marked absent")
	} else {
		t.Error("B side should be marked absent")
	}
	if d.Category != Interprocedural {
		t.Errorf("category = %s (check originates in a helper)", d.Category)
	}
}

func TestCase3aCheckMismatch(t *testing.T) {
	cr := check(t, "checkRead", 1)
	cw := check(t, "checkWrite", 1)
	a := lib("a", map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {must: set(cr), may: set(cr), origins: map[secmodel.CheckID]string{cr: "A.f()"}}},
	})
	b := lib("b", map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {must: set(cw), may: set(cw), origins: map[secmodel.CheckID]string{cw: "A.f()"}}},
	})
	rep := Compare(a, b)
	if len(rep.Diffs) != 1 {
		t.Fatalf("diffs = %v", rep.Diffs)
	}
	d := rep.Diffs[0]
	if d.Case != CaseCheckMismatch {
		t.Errorf("case = %s", d.Case)
	}
	if d.MissingIn != "" {
		t.Errorf("both sides differ; MissingIn = %q", d.MissingIn)
	}
	if d.DiffChecks != set(cr, cw) {
		t.Errorf("diff checks = %s", d.DiffChecks.StringIn(secmodel.SecurityManager()))
	}
	if d.Category != Intraprocedural {
		t.Errorf("category = %s (both origins in the entry)", d.Category)
	}
}

func TestCase3bMustMay(t *testing.T) {
	c := check(t, "checkExit", 1)
	a := lib("a", map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {must: set(c), may: set(c), origins: map[secmodel.CheckID]string{c: "A.f()"}}},
	})
	b := lib("b", map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {must: policy.Empty, may: set(c), origins: map[secmodel.CheckID]string{c: "A.f()"}}},
	})
	rep := Compare(a, b)
	if len(rep.Diffs) != 1 {
		t.Fatalf("diffs = %v", rep.Diffs)
	}
	d := rep.Diffs[0]
	if d.Case != CaseMustMayMismatch || d.Category != MustMay {
		t.Errorf("diff = %+v", d)
	}
	if d.MissingIn != "b" {
		t.Errorf("missing in = %q (check is only MAY in b)", d.MissingIn)
	}
}

func TestEventsUniqueToOneImplementationIgnored(t *testing.T) {
	c := check(t, "checkRead", 1)
	natA := secmodel.Event{Kind: secmodel.NativeCall, Key: "readA/1"}
	natB := secmodel.Event{Kind: secmodel.NativeCall, Key: "readB/1"}
	a := lib("a", map[string]map[secmodel.Event]evSpec{
		"A.f()": {
			ret:  {must: set(c), may: set(c)},
			natA: {must: policy.Empty, may: policy.Empty},
		},
	})
	b := lib("b", map[string]map[secmodel.Event]evSpec{
		"A.f()": {
			ret:  {must: set(c), may: set(c)},
			natB: {must: set(c), may: set(c)},
		},
	})
	rep := Compare(a, b)
	if len(rep.Diffs) != 0 {
		t.Errorf("unique events should be ignored: %v", rep.Diffs)
	}
}

func TestEntriesUniqueToOneImplementationIgnored(t *testing.T) {
	c := check(t, "checkRead", 1)
	a := lib("a", map[string]map[secmodel.Event]evSpec{
		"A.onlyA()": {ret: {must: set(c), may: set(c)}},
	})
	b := lib("b", map[string]map[secmodel.Event]evSpec{
		"A.onlyB()": {ret: {}},
	})
	rep := Compare(a, b)
	if rep.MatchingEntries != 0 || len(rep.Diffs) != 0 {
		t.Errorf("rep = %+v", rep)
	}
}

func TestGroupingByRootCause(t *testing.T) {
	c := check(t, "checkLink", 1)
	mk := func(origin string) map[string]map[secmodel.Event]evSpec {
		out := map[string]map[secmodel.Event]evSpec{}
		for _, sig := range []string{"A.f()", "A.g()", "A.h()"} {
			out[sig] = map[secmodel.Event]evSpec{
				ret: {must: set(c), may: set(c), origins: map[secmodel.CheckID]string{c: origin}},
			}
		}
		return out
	}
	a := lib("a", mk("A.shared()"))
	bSpec := mk("")
	for _, sig := range []string{"A.f()", "A.g()", "A.h()"} {
		bSpec[sig] = map[secmodel.Event]evSpec{ret: {}}
	}
	b := lib("b", bSpec)
	rep := Compare(a, b)
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (shared root cause)", len(rep.Groups))
	}
	if rep.Groups[0].Manifestations() != 3 {
		t.Errorf("manifestations = %d", rep.Groups[0].Manifestations())
	}
	if rep.TotalManifestations() != 3 {
		t.Errorf("total = %d", rep.TotalManifestations())
	}
}

func TestMultipleEventsOneEntryOneManifestation(t *testing.T) {
	c := check(t, "checkRead", 1)
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "read0/1"}
	a := lib("a", map[string]map[secmodel.Event]evSpec{
		"A.f()": {
			ret: {must: set(c), may: set(c), origins: map[secmodel.CheckID]string{c: "A.f()"}},
			nat: {must: set(c), may: set(c), origins: map[secmodel.CheckID]string{c: "A.f()"}},
		},
	})
	// Give b a check on the same entry (a different one on both events) so
	// both sides "have policies" and case 3a fires per event with the SAME
	// differing check set — one root cause, two perturbed events.
	cw := check(t, "checkWrite", 1)
	a.Entries["A.f()"].EventPolicyFor(ret).May = set(c, cw)
	a.Entries["A.f()"].EventPolicyFor(ret).Must = set(c, cw)
	a.Entries["A.f()"].EventPolicyFor(ret).AddOrigin(cw, "A.f()")
	a.Entries["A.f()"].EventPolicyFor(nat).May = set(c, cw)
	a.Entries["A.f()"].EventPolicyFor(nat).Must = set(c, cw)
	a.Entries["A.f()"].EventPolicyFor(nat).AddOrigin(cw, "A.f()")
	b := lib("b", map[string]map[secmodel.Event]evSpec{
		"A.f()": {
			ret: {must: set(cw), may: set(cw), origins: map[secmodel.CheckID]string{cw: "A.f()"}},
			nat: {must: set(cw), may: set(cw), origins: map[secmodel.CheckID]string{cw: "A.f()"}},
		},
	})
	rep := Compare(a, b)
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1:\n%s", len(rep.Groups), rep)
	}
	if got := rep.Groups[0].Manifestations(); got != 1 {
		t.Errorf("manifestations = %d, want 1 (one entry, several events)", got)
	}
}

func TestReportString(t *testing.T) {
	c := check(t, "checkRead", 1)
	a := lib("a", map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {must: set(c), may: set(c), origins: map[secmodel.CheckID]string{c: "A.f()"}}},
	})
	b := lib("b", map[string]map[secmodel.Event]evSpec{
		"A.f()": {ret: {}},
	})
	out := Compare(a, b).String()
	for _, want := range []string{"a vs b", "missing-policy", "A.f()", "checkRead"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
