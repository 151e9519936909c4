package policy

import (
	"strings"
	"testing"

	"policyoracle/internal/secmodel"
)

func samplePolicies(t *testing.T) *ProgramPolicies {
	t.Helper()
	read, _ := secmodel.SecurityManager().CheckByName("checkRead", 1)
	conn2, _ := secmodel.SecurityManager().CheckByName("checkConnect", 2)
	conn3, _ := secmodel.SecurityManager().CheckByName("checkConnect", 3)
	pp := NewProgramPolicies("vendor")
	ep := NewEntryPolicy("api.F.m(String)")
	ret := ep.EventPolicyFor(secmodel.ReturnEvent())
	ret.Must = Empty.With(read)
	ret.May = Empty.With(read).With(conn2).With(conn3)
	ret.AddOrigin(read, "api.F.helper()")
	ret.AddOrigin(conn2, "api.F.m(String)")
	nat := ep.EventPolicyFor(secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/1"})
	nat.Must = Empty
	nat.May = Empty.With(read)
	pp.Entries[ep.Entry] = ep
	pp.Entries["api.F.plain()"] = NewEntryPolicy("api.F.plain()")
	return pp
}

func TestExportImportRoundtrip(t *testing.T) {
	pp := samplePolicies(t)
	data, err := pp.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSON(data)
	if err != nil {
		t.Fatalf("import: %v\n%s", err, data)
	}
	if got.Library != "vendor" || len(got.Entries) != len(pp.Entries) {
		t.Fatalf("imported = %+v", got)
	}
	for sig, ep := range pp.Entries {
		gep := got.Entries[sig]
		if gep == nil {
			t.Fatalf("entry %s missing", sig)
		}
		for ev, evp := range ep.Events {
			gevp := gep.Events[ev]
			if gevp == nil {
				t.Fatalf("%s: event %s missing", sig, ev)
			}
			if gevp.Must != evp.Must || gevp.May != evp.May {
				t.Errorf("%s/%s: must/may differ: %s/%s vs %s/%s",
					sig, ev, gevp.Must.StringIn(sm), gevp.May.StringIn(sm), evp.Must.StringIn(sm), evp.May.StringIn(sm))
			}
		}
	}
	// Origins survive: the root-cause grouping of diff reports depends on
	// them even for imported policies.
	read, _ := secmodel.SecurityManager().CheckByName("checkRead", 1)
	gep := got.Entries["api.F.m(String)"]
	origins := gep.Events[secmodel.ReturnEvent()].OriginsOf(read)
	if len(origins) != 1 || origins[0] != "api.F.helper()" {
		t.Errorf("origins = %v", origins)
	}
}

func TestImportRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"bad version":     `{"library":"x","version":99,"entries":[]}`,
		"missing library": `{"version":1,"entries":[]}`,
		"unknown check": `{"library":"x","version":1,"entries":[
			{"entry":"A.f()","events":[{"kind":1,"must":["checkBogus/1"],"may":[]}]}]}`,
		"missing arity": `{"library":"x","version":1,"entries":[
			{"entry":"A.f()","events":[{"kind":1,"must":["checkRead"],"may":[]}]}]}`,
		// A token already resolved once must not vouch for a different
		// spelling of the same check later in the document.
		"valid then missing arity": `{"library":"x","version":1,"entries":[
			{"entry":"A.f()","events":[{"kind":1,"must":["checkRead/1"],"may":["checkRead"]}]}]}`,
		"valid then bad arity": `{"library":"x","version":1,"entries":[
			{"entry":"A.f()","events":[{"kind":1,"must":["checkRead/1"],"may":["checkRead/x"]}]}]}`,
		"valid then unknown arity in origins": `{"library":"x","version":1,"entries":[
			{"entry":"A.f()","events":[{"kind":1,"must":["checkRead/1"],"may":["checkRead/1"],
			 "origins":[{"check":"checkRead/9","methods":["A.f()"]}]}]}]}`,
	}
	for name, src := range cases {
		if _, err := ImportJSON([]byte(src)); err == nil {
			t.Errorf("%s: import succeeded", name)
		}
	}
}

func TestWireDistinguishesOverloads(t *testing.T) {
	conn2, _ := secmodel.SecurityManager().CheckByName("checkConnect", 2)
	conn3, _ := secmodel.SecurityManager().CheckByName("checkConnect", 3)
	w2, err2 := checkToWire(secmodel.SecurityManager(), conn2)
	w3, err3 := checkToWire(secmodel.SecurityManager(), conn3)
	if err2 != nil || err3 != nil {
		t.Fatalf("checkToWire errors: %v, %v", err2, err3)
	}
	if w2 == w3 {
		t.Fatalf("overloads collide on the wire: %q", w2)
	}
	if !strings.HasPrefix(w2, "checkConnect/") {
		t.Errorf("wire form = %q", w2)
	}
	r2, err := checkFromWire(secmodel.SecurityManager(), w2)
	if err != nil || r2 != conn2 {
		t.Errorf("roundtrip = %v, %v", r2, err)
	}
	r3, err := checkFromWire(secmodel.SecurityManager(), w3)
	if err != nil || r3 != conn3 {
		t.Errorf("roundtrip = %v, %v", r3, err)
	}
}

// TestWireRoundTripAllChecks exports and re-imports every registered
// check: the wire arity comes from the secmodel table, so no check may
// serialize to a form the importer rejects.
func TestWireRoundTripAllChecks(t *testing.T) {
	for id := secmodel.CheckID(0); int(id) < secmodel.SecurityManager().NumChecks(); id++ {
		w, err := checkToWire(secmodel.SecurityManager(), id)
		if err != nil {
			t.Fatalf("check %s (id %d): export: %v", secmodel.SecurityManager().CheckName(id), id, err)
		}
		got, err := checkFromWire(secmodel.SecurityManager(), w)
		if err != nil {
			t.Fatalf("check %s (wire %q): import: %v", secmodel.SecurityManager().CheckName(id), w, err)
		}
		if got != id {
			t.Errorf("check %s: round-trip = id %d, want %d", w, got, id)
		}
	}
}

// TestWireRejectsUnknownCheckID: an ID outside the security model must
// fail at export time, not silently emit "name/-1" for re-import to trip
// over.
func TestWireRejectsUnknownCheckID(t *testing.T) {
	for _, id := range []secmodel.CheckID{-1, secmodel.CheckID(secmodel.SecurityManager().NumChecks()), 999} {
		if w, err := checkToWire(secmodel.SecurityManager(), id); err == nil {
			t.Errorf("checkToWire(secmodel.SecurityManager(), %d) = %q, want error", id, w)
		}
	}
}
