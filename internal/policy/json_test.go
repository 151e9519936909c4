package policy

import (
	"errors"
	"strings"
	"testing"

	"policyoracle/internal/jsonread"
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
	// Only the exact name/arity spelling resolves; each of these once
	// imported as checkRead/1 and re-exported as different bytes.
	for _, tok := range []string{"checkRead/1x", "checkRead/+1", "checkRead/ 1", "checkRead/01", "checkRead/1 ", "checkRead/1/2"} {
		cases["non-canonical "+tok] = `{"library":"x","version":1,"entries":[
			{"entry":"A.f()","events":[{"kind":1,"must":[],"may":["` + tok + `"]}]}]}`
	}
	for name, src := range cases {
		if _, err := ImportJSON([]byte(src)); err == nil {
			t.Errorf("%s: import succeeded", name)
		}
	}
}

// TestImportRejectsRepeatedKeys pins the decoder's one narrowing of
// encoding/json: a known key named twice in one object, exactly or by
// case folding, is rejected with jsonread.ErrDuplicateKey at any level.
func TestImportRejectsRepeatedKeys(t *testing.T) {
	for _, src := range []string{
		`{"library":"x","library":"y","version":1,"entries":[]}`,
		`{"library":"x","Library":"y","version":1,"entries":[]}`,
		`{"library":"x","version":1,"entries":[],"entries":[]}`,
		`{"library":"x","version":1,"entries":[{"entry":"e","entry":"f"}]}`,
		`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"kind":1}]}]}`,
		`{"library":"x","version":1,"entries":[{"entry":"e","events":[{"kind":1,"origins":[
			{"check":"checkRead/1","methods":[],"methods":[]}]}]}]}`,
	} {
		if _, err := ImportJSON([]byte(src)); !errors.Is(err, jsonread.ErrDuplicateKey) {
			t.Errorf("ImportJSON(%s) = %v, want jsonread.ErrDuplicateKey", src, err)
		}
	}
	// Unknown keys may repeat: they are skipped.
	if _, err := ImportJSON([]byte(`{"x":1,"x":2,"library":"x","version":1,"entries":[]}`)); err != nil {
		t.Errorf("repeated unknown key: %v", err)
	}
}

// TestImportSurvivesHostileNesting feeds the decoder the shapes that
// would overflow a recursive parser's stack or run it off the end of
// the input. Each must be an ordinary error.
func TestImportSurvivesHostileNesting(t *testing.T) {
	deep := strings.Repeat("[", 1_000_000)
	for name, src := range map[string]string{
		"under an unknown key":   `{"library":"x","version":1,"x":` + deep,
		"under entries":          `{"library":"x","version":1,"entries":` + deep,
		"under events":           `{"library":"x","version":1,"entries":[{"entry":"e","events":` + deep,
		"objects under a key":    `{"x":` + strings.Repeat(`{"a":`, 1_000_000),
		"ends inside a string":   `{"library":"` + strings.Repeat("a", 4<<20),
		"ends inside an escape":  `{"library":"` + strings.Repeat("a", 4<<20) + `\`,
		"ends inside a skip":     `{"x":["` + strings.Repeat("a", 4<<20),
		"closes the wrong thing": `{"x":[` + strings.Repeat("[", 5000) + strings.Repeat("}", 5001),
	} {
		if _, err := ImportJSON([]byte(src)); err == nil {
			t.Errorf("%s: import succeeded", name)
		}
	}
}

// TestImportNestingLimit pins encoding/json's limit of 10,000 open
// containers: the top-level object plus 9,999 arrays decode, one more
// array does not, and the reference importer draws the line at the same
// place.
func TestImportNestingLimit(t *testing.T) {
	doc := func(arrays int) []byte {
		return []byte(`{"library":"x","version":1,"entries":[],"x":` +
			strings.Repeat("[", arrays) + strings.Repeat("]", arrays) + `}`)
	}
	for _, tc := range []struct {
		arrays int
		ok     bool
	}{{jsonread.MaxDepth - 1, true}, {jsonread.MaxDepth, false}} {
		_, err := ImportJSON(doc(tc.arrays))
		_, refErr := refImportJSON(doc(tc.arrays))
		if (err == nil) != tc.ok || (refErr == nil) != tc.ok {
			t.Errorf("%d nested arrays: ImportJSON error %v, reference error %v, want ok=%v", tc.arrays, err, refErr, tc.ok)
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
