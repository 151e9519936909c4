package oracle

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"policyoracle/internal/diff"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/telemetry"
)

// Two single-entry classes whose policies are independent: editing one
// must not force the other through the analyzer again.
const classAMJ = `
package api;
import java.lang.*;
public class A {
  private SecurityManager sm;
  public void doA(String k) {
    sm.checkRead(k);
    a0(k);
  }
  native void a0(String k);
}
`

const classBMJ = `
package api;
import java.lang.*;
public class B {
  private SecurityManager sm;
  public void doB(String k) {
    sm.checkWrite(k);
    b0(k);
  }
  native void b0(String k);
}
`

// classBMJv2 drops doB's check — a semantic edit confined to B.doB.
const classBMJv2 = `
package api;
import java.lang.*;
public class B {
  private SecurityManager sm;
  public void doB(String k) {
    b0(k);
  }
  native void b0(String k);
}
`

func twoClassSources() map[string]string {
	return map[string]string{"rt.mj": runtimeMJ, "a.mj": classAMJ, "b.mj": classBMJ}
}

func extractClean(t *testing.T, name string, srcs map[string]string, opts Options) *Library {
	t.Helper()
	l := loadTestLib(t, name, srcs)
	l.Extract(opts)
	return l
}

func exportBytes(t *testing.T, l *Library) []byte {
	t.Helper()
	data, err := l.Policies.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// diffJSON renders a comparison in the polora diff -json wire form, the
// second surface the incremental guarantee covers.
func diffJSON(t *testing.T, a, b *Library) []byte {
	t.Helper()
	rep := diff.Compare(a.Policies, b.Policies)
	data, err := json.Marshal(rep.ToJSON())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestIncrementalNoChangeReusesEverything(t *testing.T) {
	srcs := twoClassSources()
	prev := extractClean(t, "lib", srcs, DefaultOptions())
	want := exportBytes(t, prev)

	opts := DefaultOptions()
	opts.Telemetry = telemetry.NewExtractMetrics(telemetry.New())
	lib, st, err := ExtractIncremental(prev, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatal("identical options fell back to a full extraction")
	}
	if st.Reanalyzed != 0 || st.Reused != st.Entries || st.Entries == 0 {
		t.Errorf("stats = %+v, want everything reused", st)
	}
	if st.ChangedMethods != 0 {
		t.Errorf("ChangedMethods = %d on untouched sources", st.ChangedMethods)
	}
	if got := exportBytes(t, lib); !bytes.Equal(got, want) {
		t.Error("no-change incremental export differs from the original")
	}
	// The analyzer never ran: per-mode entry counters stay zero while the
	// incremental instruments record the splices.
	tm := opts.Telemetry
	if n := tm.EntryPoints.With("may", secmodel.DefaultDomainID).Value(); n != 0 {
		t.Errorf("may entry-point counter = %v after pure splice", n)
	}
	if n := tm.IncrementalReused.Value(); n != float64(st.Entries) {
		t.Errorf("reused counter = %v, want %d", n, st.Entries)
	}
	if n := tm.IncrementalReanalyzed.Value(); n != 0 {
		t.Errorf("reanalyzed counter = %v, want 0", n)
	}
	if n := tm.IncrementalHashed.Value(); n != float64(st.HashedMethods) {
		t.Errorf("hash counter = %v, want %d", n, st.HashedMethods)
	}
	if n := tm.DepSetSize.Count(); n != float64(st.Entries) {
		t.Errorf("dep-set samples = %v, want one per entry (%d)", n, st.Entries)
	}
}

// TestIncrementalSingleMethodEdit is the acceptance check: after editing
// one method, only the entry points depending on it go through the
// analyzer, and the spliced result is byte-identical to a from-scratch
// extraction of the edited sources — in the export wire format and in
// diff reports from both directions.
func TestIncrementalSingleMethodEdit(t *testing.T) {
	base := twoClassSources()
	prev := extractClean(t, "lib", base, DefaultOptions())

	edited := twoClassSources()
	edited["b.mj"] = classBMJv2

	opts := DefaultOptions()
	opts.Telemetry = telemetry.NewExtractMetrics(telemetry.New())
	inc, st, err := ExtractIncremental(prev, edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatal("unexpected full fallback")
	}
	// 4 entries: A.doA, B.doB, and the two SecurityManager checks. Only
	// B.doB saw its dependency set change.
	if st.Entries != 4 || st.Reanalyzed != 1 || st.Reused != 3 {
		t.Errorf("stats = %+v, want 1 of 4 re-analyzed", st)
	}
	if st.ChangedMethods != 1 {
		t.Errorf("ChangedMethods = %d, want 1 (B.doB)", st.ChangedMethods)
	}
	for _, mode := range []string{"may", "must"} {
		if n := opts.Telemetry.EntryPoints.With(mode, secmodel.DefaultDomainID).Value(); n != float64(st.Reanalyzed) {
			t.Errorf("analyzer ran %v %s entries, want exactly the re-analyzed %d", n, mode, st.Reanalyzed)
		}
	}

	clean := extractClean(t, "lib", edited, DefaultOptions())
	if !bytes.Equal(exportBytes(t, inc), exportBytes(t, clean)) {
		t.Error("incremental export differs from from-scratch export")
	}
	if !bytes.Equal(diffJSON(t, clean, prev), diffJSON(t, inc, prev)) {
		t.Error("diff -json vs the base differs between incremental and clean")
	}
	if !bytes.Equal(diffJSON(t, prev, clean), diffJSON(t, prev, inc)) {
		t.Error("reversed diff -json differs between incremental and clean")
	}
	// The edit dropped a check, so the diff against the base must see it.
	if rep := diff.Compare(prev.Policies, inc.Policies); len(rep.Diffs) == 0 {
		t.Error("semantic edit produced no differences against the base")
	}

	// When opts.Summaries already holds the edited library, extracted
	// under another name, the changed entry is spliced from it: the
	// analyzers run nothing, and the stats report what they ran.
	opts.Summaries = NewSummaryCache(0)
	extractClean(t, "fork", edited, opts)
	opts.Telemetry = telemetry.NewExtractMetrics(telemetry.New())
	cached, st, err := ExtractIncremental(prev, edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"may", "must"} {
		if n := opts.Telemetry.EntryPoints.With(mode, secmodel.DefaultDomainID).Value(); n != float64(st.Reanalyzed) {
			t.Errorf("with a warm summary cache the analyzer ran %v %s entries, stats say %d", n, mode, st.Reanalyzed)
		}
	}
	if st.Reanalyzed != 0 || st.Reused != st.Entries {
		t.Errorf("stats = %+v, want every entry reused", st)
	}
	if !bytes.Equal(exportBytes(t, cached), exportBytes(t, clean)) {
		t.Error("summary-cache-spliced export differs from from-scratch export")
	}
}

// A snapshot can lack an entry's dependency set. Such an entry has
// nothing to validate a splice against, so it is re-analyzed even though
// prev holds a policy for it.
func TestIncrementalEntryWithoutDepsIsReanalyzed(t *testing.T) {
	prev := extractClean(t, "lib", twoClassSources(), DefaultOptions())
	delete(prev.EntryDeps, "api.B.doB(String)")

	edited := twoClassSources()
	edited["b.mj"] = classBMJv2
	inc, st, err := ExtractIncremental(prev, edited, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Full || st.Reanalyzed != 1 || st.Reused != 3 {
		t.Errorf("stats = %+v, want 1 of 4 re-analyzed incrementally", st)
	}
	clean := extractClean(t, "lib", edited, DefaultOptions())
	if !bytes.Equal(exportBytes(t, inc), exportBytes(t, clean)) {
		t.Error("an entry without dependencies was spliced from the stale revision")
	}
}

func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	// Snapshots persist wire-format policies, so the extractions on both
	// sides of the round trip run without display collection.
	opts := DefaultOptions()
	opts.CollectPaths, opts.CollectGuards = false, false

	srcs := twoClassSources()
	prev := extractClean(t, "lib", srcs, opts)
	snap, err := prev.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	seed, err := ImportSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Prog != nil {
		t.Error("imported snapshot carries a program")
	}

	edited := twoClassSources()
	edited["b.mj"] = classBMJv2
	inc, st, err := ExtractIncremental(seed, edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatal("snapshot seed fell back to a full extraction (option key mismatch)")
	}
	if st.Reanalyzed != 1 || st.Reused != 3 {
		t.Errorf("stats = %+v, want 1 of 4 re-analyzed", st)
	}
	clean := extractClean(t, "lib", edited, opts)
	if !bytes.Equal(exportBytes(t, inc), exportBytes(t, clean)) {
		t.Error("snapshot-seeded export differs from from-scratch export")
	}
	// The incremental result snapshots again, so chains of edits keep
	// seeding from the latest extraction.
	if _, err := inc.ExportSnapshot(); err != nil {
		t.Errorf("re-snapshot of incremental result: %v", err)
	}
}

func TestIncrementalOptionMismatchFallsBack(t *testing.T) {
	srcs := twoClassSources()
	prev := extractClean(t, "lib", srcs, DefaultOptions())

	opts := DefaultOptions()
	opts.ICP = false // different canonical options: prev proves nothing
	lib, st, err := ExtractIncremental(prev, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatal("option mismatch did not fall back to a full extraction")
	}
	if st.Reanalyzed != st.Entries || st.Reused != 0 {
		t.Errorf("full fallback stats = %+v", st)
	}
	clean := extractClean(t, "lib", srcs, opts)
	if !bytes.Equal(exportBytes(t, lib), exportBytes(t, clean)) {
		t.Error("fallback export differs from a clean extraction under the new options")
	}
}

func TestIncrementalRequiresPreviousPolicies(t *testing.T) {
	srcs := twoClassSources()
	if _, _, err := ExtractIncremental(nil, srcs, DefaultOptions()); !errors.Is(err, ErrNoPrevious) {
		t.Errorf("nil prev: err = %v, want ErrNoPrevious", err)
	}
	unextracted := loadTestLib(t, "lib", srcs)
	if _, _, err := ExtractIncremental(unextracted, srcs, DefaultOptions()); !errors.Is(err, ErrNoPrevious) {
		t.Errorf("unextracted prev: err = %v, want ErrNoPrevious", err)
	}
}

func TestSnapshotValidation(t *testing.T) {
	srcs := twoClassSources()
	unextracted := loadTestLib(t, "lib", srcs)
	if _, err := unextracted.Snapshot(); !errors.Is(err, ErrNotExtracted) {
		t.Errorf("snapshot of unextracted library: err = %v, want ErrNotExtracted", err)
	}

	if _, err := DecodeSnapshot([]byte(`{"version": 99, "library": "x"}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	if _, err := DecodeSnapshot([]byte(`{"version": 1}`)); err == nil {
		t.Error("snapshot without a library name accepted")
	}
	if _, err := (&Snapshot{Version: 1, Library: "x"}).ToLibrary(); err == nil {
		t.Error("snapshot without a policy blob accepted")
	}

	// A blob whose embedded library name disagrees with the envelope is
	// rejected rather than silently renamed.
	lib := extractClean(t, "lib", srcs, DefaultOptions())
	blob := exportBytes(t, lib)
	s := &Snapshot{Version: 1, Library: "other", Policies: blob}
	if _, err := s.ToLibrary(); err == nil || !strings.Contains(err.Error(), "other") {
		t.Errorf("name mismatch accepted: %v", err)
	}
}

// TestMethodHashesTrackEdits pins the hash layer itself: stable across
// independent loads of identical sources, and perturbed exactly at the
// edited method.
func TestMethodHashesTrackEdits(t *testing.T) {
	srcs := twoClassSources()
	a := loadTestLib(t, "lib", srcs)
	b := loadTestLib(t, "lib", srcs)
	ha := MethodHashes(a.Prog, a.Resolver, secmodel.SecurityManager())
	hb := MethodHashes(b.Prog, b.Resolver, secmodel.SecurityManager())
	if len(ha) == 0 {
		t.Fatal("no methods hashed")
	}
	for sig, h := range ha {
		if hb[sig] != h {
			t.Errorf("hash of %s unstable across loads", sig)
		}
	}

	edited := twoClassSources()
	edited["b.mj"] = classBMJv2
	c := loadTestLib(t, "lib", edited)
	hc := MethodHashes(c.Prog, c.Resolver, secmodel.SecurityManager())
	for sig, h := range ha {
		changed := hc[sig] != h
		if sig == "api.B.doB(String)" && !changed {
			t.Error("edited method kept its hash")
		}
		if sig != "api.B.doB(String)" && changed {
			t.Errorf("untouched method %s changed hash", sig)
		}
	}
}
