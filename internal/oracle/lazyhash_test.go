package oracle

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"policyoracle/internal/corpus"
)

// TestHashesOnFirstRead checks that extraction hashes methods only for a
// cache lookup, and that hashing later, on first read, changes nothing:
// a DefaultOptions extraction hashes nothing, its snapshot is byte-equal
// to that of an extraction that hashed eagerly for its summary cache,
// and an incremental extraction seeded from it is not a full one and
// re-analyzes the same entries as one seeded from the eager extraction.
func TestHashesOnFirstRead(t *testing.T) {
	eagerOpts := DefaultOptions()
	eagerOpts.Summaries = NewSummaryCache(0)
	for name, srcs := range map[string]map[string]string{
		"twoClass": twoClassSources(),
		"jdk":      corpus.JDKSources(),
	} {
		lazy := extractClean(t, name, srcs, DefaultOptions())
		if n := len(lazy.hashCache); n != 0 {
			t.Fatalf("%s: DefaultOptions extraction hashed under %d domains, want none", name, n)
		}
		eager := extractClean(t, name, srcs, eagerOpts)
		if n := len(eager.hashCache); n != 1 {
			t.Fatalf("%s: summary-cache extraction hashed under %d domains, want 1", name, n)
		}
		lazySnap, err := lazy.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		eagerSnap, err := eager.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lazySnap, eagerSnap) {
			t.Errorf("%s: snapshot hashed on first read differs from the eagerly hashed one", name)
		}
	}

	edited := twoClassSources()
	edited["b.mj"] = classBMJv2
	lazy := extractClean(t, "lib", twoClassSources(), DefaultOptions())
	eager := extractClean(t, "lib", twoClassSources(), eagerOpts)
	want := reanalyzedFrom(t, eager, edited)
	if len(want) != 1 {
		t.Fatalf("eagerly hashed seed re-analyzed %v, want only B.doB", want)
	}
	if got := reanalyzedFrom(t, lazy, edited); !slices.Equal(got, want) {
		t.Errorf("seeded from the lazily hashed extraction, re-analyzed %v; eager seed re-analyzed %v", got, want)
	}
}

// reanalyzedFrom extracts edited incrementally from prev and returns the
// sorted entries that went through the analyzers: those whose policy is
// not the one spliced from prev.
func reanalyzedFrom(t *testing.T, prev *Library, edited map[string]string) []string {
	t.Helper()
	lib, st, err := ExtractIncremental(prev, edited, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatal("incremental extraction fell back to a full one")
	}
	var out []string
	for sig, ep := range lib.Policies.Entries {
		if prev.Policies.Entries[sig] != ep {
			out = append(out, sig)
		}
	}
	sort.Strings(out)
	if len(out) != st.Reanalyzed {
		t.Fatalf("%d entries not spliced, stats say %d re-analyzed", len(out), st.Reanalyzed)
	}
	return out
}
