package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"sort"
	"testing"

	"policyoracle/internal/analysis"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/exceptions"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
	"policyoracle/internal/secmodel"
)

// corpusLibraries loads every library of the gen.Small and CryptoSmall
// corpora, each with the options that extract it under its domain.
func corpusLibraries(t *testing.T) (libs []*Library, sources []map[string]string, opts []Options) {
	t.Helper()
	for _, p := range []gen.Params{gen.Small(), gen.CryptoSmall()} {
		c := gen.Generate(p)
		dom, err := secmodel.ResolveDomain(c.Domain)
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions()
		o.Domain = dom
		names := make([]string, 0, len(c.Sources))
		for name := range c.Sources {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			libs = append(libs, loadTestLib(t, name, c.Sources[name]))
			sources = append(sources, c.Sources[name])
			opts = append(opts, o)
		}
	}
	return libs, sources, opts
}

// parsedASTs returns the set of ASTs a library's parse results hold.
func parsedASTs(l *Library) map[any]bool {
	set := map[any]bool{}
	for _, pf := range l.Parsed {
		set[pf.AST] = true
	}
	return set
}

// Reuse is only sound if nothing writes to an AST after its parse: the
// store hands one revision's ASTs to the next revision's types and IR.
// Every corpus library is extracted under five option sets that take
// different paths through lowering and ISPA, and analyzed for exceptions;
// afterwards every AST must still equal a fresh parse of its file,
// positions included.
func TestASTsUnchangedAfterParse(t *testing.T) {
	libs, sources, base := corpusLibraries(t)
	for i, lib := range libs {
		if len(lib.Parsed) != len(sources[i]) {
			t.Fatalf("%s: %d parse results for %d files", lib.Name, len(lib.Parsed), len(sources[i]))
		}
		broad, noICP, must, guards := base[i], base[i], base[i], base[i]
		broad.Events = secmodel.BroadEvents
		noICP.ICP = false
		must.Modes = []analysis.Mode{analysis.Must}
		guards.CollectGuards = true
		for _, o := range []Options{base[i], broad, noICP, must, guards} {
			lib.Extract(o)
		}
		exceptions.New(lib.Prog, lib.Resolver).Thrown()
		for _, pf := range lib.Parsed {
			fresh := parser.ParseFile(pf.Path, pf.Src, &lang.Diagnostics{})
			if !reflect.DeepEqual(pf.AST, fresh) {
				t.Errorf("%s: the AST of %s changed after its parse", lib.Name, pf.Path)
			}
		}
	}
}

// A revision that changes one file parses that file alone and loads to
// the library a cold load gives: the same parse results, line count,
// diagnostics (positions included), method hashes and policies.
func TestLoadRevisionParsesOnlyChangedFiles(t *testing.T) {
	// Warnings from types and lowering, which reused files must still
	// produce in place.
	const warnMJ = "package w;\nimport java.lang.*;\npublic class W extends Missing {\n  public void f() { y = 1; }\n}\n"
	srcs := gen.Generate(gen.Small()).Sources["jdk"]
	srcs["w/W.mj"] = warnMJ
	prev := loadTestLib(t, "jdk", srcs)
	if prev.Diags.Len() == 0 {
		t.Fatal("the probe file records no warning")
	}
	paths := sortedPaths(srcs)
	edited := maps.Clone(srcs)
	edited[paths[0]] += "\nclass EditProbe {\n  void g() { }\n}\n"

	rev, err := LoadRevision("jdk", edited, prev.Parsed)
	if err != nil {
		t.Fatal(err)
	}
	cold := loadTestLib(t, "jdk", edited)
	old := parsedASTs(prev)
	var parsed []string
	for _, pf := range rev.Parsed {
		if !old[pf.AST] {
			parsed = append(parsed, pf.Path)
		}
	}
	if !slices.Equal(parsed, paths[:1]) {
		t.Errorf("parsed %v, want only the edited %s", parsed, paths[0])
	}
	for i, pf := range rev.Parsed {
		c := cold.Parsed[i]
		if pf.Path != c.Path || pf.Src != c.Src || pf.NCLoC != c.NCLoC || !reflect.DeepEqual(pf.AST, c.AST) {
			t.Errorf("parse result of %s differs from a cold load's", pf.Path)
		}
	}
	if rev.NCLoC != cold.NCLoC || !reflect.DeepEqual(rev.Diags.All(), cold.Diags.All()) {
		t.Errorf("NCLoC %d, diagnostics %v; a cold load gives %d, %v", rev.NCLoC, rev.Diags.All(), cold.NCLoC, cold.Diags.All())
	}
	d := secmodel.SecurityManager()
	if !maps.Equal(MethodHashes(rev.Prog, rev.Resolver, d), MethodHashes(cold.Prog, cold.Resolver, d)) {
		t.Error("method hashes differ from a cold load's")
	}
	rev.Extract(DefaultOptions())
	cold.Extract(DefaultOptions())
	if !bytes.Equal(exportBytes(t, rev), exportBytes(t, cold)) {
		t.Error("policies differ from a cold load's")
	}

	// A changed file that fails to parse fails the load with a cold
	// load's error, however much of the revision is reused.
	edited[paths[1]] = "class {"
	_, err = LoadRevision("jdk", edited, rev.Parsed)
	_, coldErr := LoadLibrary("jdk", edited)
	if err == nil || coldErr == nil || err.Error() != coldErr.Error() {
		t.Errorf("load of a broken revision: %v; a cold load gives %v", err, coldErr)
	}
}

// The sidecar and `polora extract` snapshots are written without
// reflection; json.MarshalIndent stays the reference, over every library
// of both corpora.
func TestSnapshotEncodeMatchesMarshalIndent(t *testing.T) {
	libs, _, opts := corpusLibraries(t)
	for i, lib := range libs {
		lib.Extract(opts[i])
		snap, err := lib.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"snapshot", "sidecar"} {
			if kind == "sidecar" {
				snap.Policies = nil
			}
			got, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: Encode differs from json.MarshalIndent", lib.Name, kind)
			}
		}
	}
}

// SeedView is the in-memory twin of a snapshot restored from disk: it
// holds the same incremental state, and an incremental extraction seeded
// from either gives the same policies and stats.
func TestSeedViewMatchesRestoredSnapshot(t *testing.T) {
	opts := DefaultOptions()
	opts.CollectPaths = false // the wire format drops display data
	srcs := gen.Generate(gen.Small()).Sources["jdk"]
	lib := extractClean(t, "jdk", srcs, opts)
	data, err := lib.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ImportSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	view := lib.SeedView()
	if view.Prog != nil || view.ExtractedOpts != restored.ExtractedOpts || view.domain != restored.domain ||
		!reflect.DeepEqual(view.EntryDeps, restored.EntryDeps) || !maps.Equal(view.hashes(), restored.hashes()) ||
		!bytes.Equal(exportBytes(t, view), exportBytes(t, restored)) {
		t.Fatal("the seed view differs from the restored snapshot")
	}
	if (&Library{}).SeedView() != nil {
		t.Error("an unextracted library has a seed view")
	}

	paths := sortedPaths(srcs)
	edited := maps.Clone(srcs)
	edited[paths[len(paths)/2]] += "\nclass EditProbe { }\n"
	var blobs [][]byte
	var stats []IncrementalStats
	for _, prev := range []*Library{view, restored} {
		next := loadTestLib(t, "jdk", edited)
		st, err := ExtractIncrementalContext(context.Background(), prev, next, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Full {
			t.Fatalf("seed did not apply: %+v", st)
		}
		blobs = append(blobs, exportBytes(t, next))
		stats = append(stats, *st)
	}
	if !bytes.Equal(blobs[0], blobs[1]) || stats[0] != stats[1] {
		t.Errorf("seeded from memory: %+v; from disk: %+v; blobs equal: %v", stats[0], stats[1], bytes.Equal(blobs[0], blobs[1]))
	}
}

// sortedPaths returns a library's file paths in order.
func sortedPaths(srcs map[string]string) []string {
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}
