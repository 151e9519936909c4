package policyoracle_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"policyoracle"
)

func TestBuiltinCorporaRoundtrip(t *testing.T) {
	names := policyoracle.BuiltinCorpora()
	if len(names) != 3 {
		t.Fatalf("corpora = %v", names)
	}
	for _, n := range names {
		srcs := policyoracle.BuiltinCorpus(n)
		if len(srcs) == 0 {
			t.Errorf("corpus %s empty", n)
		}
	}
	if policyoracle.BuiltinCorpus("nope") != nil {
		t.Error("unknown corpus should be nil")
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	opts := policyoracle.DefaultOptions()
	jdk, err := policyoracle.LoadLibrary("jdk", policyoracle.BuiltinCorpus("jdk"))
	if err != nil {
		t.Fatal(err)
	}
	harmony, err := policyoracle.LoadLibrary("harmony", policyoracle.BuiltinCorpus("harmony"))
	if err != nil {
		t.Fatal(err)
	}
	jdk.Extract(opts)
	harmony.Extract(opts)

	rep, err := policyoracle.Diff(jdk, harmony)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchingEntries == 0 || len(rep.Groups) == 0 {
		t.Fatalf("degenerate report: %s", rep)
	}
	// The Figure 1 vulnerability must be visible through the public API.
	dom, err := jdk.Policies.DomainModel()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range rep.Groups {
		if g.MissingIn == "harmony" && strings.Contains(g.DiffChecks.StringIn(dom), "checkAccept") {
			found = true
			if g.Case != policyoracle.CaseCheckMismatch {
				t.Errorf("case = %v", g.Case)
			}
		}
	}
	if !found {
		t.Error("Figure 1 difference not reported via public API")
	}
}

func TestLoadLibraryDir(t *testing.T) {
	dir := t.TempDir()
	for file, src := range policyoracle.BuiltinCorpus("classpath") {
		path := filepath.Join(dir, filepath.FromSlash(file))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lib, err := policyoracle.LoadLibraryDir("classpath", dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.EntryPoints()) == 0 {
		t.Error("no entry points loaded from directory")
	}

	if _, err := policyoracle.LoadLibraryDir("empty", t.TempDir()); err == nil {
		t.Error("expected error for directory without .mj files")
	}
}

func TestEventConstruction(t *testing.T) {
	ev := policyoracle.Event{Kind: policyoracle.NativeCall, Key: "connect0/2"}
	if ev.String() != "native:connect0/2" {
		t.Errorf("event = %q", ev)
	}
}
