package oracle_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"policyoracle/internal/callgraph"
	"policyoracle/internal/corpus"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/ir"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/types"
)

// Method hashes are persisted: store sidecars and polora extract
// snapshots carry them, and a later incremental extraction trusts them.
// So the allocation-free MethodHashes must render exactly the text the
// fmt-based hasher below rendered, and every digest must be unchanged.
// The instruction text both of them hash is pinned separately, in
// internal/ir's TestInstrStringPinned.

// refMethodHashes is MethodHashes as it was written with fmt, kept
// unchanged but for the names of its functions.
func refMethodHashes(prog *ir.Program, res *callgraph.Resolver, d *secmodel.Domain) map[string]string {
	methods := prog.Types.AllMethods()
	out := make(map[string]string, len(methods))
	for _, m := range methods {
		sig := m.Qualified()
		h := refMethodHash(prog, res, d, m)
		if prior, ok := out[sig]; ok {
			h = refCombineHashes(prior, h)
		}
		out[sig] = h
	}
	return out
}

func refMethodHash(prog *ir.Program, res *callgraph.Resolver, d *secmodel.Domain, m *types.Method) string {
	h := sha256.New()
	fmt.Fprintf(h, "method %s\n", m.Qualified())
	fmt.Fprintf(h, "mods native=%t abstract=%t static=%t entry=%t priv-scope=%t params=%d\n",
		m.IsNative(), m.IsAbstract(), m.IsStatic(), m.IsEntryPoint(),
		d.IsPrivilegedScope(m), len(m.Params))
	f := prog.FuncOf(m)
	if f == nil {
		io.WriteString(h, "nobody\n")
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, b := range f.Blocks {
		fmt.Fprintf(h, "b%d:", b.Index)
		for _, s := range b.Succs {
			fmt.Fprintf(h, " b%d", s.Index)
		}
		io.WriteString(h, "\n")
		for _, instr := range b.Instrs {
			fmt.Fprintf(h, "  %s%s\n", instr.String(), refInstrFacts(prog, res, d, instr))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refCombineHashes(a, b string) string {
	h := sha256.New()
	fmt.Fprintf(h, "overloads %s %s", a, b)
	return hex.EncodeToString(h.Sum(nil))
}

// instrFacts renders the resolution facts of one instruction — the part
// of its analysis-visible behavior that its String() form (names only)
// does not pin down.
func refInstrFacts(prog *ir.Program, res *callgraph.Resolver, d *secmodel.Domain, instr ir.Instr) string {
	switch in := instr.(type) {
	case *ir.Call:
		var b strings.Builder
		if in.Declared != nil {
			fmt.Fprintf(&b, " [decl=%s]", in.Declared.Qualified())
		}
		if id, ok := d.IdentifyCheck(in); ok {
			fmt.Fprintf(&b, " [check=%d]", id)
		}
		if d.IsGetSecurityManager(in) {
			b.WriteString(" [gsm]")
		}
		if d.IsDoPrivileged(in) {
			refWriteRunFact(&b, prog, res, in)
		}
		if target := res.Resolve(in); target == nil {
			b.WriteString(" [target=?]")
		} else {
			fmt.Fprintf(&b, " [target=%s native=%t body=%t]",
				target.Qualified(), target.IsNative(), prog.FuncOf(target) != nil)
		}
		return b.String()
	case *ir.FieldLoad:
		return refFieldFact(in.Field)
	case *ir.FieldStore:
		return refFieldFact(in.Field)
	}
	return ""
}

// writeRunFact records which run() implementation a doPrivileged call
// binds to (mirroring Analyzer.resolveRun), so changing an action class
// invalidates every method that enters it via doPrivileged.
func refWriteRunFact(b *strings.Builder, prog *ir.Program, res *callgraph.Resolver, c *ir.Call) {
	if len(c.Args) > 0 {
		if l, ok := c.Args[0].(*ir.Local); ok && l.Type.Class != nil {
			if run := res.ResolveOn(l.Type.Class, "run", 0); run != nil {
				fmt.Fprintf(b, " [dopriv run=%s native=%t body=%t]",
					run.Qualified(), run.IsNative(), prog.FuncOf(run) != nil)
				return
			}
		}
	}
	b.WriteString(" [dopriv run=?]")
}

func refFieldFact(f *types.Field) string {
	if f == nil {
		return " [field=?]"
	}
	return fmt.Sprintf(" [field=%s private=%t]", f.Qualified(), f.IsPrivate())
}

// assertReferenceHashes checks lib's hash table against the reference
// under every registered domain.
func assertReferenceHashes(t *testing.T, name string, lib *oracle.Library) {
	t.Helper()
	for _, id := range secmodel.Domains() {
		d, _ := secmodel.DomainByID(id)
		got := oracle.MethodHashes(lib.Prog, lib.Resolver, d)
		want := refMethodHashes(lib.Prog, lib.Resolver, d)
		if maps.Equal(got, want) {
			continue
		}
		for _, sig := range sortedKeys(want) {
			if got[sig] != want[sig] {
				t.Errorf("%s under %s: %s hashes to %q, reference %q", name, id, sig, got[sig], want[sig])
				break
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s under %s: %d hashed methods, reference %d", name, id, len(got), len(want))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadLib(t *testing.T, name string, srcs map[string]string) *oracle.Library {
	t.Helper()
	lib, err := oracle.LoadLibrary(name, srcs)
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	return lib
}

// TestMethodHashesMatchReference compares whole hash tables, under every
// registered domain, for the bundled corpus, for generated corpora of
// both domains and for a pair of colliding overloads.
func TestMethodHashesMatchReference(t *testing.T) {
	libs := map[string]map[string]string{
		corpus.JDK:       corpus.JDKSources(),
		corpus.Harmony:   corpus.HarmonySources(),
		corpus.Classpath: corpus.ClasspathSources(),
		// The corpora have no colliding overloads, so this library
		// exercises the combined hash.
		"overloads": overloadSources("return 1;", "return 2;", false),
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, p := range []gen.Params{gen.Small(), gen.CryptoSmall()} {
			p.Seed = seed
			c := gen.Generate(p)
			for lib, srcs := range c.Sources {
				libs[fmt.Sprintf("%s seed %d %s", c.Domain, seed, lib)] = srcs
			}
		}
	}
	for _, name := range sortedKeys(libs) {
		assertReferenceHashes(t, name, loadLib(t, name, libs[name]))
	}
}

// TestMethodHashesMatchReferenceAlongEditChain compares the tables of
// every revision of a chain of single-step metamorphic edits, the inputs
// an edit stream of PUTs hashes.
func TestMethodHashesMatchReferenceAlongEditChain(t *testing.T) {
	srcs := gen.Generate(gen.Small()).Sources["jdk"]
	for step, seed := 0, int64(1); step < 20; seed++ {
		next, applied, err := metamorph.MutateSources(srcs, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(applied) == 0 {
			continue
		}
		step++
		srcs = next
		assertReferenceHashes(t, fmt.Sprintf("revision %d (%s)", step, strings.Join(applied, ",")), loadLib(t, "jdk", srcs))
	}
}

// TestIncrementalSeededFromReferenceTable seeds incremental extractions
// from a snapshot whose hash table the reference computed, as a snapshot
// written before MethodHashes dropped fmt would be. Each must be
// incremental and re-analyze exactly the entries that a seed written
// with the current hasher re-analyzes.
func TestIncrementalSeededFromReferenceTable(t *testing.T) {
	for _, p := range []gen.Params{gen.Small(), gen.CryptoSmall()} {
		c := gen.Generate(p)
		d, _ := secmodel.DomainByID(c.Domain)
		// Snapshots carry no display data, so their seeds match only
		// extractions that collect none.
		opts := oracle.DefaultOptions()
		opts.Domain, opts.CollectPaths = d, false
		base := loadLib(t, "jdk", c.Sources["jdk"])
		base.Extract(opts)
		snap, err := base.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		refSnap := *snap
		refSnap.MethodHashes = refMethodHashes(base.Prog, base.Resolver, d)
		cur, ref := reloadSnapshot(t, snap), reloadSnapshot(t, &refSnap)

		edits := 0
		for seed := int64(1); edits < 3; seed++ {
			edited, applied, err := metamorph.MutateSources(c.Sources["jdk"], seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(applied) == 0 {
				continue
			}
			edits++
			want := reanalyzed(t, cur, edited, opts)
			if got := reanalyzed(t, ref, edited, opts); !slices.Equal(got, want) {
				t.Errorf("%s edit %v: reference-seeded extraction re-analyzed %v, current-seeded %v", c.Domain, applied, got, want)
			}
			if len(want) == len(base.Policies.Entries) {
				t.Errorf("%s edit %v: every entry re-analyzed", c.Domain, applied)
			}
		}
	}
}

// reloadSnapshot round-trips a snapshot through its persisted form.
func reloadSnapshot(t *testing.T, s *oracle.Snapshot) *oracle.Library {
	t.Helper()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := oracle.ImportSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// reanalyzed extracts edited incrementally from prev and returns the
// sorted entries whose policy was not spliced from prev.
func reanalyzed(t *testing.T, prev *oracle.Library, edited map[string]string, opts oracle.Options) []string {
	t.Helper()
	lib, st, err := oracle.ExtractIncremental(prev, edited, opts)
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
