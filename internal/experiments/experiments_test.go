package experiments

import (
	"strings"
	"testing"

	"policyoracle/internal/analysis"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

func smallWorkload() *Workload {
	p := gen.Small()
	return NewWorkload(p, true)
}

func TestTable1(t *testing.T) {
	w := smallWorkload()
	libs, err := w.LoadAll(oracle.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := Table1(libs)
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.EntryPoints == 0 || r.NCLoC == 0 || r.MayPolicies == 0 {
			t.Errorf("degenerate row: %+v", r)
		}
		if r.EntriesWithChecks == 0 || r.EntriesWithChecks >= r.EntryPoints {
			t.Errorf("checking entries implausible: %+v", r)
		}
		if r.ResolutionRate < 0.9 {
			t.Errorf("%s resolution rate %.2f", r.Library, r.ResolutionRate)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "jdk") || !strings.Contains(out, "Entry points") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	// A small workload suffices: the memoization ordering must hold.
	p := gen.Params{
		Seed: 5, Classes: 10, MethodsPerClass: 5, CheckFraction: 0.3,
		MaxDepth: 3, WrapperFanout: 1, DropCheck: 1, ConstGuards: 1,
	}
	w := NewWorkload(p, false)
	res, err := Table2(w, []analysis.MemoMode{analysis.MemoNone, analysis.MemoPerEntry, analysis.MemoGlobal})
	if err != nil {
		t.Fatal(err)
	}
	for lib, byMode := range res.Cells {
		for mode, byMemo := range byMode {
			none := byMemo[analysis.MemoNone].MethodAnalyses
			per := byMemo[analysis.MemoPerEntry].MethodAnalyses
			global := byMemo[analysis.MemoGlobal].MethodAnalyses
			if !(global <= per && per <= none) {
				t.Errorf("%s/%s: analyses not ordered: none=%d per=%d global=%d",
					lib, mode, none, per, global)
			}
			if none <= global {
				t.Errorf("%s/%s: no memoization benefit: none=%d global=%d", lib, mode, none, global)
			}
		}
	}
	out := RenderTable2(res)
	if !strings.Contains(out, "No summaries") || !strings.Contains(out, "overall") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestTable3ClassifiesEverything(t *testing.T) {
	w := smallWorkload()
	res, err := Table3(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("got %d pairs", len(res.Pairs))
	}
	for _, pr := range res.Pairs {
		if len(pr.UnclassifiedGroups) != 0 {
			for _, g := range pr.UnclassifiedGroups {
				t.Errorf("%v: unclassified group: %s %s %v", pr.Pair, g.Case, g.DiffChecks.StringIn(secmodel.SecurityManager()), g.Entries)
			}
		}
		if pr.MatchingAPIs == 0 {
			t.Errorf("%v: no matching APIs", pr.Pair)
		}
		if pr.TotalDiffs.Distinct == 0 {
			t.Errorf("%v: no differences found", pr.Pair)
		}
		if pr.FalsePositives.Distinct == 0 && (pr.Pair[0] == "harmony" || pr.Pair[1] == "harmony") {
			t.Errorf("%v: expected the hand-written false positives", pr.Pair)
		}
		if pr.ICPEliminated.Distinct == 0 {
			t.Errorf("%v: ICP row empty — constant-guard twins not exercised", pr.Pair)
		}
	}
	// Every library must have at least one vulnerability (hand-written set
	// guarantees this).
	for _, lib := range []string{"jdk", "harmony", "classpath"} {
		if res.TotalVulns[lib].Distinct == 0 {
			t.Errorf("no vulnerabilities attributed to %s", lib)
		}
	}
	out := RenderTable3(res)
	for _, want := range []string{"Matching APIs", "eliminated by ICP", "interoperability", "vulnerabilities in jdk"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBroadExperiment(t *testing.T) {
	w := smallWorkload()
	res, err := Broad(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.BroadPolicies <= r.NarrowPolicies {
			t.Errorf("%s: broad (%d) should exceed narrow (%d)", r.Library, r.BroadPolicies, r.NarrowPolicies)
		}
	}
	// The Figure 3 Bag entry must appear among broad-only findings.
	found := false
	for _, e := range res.BroadOnlyEntries {
		if strings.Contains(e, "Bag.a") {
			found = true
		}
	}
	if !found {
		t.Errorf("Figure 3 Bag entry missing from broad-only findings: %v", res.BroadOnlyEntries)
	}
	out := RenderBroad(res)
	if !strings.Contains(out, "ratio") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestWitnessExperiment(t *testing.T) {
	w := smallWorkload()
	res, err := Witness(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.VulnGroups == 0 {
			t.Errorf("%v: no vulnerability groups", row.Pair)
		}
		if row.Confirmed == 0 {
			t.Errorf("%v: nothing dynamically confirmed", row.Pair)
		}
		if row.Misattributed != 0 {
			t.Errorf("%v: %d misattributed confirmations", row.Pair, row.Misattributed)
		}
		if row.Confirmed > row.VulnGroups {
			t.Errorf("%v: confirmed %d > groups %d", row.Pair, row.Confirmed, row.VulnGroups)
		}
	}
	out := RenderWitness(res)
	if !strings.Contains(out, "confirmed") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestExceptionsExperiment(t *testing.T) {
	w := smallWorkload()
	res, err := Exceptions(w)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		for _, e := range row.Entries {
			if strings.Contains(e, "UnsupportedEncodingException") {
				found = true
			}
		}
	}
	if !found {
		t.Error("Figure 8 exception difference missing")
	}
	out := RenderExceptions(res)
	if !strings.Contains(out, "Section 8") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestBaselinesExperiment(t *testing.T) {
	w := smallWorkload()
	res, err := Baselines(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleFound < res.OracleTotal {
		t.Errorf("oracle found %d of %d seeded issues", res.OracleFound, res.OracleTotal)
	}
	for _, row := range res.Rows {
		if row.SeededFound >= row.SeededTotal {
			t.Errorf("miner (%s) should miss some seeded issues: %d/%d",
				row.Setting, row.SeededFound, row.SeededTotal)
		}
	}
	// Loosening thresholds must not reduce coverage.
	if len(res.Rows) >= 2 {
		strict, loose := res.Rows[0], res.Rows[len(res.Rows)-1]
		if loose.FlaggedEntries < strict.FlaggedEntries {
			t.Errorf("loose flagged fewer entries than strict: %d < %d",
				loose.FlaggedEntries, strict.FlaggedEntries)
		}
	}
	out := RenderBaselines(res)
	if !strings.Contains(out, "policy oracle") {
		t.Errorf("render missing content:\n%s", out)
	}
}
