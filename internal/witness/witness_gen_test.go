package witness

import (
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

// witnessSeeds extracts every library of c under opts and runs the
// witness over each diff group that manifests an issue seeded in one of
// the pair's libraries, calling visit with every result.
func witnessSeeds(t *testing.T, c *gen.Corpus, opts oracle.Options, visit func(is *gen.SeededIssue, r Result)) {
	t.Helper()
	libs := map[string]*oracle.Library{}
	for name, srcs := range c.Sources {
		l, err := oracle.LoadLibrary(name, srcs)
		if err != nil {
			t.Fatal(err)
		}
		l.Extract(opts)
		libs[name] = l
	}
	for _, pair := range c.Pairs() {
		a, b := libs[pair[0]], libs[pair[1]]
		rep := mustDiff(t, a, b)
		for _, g := range rep.Groups {
			for i := range c.Issues {
				is := &c.Issues[i]
				if is.Responsible != pair[0] && is.Responsible != pair[1] {
					continue
				}
				hit := false
				for _, e := range g.Entries {
					if is.MatchesEntry(e) {
						hit = true
					}
				}
				if !hit {
					continue
				}
				for _, r := range confirm(t, a, b, g) {
					visit(is, r)
				}
			}
		}
	}
}

// TestWitnessesSeededDropChecks dynamically confirms the generated
// corpus's dropped-check and privileged-wrap vulnerabilities. WeakenMust
// seeds are intentionally out of reach: the guard condition depends on a
// specific argument value the synthesized inputs do not hit, which is
// exactly why they are MAY/MUST differences rather than outright holes.
func TestWitnessesSeededDropChecks(t *testing.T) {
	c := gen.Generate(gen.Small())
	confirmed := map[string]bool{}
	witnessSeeds(t, c, oracle.DefaultOptions(), func(is *gen.SeededIssue, r Result) {
		if r.Confirmed && r.VulnerableLib == is.Responsible {
			confirmed[is.ID] = true
		}
	})
	for _, is := range c.Issues {
		switch is.Kind {
		case gen.DropCheck, gen.PrivWrap:
			if !confirmed[is.ID] {
				t.Errorf("seeded %s issue %s (in %s) not dynamically confirmed",
					is.Kind, is.ID, is.Responsible)
			}
		}
	}
}

// TestWitnessesCryptoSeeds runs the witness over the crypto-API misuse
// corpus extracted under its own domain, so the interpreter installs the
// CryptoGuard object and intercepts its checks. No confirmation on a
// vulnerability seed may blame a library other than the labelled one,
// and every DropCheck seed is confirmed except those listed below.
// WeakenMust seeds are exempt, as in TestWitnessesSeededDropChecks.
// Swap and extra seeds are interoperability differences: both sides
// deviate, so confirmations there may name either library.
func TestWitnessesCryptoSeeds(t *testing.T) {
	unreachable := map[string]string{
		"drop-check-003@Api004": "the check sits in a loop bounded by the int argument, " +
			"which the interpreter synthesizes as 0, so neither run reaches any check",
	}
	c := gen.Generate(gen.CryptoSmall())
	opts := oracle.DefaultOptions()
	opts.Domain = secmodel.CryptoAPI()
	confirmed := map[string]bool{}
	executions, confirmations := 0, 0
	witnessSeeds(t, c, opts, func(is *gen.SeededIssue, r Result) {
		executions++
		if !r.Confirmed {
			return
		}
		confirmations++
		switch {
		case r.VulnerableLib == is.Responsible:
			confirmed[is.ID] = true
		case is.Kind.IsVulnerability():
			t.Errorf("%s %s: witness blames %s, seeded in %s (%s)",
				is.Kind, is.ID, r.VulnerableLib, is.Responsible, r)
		}
	})
	t.Logf("%d of %d witness executions confirmed", confirmations, executions)
	for _, is := range c.Issues {
		if is.Kind != gen.DropCheck {
			continue
		}
		reason, listed := unreachable[is.ID]
		switch {
		case listed && confirmed[is.ID]:
			t.Errorf("%s is listed as unreachable (%s) but was confirmed", is.ID, reason)
		case !listed && !confirmed[is.ID]:
			t.Errorf("seeded drop-check %s (in %s) not dynamically confirmed", is.ID, is.Responsible)
		}
	}
}
