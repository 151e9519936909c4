package gen

import (
	"fmt"

	"policyoracle/internal/diff"
	"policyoracle/internal/secmodel"
)

// VerifyReport checks one implementation pair's diff report against the
// corpus ground truth and returns every discrepancy found (empty means
// the report is exactly the seeded population):
//
//   - a report group matching no issue seeded for the pair is a spurious
//     difference;
//   - an issue whose deviant is in the pair but which no group matches
//     was missed (with mutated sources: the mutation masked a real bug);
//   - a group touching a seeded false-negative entry means the oracle
//     reported something it must, by design, stay silent about.
//
// This is the generator's verification hook for harnesses that perturb
// the sources and re-diff — the metamorphic fuzzer asserts that seeded
// deviations survive semantics-preserving mutation.
func (c *Corpus) VerifyReport(pair [2]string, rep *diff.Report) []string {
	dom, err := secmodel.ResolveDomain(rep.Domain)
	if err != nil {
		return []string{fmt.Sprintf("%v: %v", pair, err)}
	}
	var problems []string
	found := map[string]bool{}
	for _, g := range rep.Groups {
		matched := false
		for i := range c.Issues {
			is := &c.Issues[i]
			if is.Responsible != pair[0] && is.Responsible != pair[1] {
				continue
			}
			for _, e := range g.Entries {
				if is.MatchesEntry(e) {
					found[is.ID] = true
					matched = true
				}
			}
		}
		for _, e := range g.Entries {
			for i := range c.FalseNegatives {
				if c.FalseNegatives[i].MatchesEntry(e) {
					problems = append(problems, fmt.Sprintf(
						"%v: seeded false negative %s reported at %s",
						pair, c.FalseNegatives[i].ID, e))
				}
			}
		}
		if !matched {
			n := len(g.Entries)
			if n > 3 {
				n = 3
			}
			problems = append(problems, fmt.Sprintf(
				"%v: unseeded difference %s %s at %v",
				pair, g.Case, g.DiffChecks.StringIn(dom), g.Entries[:n]))
		}
	}
	for i := range c.Issues {
		is := &c.Issues[i]
		if is.Responsible != pair[0] && is.Responsible != pair[1] {
			continue
		}
		if !found[is.ID] {
			problems = append(problems, fmt.Sprintf(
				"%v: seeded issue %s (%s in %s, check %s) not detected",
				pair, is.ID, is.Kind, is.Responsible, is.Check))
		}
	}
	return problems
}

// Pairs returns the implementation pairs of the generated corpus, every
// combination of the three library names.
func (c *Corpus) Pairs() [][2]string {
	var out [][2]string
	for i := 0; i < len(libNames); i++ {
		for j := i + 1; j < len(libNames); j++ {
			out = append(out, [2]string{libNames[i], libNames[j]})
		}
	}
	return out
}
