package experiments

import (
	"fmt"
	"strings"

	"policyoracle/internal/corpus"
	"policyoracle/internal/exceptions"
	"policyoracle/internal/oracle"
	"policyoracle/internal/report"
	"policyoracle/internal/witness"
)

// WitnessRow summarizes dynamic confirmation for one pair.
type WitnessRow struct {
	Pair [2]string
	// VulnGroups is the number of vulnerability-classified groups.
	VulnGroups int
	// Confirmed counts groups with at least one dynamic confirmation
	// blaming the ground-truth library.
	Confirmed int
	// Misattributed counts confirmations blaming the wrong library.
	Misattributed int
}

// WitnessResult is the dynamic-confirmation experiment outcome (the
// paper's "developers recognized all of them as bugs", mechanized).
type WitnessResult struct {
	Rows []WitnessRow
}

// Witness runs the interpreter-based confirmation over every
// vulnerability group of every pair.
func Witness(w *Workload) (*WitnessResult, error) {
	libs, err := w.LoadAll(oracle.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res := &WitnessResult{}
	for _, pair := range corpus.Pairs() {
		a, b := libs[pair[0]], libs[pair[1]]
		rep, err := oracle.Diff(a, b)
		if err != nil {
			return nil, err
		}
		row := WitnessRow{Pair: pair}
		for _, g := range rep.Groups {
			label, responsible, _ := w.classify(g, pair)
			if label != Vulnerability {
				continue
			}
			row.VulnGroups++
			rs, err := witness.Confirm(a, b, g)
			if err != nil {
				return nil, err
			}
			confirmed := false
			for _, r := range rs {
				if !r.Confirmed {
					continue
				}
				if r.VulnerableLib == responsible {
					confirmed = true
				} else {
					row.Misattributed++
				}
			}
			if confirmed {
				row.Confirmed++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderWitness renders the confirmation table.
func RenderWitness(r *WitnessResult) string {
	t := report.New("Dynamic confirmation of reported vulnerabilities (interpreter witness)",
		"pair", "vulnerability groups", "confirmed", "misattributed")
	for _, row := range r.Rows {
		t.Row(row.Pair[0]+" v "+row.Pair[1], row.VulnGroups, row.Confirmed, row.Misattributed)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("\nUnconfirmed groups are MAY/MUST weakenings whose guarding condition the\nsynthesized inputs do not trigger — differences, not directly drivable holes.\n")
	return sb.String()
}

// ExceptionRow is one pair's §8 exception-semantics comparison.
type ExceptionRow struct {
	Pair        [2]string
	Differences int
	Entries     []string
}

// ExceptionsResult aggregates the §8 extension over all pairs.
type ExceptionsResult struct {
	Rows []ExceptionRow
}

// Exceptions runs the thrown-exception differencing over all pairs.
func Exceptions(w *Workload) (*ExceptionsResult, error) {
	res := &ExceptionsResult{}
	analyzers := map[string]*exceptions.Analyzer{}
	for _, name := range corpus.Libraries() {
		l, err := w.Load(name)
		if err != nil {
			return nil, err
		}
		analyzers[name] = exceptions.New(l.Prog, l.Resolver)
	}
	for _, pair := range corpus.Pairs() {
		diffs := exceptions.Compare(analyzers[pair[0]], analyzers[pair[1]])
		row := ExceptionRow{Pair: pair, Differences: len(diffs)}
		for _, d := range diffs {
			row.Entries = append(row.Entries, fmt.Sprintf("%s: %s vs %s", d.Entry, d.A, d.B))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderExceptions renders the §8 comparison.
func RenderExceptions(r *ExceptionsResult) string {
	t := report.New("Exception-semantics differencing (Section 8 generalization)",
		"pair", "differing entry points")
	for _, row := range r.Rows {
		t.Row(row.Pair[0]+" v "+row.Pair[1], row.Differences)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	for _, row := range r.Rows {
		for _, e := range row.Entries {
			fmt.Fprintf(&sb, "  [%s v %s] %s\n", row.Pair[0], row.Pair[1], e)
		}
	}
	return sb.String()
}
