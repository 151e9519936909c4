// Package diff implements security-policy differencing (Section 5 of the
// paper): comparing the policies extracted from two implementations of the
// same API, reporting every semantic difference, grouping manifestations by
// root cause, and categorizing each difference.
package diff

import (
	"fmt"
	"sort"
	"strings"

	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

// Case identifies which comparison rule fired (Section 5).
type Case int

// Comparison outcomes.
const (
	// CaseMissingPolicy: one implementation has no security policy while
	// the other has one or more (case 2 — most vulnerabilities).
	CaseMissingPolicy Case = iota
	// CaseCheckMismatch: the implementations guard the same event with
	// different check sets (case 3a).
	CaseCheckMismatch
	// CaseMustMayMismatch: same checks, but a check is MUST in one
	// implementation and only MAY in the other (case 3b).
	CaseMustMayMismatch
)

func (c Case) String() string {
	switch c {
	case CaseMissingPolicy:
		return "missing-policy"
	case CaseCheckMismatch:
		return "check-mismatch"
	case CaseMustMayMismatch:
		return "must-may-mismatch"
	}
	return fmt.Sprintf("case(%d)", int(c))
}

// Category is the root-cause classification used by Table 3's rows.
type Category int

// Root-cause categories.
const (
	// Intraprocedural differences are visible in the entry method alone.
	Intraprocedural Category = iota
	// Interprocedural differences require analyzing callees.
	Interprocedural
	// MustMay differences have equal check sets with differing modality.
	MustMay
)

func (c Category) String() string {
	switch c {
	case Intraprocedural:
		return "intraprocedural"
	case Interprocedural:
		return "interprocedural"
	case MustMay:
		return "MUST/MAY"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Side is one implementation's policy for the differing event.
type Side struct {
	Library string
	Must    policy.CheckSet
	May     policy.CheckSet
	Paths   policy.PathSets
	Present bool // false when the entry has no policy at all (case 2)
}

// Difference is one policy difference at one API entry point.
type Difference struct {
	Entry string
	Event secmodel.Event
	Case  Case
	A, B  Side
	// DiffChecks is the symmetric difference of the MAY sets (all of the
	// richer side's checks for case 2).
	DiffChecks policy.CheckSet
	// MissingIn names the library whose policy lacks DiffChecks ("" when
	// both sides have extra checks).
	MissingIn string
	// RootKey groups manifestations of the same underlying error: the
	// event key plus the methods whose bodies contain the differing checks.
	RootKey string
	// RootMethods are the origin methods of the differing checks.
	RootMethods []string
	Category    Category
}

// Group is a distinct error: one root cause with all its manifestations.
type Group struct {
	RootKey     string
	Case        Case
	Category    Category
	MissingIn   string
	DiffChecks  policy.CheckSet
	RootMethods []string
	// Entries are the API entry points where the error manifests.
	Entries []string
	Diffs   []*Difference
}

// Manifestations returns the number of entry points exhibiting the error.
func (g *Group) Manifestations() int { return len(g.Entries) }

// Report is the outcome of differencing two implementations.
type Report struct {
	LibA, LibB string
	// Domain is the check-domain ID the compared policies were extracted
	// under; empty means the default (SecurityManager) domain, keeping
	// default-domain reports byte-identical to the pre-domain format.
	// Check sets in the report render against this domain.
	Domain string
	// MatchingEntries is the number of entry-point signatures shared by
	// both implementations (Table 3's "Matching APIs").
	MatchingEntries int
	Diffs           []*Difference
	Groups          []*Group
}

// TotalManifestations sums manifestations over all groups.
func (r *Report) TotalManifestations() int {
	n := 0
	for _, g := range r.Groups {
		n += g.Manifestations()
	}
	return n
}

// Compare differences the policies of two implementations of one API.
// Both sides must carry policies of the same check domain — oracle.Diff
// and the store enforce that with typed errors before calling here — and
// the report renders check sets under that domain (a's, by convention).
func Compare(a, b *policy.ProgramPolicies) *Report {
	rep := &Report{LibA: a.Library, LibB: b.Library, Domain: a.Domain}
	for _, entry := range a.SortedEntries() {
		pa := a.Entries[entry]
		pb, ok := b.Entries[entry]
		if !ok {
			continue
		}
		rep.MatchingEntries++
		compareEntry(rep, entry, pa, pb, a.Library, b.Library)
	}
	rep.group()
	return rep
}

func compareEntry(rep *Report, entry string, pa, pb *policy.EntryPolicy, la, lb string) {
	aHas, bHas := pa.HasChecks(), pb.HasChecks()
	// Case 1: neither implementation has any security policy.
	if !aHas && !bHas {
		return
	}
	// Case 2: exactly one implementation has a security policy.
	if aHas != bHas {
		rich, poor := pa, pb
		richLib, poorLib := la, lb
		if bHas {
			rich, poor = pb, pa
			richLib, poorLib = lb, la
		}
		_ = poor
		// Report against the richest event of the richer side (prefer the
		// API return, which exists on both sides).
		ev := richestEvent(rich)
		ep := rich.Events[ev]
		d := &Difference{
			Entry:      entry,
			Event:      ev,
			Case:       CaseMissingPolicy,
			DiffChecks: ep.May,
			MissingIn:  poorLib,
		}
		d.A = sideOf(la, pa, ev)
		d.B = sideOf(lb, pb, ev)
		if richLib == la {
			d.B.Present = false
		} else {
			d.A.Present = false
		}
		d.RootMethods = originMethods(ep, ep.May)
		d.RootKey = rootKey(d.Case, ev, d.RootMethods, d.DiffChecks)
		d.Category = categorize(d, entry)
		rep.Diffs = append(rep.Diffs, d)
		return
	}
	// Case 3: both have policies; match events present on both sides and
	// ignore events unique to one implementation.
	for _, ev := range pa.SortedEvents() {
		epa := pa.Events[ev]
		epb, ok := pb.Events[ev]
		if !ok {
			continue
		}
		if epa.May != epb.May {
			// Case 3a: different check sets for the same event.
			diffChecks := epa.May.Minus(epb.May).Union(epb.May.Minus(epa.May))
			d := &Difference{
				Entry:      entry,
				Event:      ev,
				Case:       CaseCheckMismatch,
				A:          sideOf(la, pa, ev),
				B:          sideOf(lb, pb, ev),
				DiffChecks: diffChecks,
			}
			switch {
			case epb.May.Minus(epa.May).IsEmpty():
				d.MissingIn = lb
			case epa.May.Minus(epb.May).IsEmpty():
				d.MissingIn = la
			}
			roots := originMethods(epa, epa.May.Minus(epb.May))
			roots = append(roots, originMethods(epb, epb.May.Minus(epa.May))...)
			d.RootMethods = dedupSorted(roots)
			d.RootKey = rootKey(d.Case, ev, d.RootMethods, d.DiffChecks)
			d.Category = categorize(d, entry)
			rep.Diffs = append(rep.Diffs, d)
			continue
		}
		if epa.Must != epb.Must {
			// Case 3b: same checks, differing MUST/MAY modality.
			d := &Difference{
				Entry:      entry,
				Event:      ev,
				Case:       CaseMustMayMismatch,
				A:          sideOf(la, pa, ev),
				B:          sideOf(lb, pb, ev),
				DiffChecks: epa.Must.Minus(epb.Must).Union(epb.Must.Minus(epa.Must)),
			}
			switch {
			case epb.Must.Minus(epa.Must).IsEmpty():
				d.MissingIn = lb // check is only MAY in b
			case epa.Must.Minus(epb.Must).IsEmpty():
				d.MissingIn = la
			}
			roots := originMethods(epa, d.DiffChecks)
			roots = append(roots, originMethods(epb, d.DiffChecks)...)
			d.RootMethods = dedupSorted(roots)
			d.RootKey = rootKey(d.Case, ev, d.RootMethods, d.DiffChecks)
			d.Category = MustMay
			rep.Diffs = append(rep.Diffs, d)
		}
	}
}

// richestEvent picks the event with the largest MAY set, preferring the
// API return (present in every implementation).
func richestEvent(p *policy.EntryPolicy) secmodel.Event {
	best := secmodel.ReturnEvent()
	bestLen := -1
	if ep, ok := p.Events[best]; ok {
		bestLen = ep.May.Len()
	}
	for _, ev := range p.SortedEvents() {
		if ep := p.Events[ev]; ep.May.Len() > bestLen {
			best, bestLen = ev, ep.May.Len()
		}
	}
	return best
}

func sideOf(lib string, p *policy.EntryPolicy, ev secmodel.Event) Side {
	s := Side{Library: lib, Present: true}
	if ep, ok := p.Events[ev]; ok {
		s.Must, s.May, s.Paths = ep.Must, ep.May, ep.Paths
	}
	return s
}

// originMethods returns the sorted method signatures whose bodies contain
// the given checks on paths to the event.
func originMethods(ep *policy.EventPolicy, checks policy.CheckSet) []string {
	set := map[string]bool{}
	for _, id := range checks.IDs() {
		for _, sig := range ep.OriginsOf(id) {
			set[sig] = true
		}
	}
	var out []string
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func dedupSorted(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// rootKey identifies a distinct error. The event is deliberately excluded:
// one missing check typically perturbs several events (the native call and
// the API return), and the paper counts that as a single error with its
// manifestations.
func rootKey(c Case, _ secmodel.Event, roots []string, checks policy.CheckSet) string {
	return fmt.Sprintf("%s|%s|%x", c, strings.Join(roots, ";"), uint64(checks))
}

// categorize decides intraprocedural vs interprocedural: a difference is
// intraprocedural when every differing check originates in the entry-point
// method itself (visible without analyzing callees).
func categorize(d *Difference, entry string) Category {
	if len(d.RootMethods) == 0 {
		return Interprocedural
	}
	for _, m := range d.RootMethods {
		if m != entry {
			return Interprocedural
		}
	}
	return Intraprocedural
}

// group clusters the differences by root key.
func (r *Report) group() {
	byKey := map[string]*Group{}
	var order []string
	for _, d := range r.Diffs {
		g := byKey[d.RootKey]
		if g == nil {
			g = &Group{
				RootKey:     d.RootKey,
				Case:        d.Case,
				Category:    d.Category,
				MissingIn:   d.MissingIn,
				DiffChecks:  d.DiffChecks,
				RootMethods: d.RootMethods,
			}
			byKey[d.RootKey] = g
			order = append(order, d.RootKey)
		}
		g.Diffs = append(g.Diffs, d)
		dup := false
		for _, e := range g.Entries {
			if e == d.Entry {
				dup = true // several events of one entry are one manifestation
			}
		}
		if !dup {
			g.Entries = append(g.Entries, d.Entry)
		}
	}
	sort.Strings(order)
	r.Groups = r.Groups[:0]
	for _, k := range order {
		g := byKey[k]
		sort.Strings(g.Entries)
		r.Groups = append(r.Groups, g)
	}
}

// domainModel resolves the report's check domain for rendering, falling
// back to the default domain when the ID is not registered (only
// possible for hand-built reports; Compare inputs are validated).
func (r *Report) domainModel() *secmodel.Domain {
	if d, ok := secmodel.DomainByID(r.Domain); ok {
		return d
	}
	return secmodel.SecurityManager()
}

// String renders a compact human-readable report.
func (r *Report) String() string {
	dom := r.domainModel()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s vs %s: %d matching entry points, %d distinct differences (%d manifestations)\n",
		r.LibA, r.LibB, r.MatchingEntries, len(r.Groups), r.TotalManifestations())
	for _, g := range r.Groups {
		fmt.Fprintf(&sb, "  [%s/%s] event %s checks %s missing-in=%s (%d manifestations)\n",
			g.Case, g.Category, g.Diffs[0].Event, g.DiffChecks.StringIn(dom), orBoth(g.MissingIn), g.Manifestations())
		for _, e := range g.Entries {
			fmt.Fprintf(&sb, "    %s\n", e)
		}
	}
	return sb.String()
}

func orBoth(s string) string {
	if s == "" {
		return "(both)"
	}
	return s
}
