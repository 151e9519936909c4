// Package cmv implements a complete-mediation verifier in the style of
// Sistla et al.'s CMV and Koved et al.'s access-rights analysis (Section
// 7.1): it takes a MANUALLY specified policy — pairs of a security check
// and an event pattern — and reports every matching event not dominated by
// the check (i.e. the check is not in the event's MUST set).
//
// The baseline exists to reproduce the paper's comparison: correct
// security logic often enforces MAY policies (Figure 1: no single check
// dominates all paths), so a must-dominance verifier flags correct
// implementations, and the manual policy itself can silently omit rare
// check-event pairs. Like the verifiers it models, cmv is a JCL baseline:
// requirements name checks of the SecurityManager domain.
package cmv

import (
	"fmt"
	"sort"
	"strings"

	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

// Requirement is one manual policy entry: events whose string rendering
// contains EventSubstr (or entry signatures containing EntrySubstr) must be
// dominated by Check.
type Requirement struct {
	Check secmodel.CheckID
	// EntrySubstr restricts the requirement to matching entry points
	// ("" matches all).
	EntrySubstr string
	// EventSubstr restricts the requirement to matching events
	// ("" matches every event of a matching entry).
	EventSubstr string
}

func (r Requirement) String() string {
	return fmt.Sprintf("%s must dominate %q events of %q entries",
		secmodel.SecurityManager().CheckName(r.Check), r.EventSubstr, r.EntrySubstr)
}

// Violation is one event not dominated by the required check.
type Violation struct {
	Entry string
	Event secmodel.Event
	Req   Requirement
	// MayHolds reports whether the check at least MAY precede the event —
	// true for the paper's Figure 1 false-positive pattern, where correct
	// conditional logic fails must-dominance.
	MayHolds bool
}

func (v Violation) String() string {
	qualifier := "missing entirely"
	if v.MayHolds {
		qualifier = "on some paths only"
	}
	return fmt.Sprintf("%s: event %s lacks %s (%s)",
		v.Entry, v.Event, secmodel.SecurityManager().CheckName(v.Req.Check), qualifier)
}

// Verify checks the manual policy against the extracted policies of one
// implementation.
func Verify(pp *policy.ProgramPolicies, reqs []Requirement) []Violation {
	var out []Violation
	for _, sig := range pp.SortedEntries() {
		ep := pp.Entries[sig]
		for _, req := range reqs {
			if req.EntrySubstr != "" && !strings.Contains(sig, req.EntrySubstr) {
				continue
			}
			for _, ev := range ep.SortedEvents() {
				if req.EventSubstr != "" && !strings.Contains(ev.String(), req.EventSubstr) {
					continue
				}
				evp := ep.Events[ev]
				if evp.Must.Has(req.Check) {
					continue
				}
				out = append(out, Violation{
					Entry:    sig,
					Event:    ev,
					Req:      req,
					MayHolds: evp.May.Has(req.Check),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entry != out[j].Entry {
			return out[i].Entry < out[j].Entry
		}
		return out[i].Event.String() < out[j].Event.String()
	})
	return out
}
