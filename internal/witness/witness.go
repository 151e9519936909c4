// Package witness dynamically confirms the oracle's reports, playing the
// role of the paper's manual vulnerability confirmation: for a reported
// difference it denies exactly the differing permission, executes the
// manifesting entry point in both implementations under the interpreter,
// and checks that one implementation throws SecurityException while the
// other proceeds to the security-sensitive action. Checks are named and
// intercepted in the check domain the libraries were extracted under.
package witness

import (
	"fmt"

	"policyoracle/internal/diff"
	"policyoracle/internal/interp"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/types"
)

// Result is the dynamic outcome for one (entry, denied check) pair.
type Result struct {
	Entry  string
	Denied secmodel.CheckID
	// Outcomes per implementation, keyed in the same order as the
	// libraries passed to Confirm.
	A, B *interp.Outcome
	// Confirmed reports that exactly one implementation enforced the
	// denied permission.
	Confirmed bool
	// VulnerableLib names the implementation that proceeded without
	// enforcing the permission ("" when unconfirmed).
	VulnerableLib string

	dom *secmodel.Domain // names Denied
}

func (r Result) String() string {
	check := r.dom.CheckName(r.Denied)
	status := "not confirmed"
	if r.Confirmed {
		status = "CONFIRMED: " + r.VulnerableLib + " does not enforce " + check
	}
	return fmt.Sprintf("%s denying %s: %s", r.Entry, check, status)
}

// Confirm executes the manifesting entry points of a difference group in
// both implementations, denying each differing check in turn. The
// libraries must be extracted, under one check domain: the domain names
// the checks and supplies the guard object and the privileged scope.
func Confirm(a, b *oracle.Library, g *diff.Group) ([]Result, error) {
	for _, l := range []*oracle.Library{a, b} {
		if l.Policies == nil {
			return nil, fmt.Errorf("witness: %w: %s", oracle.ErrNotExtracted, l.Name)
		}
	}
	if a.Policies.Domain != b.Policies.Domain {
		return nil, fmt.Errorf("witness: %w", oracle.ErrDomainMismatch)
	}
	dom, err := a.Policies.DomainModel()
	if err != nil {
		return nil, fmt.Errorf("witness: %w", err)
	}
	var out []Result
	for _, id := range g.DiffChecks.IDs() {
		for _, entry := range g.Entries {
			r := Result{Entry: entry, Denied: id, dom: dom}
			ma := findEntry(a.Prog.Types, entry)
			mb := findEntry(b.Prog.Types, entry)
			if ma == nil || mb == nil {
				out = append(out, r)
				continue
			}
			cfg := interp.DefaultConfig(interp.Deny(id))
			r.A = interp.New(a.Prog.Types, dom, cfg).CallEntry(ma)
			r.B = interp.New(b.Prog.Types, dom, cfg).CallEntry(mb)
			r.Confirmed, r.VulnerableLib = judge(r.A, r.B, a.Name, b.Name)
			out = append(out, r)
		}
	}
	return out, nil
}

// judge decides whether the pair of outcomes witnesses a missing
// enforcement: one side throws SecurityException, the other completes (or
// reaches a native action) without it.
func judge(a, b *interp.Outcome, libA, libB string) (bool, string) {
	if a == nil || b == nil || a.Err != nil || b.Err != nil {
		return false, ""
	}
	switch {
	case a.SecurityViolation && !b.SecurityViolation:
		return true, libB
	case b.SecurityViolation && !a.SecurityViolation:
		return true, libA
	}
	return false, ""
}

func findEntry(p *types.Program, sig string) *types.Method {
	for _, m := range p.EntryPoints() {
		if m.Qualified() == sig {
			return m
		}
	}
	return nil
}
