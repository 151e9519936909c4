// Package policy defines security-policy values: per-event MAY and MUST
// check sets and the bounded path-policy enrichment displayed in the
// paper's Figure 2. The analysis combines multiple occurrences of the same
// event into one policy (intersection for MUST, union for MAY — Section 5).
package policy

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"policyoracle/internal/secmodel"
)

// CheckSet is a bitset over a domain's security checks (at most 64; the
// default SecurityManager domain has 31).
type CheckSet uint64

// Empty is the empty check set.
const Empty CheckSet = 0

// With returns s with check id added.
func (s CheckSet) With(id secmodel.CheckID) CheckSet { return s | 1<<uint(id) }

// Has reports whether s contains id.
func (s CheckSet) Has(id secmodel.CheckID) bool { return s&(1<<uint(id)) != 0 }

// Union returns s ∪ t.
func (s CheckSet) Union(t CheckSet) CheckSet { return s | t }

// Intersect returns s ∩ t.
func (s CheckSet) Intersect(t CheckSet) CheckSet { return s & t }

// Minus returns s \ t.
func (s CheckSet) Minus(t CheckSet) CheckSet { return s &^ t }

// IsEmpty reports whether s has no checks.
func (s CheckSet) IsEmpty() bool { return s == 0 }

// Len returns the number of checks in s.
func (s CheckSet) Len() int {
	n := 0
	for v := uint64(s); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// IDs returns the check IDs in s in ascending order. The scan covers the
// full 64-bit word so it is correct for every domain's table size.
func (s CheckSet) IDs() []secmodel.CheckID {
	var out []secmodel.CheckID
	for i := 0; i < 64; i++ {
		if s.Has(secmodel.CheckID(i)) {
			out = append(out, secmodel.CheckID(i))
		}
	}
	return out
}

// StringIn renders the set as sorted check names of domain d.
func (s CheckSet) StringIn(d *secmodel.Domain) string { return d.CheckSetString(uint64(s)) }

// ---------------------------------------------------------------------------
// Path policies (Figure 2's sets of alternative check conjunctions)

// PathSets is a bounded set of alternative check conjunctions: the checks
// performed along each distinct class of paths to an event. It refines the
// flat MAY set for reporting: {{checkMulticast}, {checkConnect,
// checkAccept}} rather than the union of all three.
type PathSets struct {
	Sets     []CheckSet // sorted, deduplicated
	Overflow bool       // true when the path bound was exceeded
}

// PathCap bounds the number of alternatives tracked per program point.
const PathCap = 8

// PathEmpty is the single-empty-path value (analysis entry state).
func PathEmpty() PathSets { return PathSets{Sets: []CheckSet{Empty}} }

// normalize sorts, dedups, and applies the cap.
func (p PathSets) normalize() PathSets {
	// Alternative lists are tiny (≤ PathCap, ≤ PathCap² transiently in
	// Cross); insertion sort beats sort.Slice here and avoids the
	// interface/Swapper allocations on the solver hot path.
	for i := 1; i < len(p.Sets); i++ {
		for j := i; j > 0 && p.Sets[j] < p.Sets[j-1]; j-- {
			p.Sets[j], p.Sets[j-1] = p.Sets[j-1], p.Sets[j]
		}
	}
	out := p.Sets[:0]
	var prev CheckSet
	for i, s := range p.Sets {
		if i == 0 || s != prev {
			out = append(out, s)
		}
		prev = s
	}
	p.Sets = out
	if len(p.Sets) > PathCap {
		// Collapse to the union when too many alternatives exist.
		var u CheckSet
		for _, s := range p.Sets {
			u = u.Union(s)
		}
		p.Sets = []CheckSet{u}
		p.Overflow = true
	}
	return p
}

// subsetOf reports whether every set in sub appears in sup. Both slices
// must be sorted and deduplicated (the PathSets invariant).
func subsetOf(sub, sup []CheckSet) bool {
	j := 0
	for _, s := range sub {
		for j < len(sup) && sup[j] < s {
			j++
		}
		if j == len(sup) || sup[j] != s {
			return false
		}
		j++
	}
	return true
}

// Join merges the alternatives of two predecessors.
func (p PathSets) Join(q PathSets) PathSets {
	// Fast paths: at the solver fixed point most joins are no-ops. Both
	// operands hold the sorted/deduplicated invariant, so subset checks
	// and the general merge are linear, and a no-op join returns the
	// existing (immutable) value without allocating.
	if q.Overflow == (p.Overflow || q.Overflow) && subsetOf(p.Sets, q.Sets) {
		return q
	}
	if p.Overflow == (p.Overflow || q.Overflow) && subsetOf(q.Sets, p.Sets) {
		return p
	}
	merged := PathSets{
		Sets:     make([]CheckSet, 0, len(p.Sets)+len(q.Sets)),
		Overflow: p.Overflow || q.Overflow,
	}
	i, j := 0, 0
	for i < len(p.Sets) && j < len(q.Sets) {
		switch {
		case p.Sets[i] < q.Sets[j]:
			merged.Sets = append(merged.Sets, p.Sets[i])
			i++
		case p.Sets[i] > q.Sets[j]:
			merged.Sets = append(merged.Sets, q.Sets[j])
			j++
		default:
			merged.Sets = append(merged.Sets, p.Sets[i])
			i, j = i+1, j+1
		}
	}
	merged.Sets = append(merged.Sets, p.Sets[i:]...)
	merged.Sets = append(merged.Sets, q.Sets[j:]...)
	if len(merged.Sets) > PathCap {
		var u CheckSet
		for _, s := range merged.Sets {
			u = u.Union(s)
		}
		merged.Sets = merged.Sets[:1]
		merged.Sets[0] = u
		merged.Overflow = true
	}
	return merged
}

// AddCheck adds a check to every alternative.
func (p PathSets) AddCheck(id secmodel.CheckID) PathSets {
	return p.AddAll(Empty.With(id))
}

// AddAll unions cs into every alternative (used for callee effects).
func (p PathSets) AddAll(cs CheckSet) PathSets {
	all := true
	for _, s := range p.Sets {
		if s.Union(cs) != s {
			all = false
			break
		}
	}
	if all {
		// Every alternative already contains cs (always true for cs ==
		// Empty); the result is p itself, which is immutable by
		// convention, so return it without copying.
		return p
	}
	out := PathSets{Sets: make([]CheckSet, len(p.Sets)), Overflow: p.Overflow}
	for i, s := range p.Sets {
		out.Sets[i] = s.Union(cs)
	}
	return out.normalize()
}

// Equal reports set equality.
func (p PathSets) Equal(q PathSets) bool {
	if len(p.Sets) != len(q.Sets) || p.Overflow != q.Overflow {
		return false
	}
	for i := range p.Sets {
		if p.Sets[i] != q.Sets[i] {
			return false
		}
	}
	return true
}

// StringIn renders the alternatives as {{...}, {...}} with check names
// resolved in domain d.
func (p PathSets) StringIn(d *secmodel.Domain) string {
	parts := make([]string, len(p.Sets))
	for i, s := range p.Sets {
		parts[i] = s.StringIn(d)
	}
	suffix := ""
	if p.Overflow {
		suffix = "…"
	}
	return "{" + strings.Join(parts, ", ") + suffix + "}"
}

// ---------------------------------------------------------------------------
// Event and entry-point policies

// EventPolicy is the policy computed for one security-sensitive event of
// one API entry point: which checks must and may precede it, the refined
// path alternatives, and where each contributing check occurs (for
// root-cause grouping).
type EventPolicy struct {
	Event secmodel.Event
	Must  CheckSet
	May   CheckSet
	Paths PathSets
	// Origins maps each check in May to the qualified signatures of the
	// methods whose bodies invoke it on some path to this event, sorted
	// and deduplicated. Nil until the first AddOrigin.
	Origins map[secmodel.CheckID][]string
}

// NewEventPolicy returns an empty policy for ev.
func NewEventPolicy(ev secmodel.Event) *EventPolicy { return &EventPolicy{Event: ev} }

// AddOrigin records that check id is invoked in method sig on some path to
// this event.
func (ep *EventPolicy) AddOrigin(id secmodel.CheckID, sig string) {
	if ep.Origins == nil {
		ep.Origins = make(map[secmodel.CheckID][]string)
	}
	sigs := ep.Origins[id]
	if i, found := slices.BinarySearch(sigs, sig); !found {
		ep.Origins[id] = slices.Insert(sigs, i, sig)
	}
}

// OriginsOf returns a copy of the sorted origin method signatures for a
// check.
func (ep *EventPolicy) OriginsOf(id secmodel.CheckID) []string {
	return slices.Clone(ep.Origins[id])
}

// HasChecks reports whether any check may precede the event.
func (ep *EventPolicy) HasChecks() bool { return !ep.May.IsEmpty() }

// EntryPolicy aggregates the event policies of one API entry point.
type EntryPolicy struct {
	Entry  string // qualified signature
	Events map[secmodel.Event]*EventPolicy
	// Guards maps each check to the distinct guard-condition position
	// lists under which its occurrences execute; the empty string means an
	// unconditional occurrence exists. Populated only when extraction runs
	// with guard collection (Section 6.4's MAY-policy conditions).
	Guards map[secmodel.CheckID]map[string]bool
}

// NewEntryPolicy returns an empty entry policy.
func NewEntryPolicy(entry string) *EntryPolicy {
	return &EntryPolicy{Entry: entry, Events: make(map[secmodel.Event]*EventPolicy)}
}

// AddGuard records one occurrence's guard-condition positions for a check.
func (p *EntryPolicy) AddGuard(id secmodel.CheckID, guards string) {
	if p.Guards == nil {
		p.Guards = make(map[secmodel.CheckID]map[string]bool)
	}
	m := p.Guards[id]
	if m == nil {
		m = make(map[string]bool)
		p.Guards[id] = m
	}
	m[guards] = true
}

// GuardsOf returns the sorted distinct guard-position lists for a check.
func (p *EntryPolicy) GuardsOf(id secmodel.CheckID) []string {
	var out []string
	for g := range p.Guards[id] {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// EventPolicyFor returns (creating if needed) the policy for ev.
func (p *EntryPolicy) EventPolicyFor(ev secmodel.Event) *EventPolicy {
	ep := p.Events[ev]
	if ep == nil {
		ep = NewEventPolicy(ev)
		p.Events[ev] = ep
	}
	return ep
}

// HasChecks reports whether any event of this entry point has checks.
func (p *EntryPolicy) HasChecks() bool {
	for _, ep := range p.Events {
		if ep.HasChecks() {
			return true
		}
	}
	return false
}

// SortedEvents returns the events in deterministic order.
func (p *EntryPolicy) SortedEvents() []secmodel.Event {
	out := make([]secmodel.Event, 0, len(p.Events))
	for ev := range p.Events {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// NumPolicies counts the (must, may) policies of this entry point: one
// must and one may policy per event, matching how Table 1 counts policies.
func (p *EntryPolicy) NumPolicies() int { return len(p.Events) }

// ProgramPolicies maps entry-point signatures to their policies for one
// library implementation.
type ProgramPolicies struct {
	Library string
	// Domain is the ID of the check domain the policies were extracted
	// under. The empty string means the default (SecurityManager) domain,
	// which is what keeps pre-domain exports readable and default-domain
	// export bytes unchanged.
	Domain  string
	Entries map[string]*EntryPolicy
}

// DomainModel resolves the check domain the policies belong to.
func (pp *ProgramPolicies) DomainModel() (*secmodel.Domain, error) {
	d, ok := secmodel.DomainByID(pp.Domain)
	if !ok {
		return nil, fmt.Errorf("%w %q", secmodel.ErrUnknownDomain, pp.Domain)
	}
	return d, nil
}

// NewProgramPolicies returns an empty policy table.
func NewProgramPolicies(lib string) *ProgramPolicies {
	return &ProgramPolicies{Library: lib, Entries: make(map[string]*EntryPolicy)}
}

// SortedEntries returns entry signatures in sorted order.
func (pp *ProgramPolicies) SortedEntries() []string {
	out := make([]string, 0, len(pp.Entries))
	for k := range pp.Entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CountPolicies returns the total number of event policies (per analysis
// mode; Table 1 reports may and must counts separately but they are equal
// per event).
func (pp *ProgramPolicies) CountPolicies() int {
	n := 0
	for _, e := range pp.Entries {
		n += e.NumPolicies()
	}
	return n
}

// EntriesWithChecks counts entry points whose policies include at least
// one check (Table 1's "entry points w/ security checks").
func (pp *ProgramPolicies) EntriesWithChecks() int {
	n := 0
	for _, e := range pp.Entries {
		if e.HasChecks() {
			n++
		}
	}
	return n
}
