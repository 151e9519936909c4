// Package mining implements a code-mining baseline in the style of Engler
// et al.'s "bugs as deviant behavior" and AutoISES (Section 7.2): it mines
// frequent security-check patterns within a SINGLE implementation and flags
// deviations as candidate bugs.
//
// The baseline exists to reproduce the paper's comparison: mining
// fundamentally assumes the correct pattern occurs many times, so it misses
// vulnerabilities in rare patterns (Figure 1's checkMulticast/checkAccept
// combination occurs once in the whole library) and faces an inherent
// tradeoff — lowering the support threshold finds more bugs but flags more
// deviations from coincidental patterns.
package mining

import (
	"fmt"
	"sort"
	"strings"

	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

// Config tunes the miner's thresholds.
type Config struct {
	// MinSupport is the minimum number of entry points exhibiting a
	// pattern before it is considered a rule.
	MinSupport int
	// MinConfidence is the minimum fraction of pattern-eligible entry
	// points that must follow the rule.
	MinConfidence float64
}

// DefaultConfig mirrors typical mining settings.
func DefaultConfig() Config { return Config{MinSupport: 3, MinConfidence: 0.9} }

// RuleKind distinguishes the two mined rule families.
type RuleKind int

// Rule kinds.
const (
	// CheckImplies: entries whose MAY policy contains check A nearly
	// always also contain check B (an association rule over checks).
	CheckImplies RuleKind = iota
	// GroupProtected: entries of one package whose policies contain native
	// events are nearly always guarded by at least one check.
	GroupProtected
)

func (k RuleKind) String() string {
	if k == GroupProtected {
		return "group-protected"
	}
	return "check-implies"
}

// Rule is one mined pattern.
type Rule struct {
	Kind       RuleKind
	A, B       secmodel.CheckID // CheckImplies: A ⇒ B
	Package    string           // GroupProtected: the package
	Support    int
	Confidence float64

	dom *secmodel.Domain // names A and B
}

func (r Rule) String() string {
	switch r.Kind {
	case GroupProtected:
		return fmt.Sprintf("entries in %s with native events are checked (support %d, conf %.2f)",
			r.Package, r.Support, r.Confidence)
	default:
		return fmt.Sprintf("%s implies %s (support %d, conf %.2f)",
			r.dom.CheckName(r.A), r.dom.CheckName(r.B), r.Support, r.Confidence)
	}
}

// Violation is one deviation from a mined rule.
type Violation struct {
	Entry string
	Rule  Rule
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violates: %s", v.Entry, v.Rule)
}

// entryFacts summarizes one entry point for mining.
type entryFacts struct {
	sig     string
	pkg     string
	checks  policy.CheckSet
	natives bool
}

// Miner mines one implementation's extracted policies.
type Miner struct {
	cfg   Config
	dom   *secmodel.Domain
	facts []entryFacts
}

// New builds a miner over the library's extracted policies. Mined rules
// name checks in the policies' domain.
func New(pp *policy.ProgramPolicies, cfg Config) (*Miner, error) {
	dom, err := pp.DomainModel()
	if err != nil {
		return nil, fmt.Errorf("mining: %w", err)
	}
	m := &Miner{cfg: cfg, dom: dom}
	for _, sig := range pp.SortedEntries() {
		ep := pp.Entries[sig]
		f := entryFacts{sig: sig, pkg: packageOf(sig)}
		for ev, evp := range ep.Events {
			f.checks = f.checks.Union(evp.May)
			if ev.Kind == secmodel.NativeCall {
				f.natives = true
			}
		}
		m.facts = append(m.facts, f)
	}
	return m, nil
}

func packageOf(sig string) string {
	// sig is pkg.Class.method(...): strip the last two dotted components.
	i := strings.LastIndexByte(sig, '(')
	if i < 0 {
		i = len(sig)
	}
	head := sig[:i]
	parts := strings.Split(head, ".")
	if len(parts) <= 2 {
		return ""
	}
	return strings.Join(parts[:len(parts)-2], ".")
}

// Mine extracts rules meeting the thresholds.
func (m *Miner) Mine() []Rule {
	var rules []Rule

	// Check-association rules: A ⇒ B over entry MAY sets.
	withCheck := map[secmodel.CheckID][]entryFacts{}
	for _, f := range m.facts {
		for _, id := range f.checks.IDs() {
			withCheck[id] = append(withCheck[id], f)
		}
	}
	var ids []secmodel.CheckID
	for id := range withCheck {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, a := range ids {
		base := withCheck[a]
		if len(base) < m.cfg.MinSupport {
			continue
		}
		for _, b := range ids {
			if a == b {
				continue
			}
			both := 0
			for _, f := range base {
				if f.checks.Has(b) {
					both++
				}
			}
			conf := float64(both) / float64(len(base))
			if both >= m.cfg.MinSupport && conf >= m.cfg.MinConfidence && conf < 1.0 {
				rules = append(rules, Rule{Kind: CheckImplies, A: a, B: b, Support: both, Confidence: conf, dom: m.dom})
			}
		}
	}

	// Group-protection rules: packages whose native-event entries are
	// nearly always checked.
	type groupStat struct{ total, checked int }
	groups := map[string]*groupStat{}
	for _, f := range m.facts {
		if !f.natives {
			continue
		}
		g := groups[f.pkg]
		if g == nil {
			g = &groupStat{}
			groups[f.pkg] = g
		}
		g.total++
		if !f.checks.IsEmpty() {
			g.checked++
		}
	}
	var pkgs []string
	for p := range groups {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		g := groups[p]
		conf := float64(g.checked) / float64(g.total)
		if g.checked >= m.cfg.MinSupport && conf >= m.cfg.MinConfidence && conf < 1.0 {
			rules = append(rules, Rule{Kind: GroupProtected, Package: p, Support: g.checked, Confidence: conf})
		}
	}
	return rules
}

// FindViolations returns the entries deviating from mined rules.
func (m *Miner) FindViolations() []Violation {
	rules := m.Mine()
	var out []Violation
	for _, r := range rules {
		for _, f := range m.facts {
			switch r.Kind {
			case CheckImplies:
				if f.checks.Has(r.A) && !f.checks.Has(r.B) {
					out = append(out, Violation{Entry: f.sig, Rule: r})
				}
			case GroupProtected:
				if f.pkg == r.Package && f.natives && f.checks.IsEmpty() {
					out = append(out, Violation{Entry: f.sig, Rule: r})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entry != out[j].Entry {
			return out[i].Entry < out[j].Entry
		}
		return out[i].Rule.String() < out[j].Rule.String()
	})
	return out
}
