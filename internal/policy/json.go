package policy

import (
	"encoding/json"
	"fmt"

	"policyoracle/internal/secmodel"
)

// The paper's Discussion section proposes that vendors of proprietary
// implementations share *extracted policies* rather than code, and
// difference against them. This file provides the stable serialization
// for that exchange: ExportJSON writes a ProgramPolicies snapshot;
// ImportJSON reads one back into a ProgramPolicies usable by diff.Compare.

// jsonPolicies is the wire form of ProgramPolicies. Domain is omitted
// for the default (SecurityManager) domain, so default-domain exports
// are byte-identical to the pre-domain wire format and old blobs import
// cleanly.
type jsonPolicies struct {
	Library string      `json:"library"`
	Domain  string      `json:"domain,omitempty"`
	Version int         `json:"version"`
	Entries []jsonEntry `json:"entries"`
}

type jsonEntry struct {
	Entry  string      `json:"entry"`
	Events []jsonEvent `json:"events"`
}

type jsonEvent struct {
	Kind    int          `json:"kind"`
	Key     string       `json:"key,omitempty"`
	Must    []string     `json:"must"`
	May     []string     `json:"may"`
	Origins []jsonOrigin `json:"origins,omitempty"`
}

type jsonOrigin struct {
	Check   string   `json:"check"`
	Methods []string `json:"methods"`
}

const wireVersion = 1

// checkToWire renders a check as name/arity, the stable wire identity
// within domain d. The arity comes straight from the domain's check
// table, and an ID outside the table is a loud error rather than a
// "check/-1" token that checkFromWire would reject only on re-import.
func checkToWire(d *secmodel.Domain, id secmodel.CheckID) (string, error) {
	arity := d.CheckArity(id)
	if arity < 0 {
		return "", fmt.Errorf("policy export: check ID %d is not in domain %s", int(id), d.ID())
	}
	return d.CheckName(id) + "/" + fmt.Sprint(arity), nil
}

func checkFromWire(d *secmodel.Domain, s string) (secmodel.CheckID, error) {
	var name string
	var arity int
	if _, err := fmt.Sscanf(s, "%31s", &name); err != nil {
		return 0, fmt.Errorf("bad check %q", s)
	}
	if i := indexByte(s, '/'); i >= 0 {
		name = s[:i]
		if _, err := fmt.Sscanf(s[i+1:], "%d", &arity); err != nil {
			return 0, fmt.Errorf("bad check arity in %q", s)
		}
	} else {
		return 0, fmt.Errorf("check %q lacks arity", s)
	}
	id, ok := d.CheckByName(name, arity)
	if !ok {
		return 0, fmt.Errorf("unknown check %q in domain %s", s, d.ID())
	}
	return id, nil
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

func setToWire(d *secmodel.Domain, s CheckSet) ([]string, error) {
	out := make([]string, 0, s.Len())
	for _, id := range s.IDs() {
		w, err := checkToWire(d, id)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// checkTokens resolves the check tokens of one import. A blob repeats a
// few distinct name/arity tokens hundreds of times, so each is parsed by
// checkFromWire once; a rejected token fails the import, so only
// accepted ones are remembered.
type checkTokens struct {
	dom *secmodel.Domain
	ids map[string]secmodel.CheckID
}

func (t *checkTokens) resolve(s string) (secmodel.CheckID, error) {
	if id, ok := t.ids[s]; ok {
		return id, nil
	}
	id, err := checkFromWire(t.dom, s)
	if err != nil {
		return 0, err
	}
	t.ids[s] = id
	return id, nil
}

func (t *checkTokens) set(names []string) (CheckSet, error) {
	var s CheckSet
	for _, n := range names {
		id, err := t.resolve(n)
		if err != nil {
			return 0, err
		}
		s = s.With(id)
	}
	return s, nil
}

// ExportJSON serializes the policies for sharing. The checks are
// rendered against the policies' domain; the domain ID travels on the
// wire (omitted for the default domain, keeping those bytes unchanged).
func (pp *ProgramPolicies) ExportJSON() ([]byte, error) {
	dom, err := pp.DomainModel()
	if err != nil {
		return nil, fmt.Errorf("policy export: %w", err)
	}
	domID := pp.Domain
	if domID == secmodel.DefaultDomainID {
		domID = "" // canonical spelling of the default domain on the wire
	}
	out := jsonPolicies{Library: pp.Library, Domain: domID, Version: wireVersion}
	for _, sig := range pp.SortedEntries() {
		ep := pp.Entries[sig]
		je := jsonEntry{Entry: sig}
		for _, ev := range ep.SortedEvents() {
			evp := ep.Events[ev]
			must, err := setToWire(dom, evp.Must)
			if err != nil {
				return nil, err
			}
			may, err := setToWire(dom, evp.May)
			if err != nil {
				return nil, err
			}
			jev := jsonEvent{
				Kind: int(ev.Kind),
				Key:  ev.Key,
				Must: must,
				May:  may,
			}
			// Check ids are dense and small (< the domain's table size), so
			// ascending order falls out of a linear scan — no sort needed.
			for id := secmodel.CheckID(0); int(id) < dom.NumChecks(); id++ {
				if _, ok := evp.Origins[id]; !ok {
					continue
				}
				check, err := checkToWire(dom, id)
				if err != nil {
					return nil, err
				}
				jev.Origins = append(jev.Origins, jsonOrigin{
					Check:   check,
					Methods: evp.OriginsOf(id),
				})
			}
			je.Events = append(je.Events, jev)
		}
		out.Entries = append(out.Entries, je)
	}
	return json.MarshalIndent(out, "", "  ")
}

// ImportJSON reconstructs shared policies. The result is directly usable
// by diff.Compare against locally extracted policies.
func ImportJSON(data []byte) (*ProgramPolicies, error) {
	var in jsonPolicies
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("policy import: %w", err)
	}
	if in.Version != wireVersion {
		return nil, fmt.Errorf("policy import: unsupported version %d", in.Version)
	}
	if in.Library == "" {
		return nil, fmt.Errorf("policy import: missing library name")
	}
	dom, err := secmodel.ResolveDomain(in.Domain)
	if err != nil {
		return nil, fmt.Errorf("policy import: %w", err)
	}
	pp := NewProgramPolicies(in.Library)
	if dom != secmodel.SecurityManager() {
		pp.Domain = dom.ID()
	}
	checks := &checkTokens{dom: dom, ids: make(map[string]secmodel.CheckID)}
	for _, je := range in.Entries {
		ep := NewEntryPolicy(je.Entry)
		for _, jev := range je.Events {
			ev := secmodel.Event{Kind: secmodel.EventKind(jev.Kind), Key: jev.Key}
			evp := ep.EventPolicyFor(ev)
			must, err := checks.set(jev.Must)
			if err != nil {
				return nil, err
			}
			may, err := checks.set(jev.May)
			if err != nil {
				return nil, err
			}
			evp.Must, evp.May = must, may
			for _, o := range jev.Origins {
				id, err := checks.resolve(o.Check)
				if err != nil {
					return nil, err
				}
				for _, m := range o.Methods {
					evp.AddOrigin(id, m)
				}
			}
		}
		pp.Entries[je.Entry] = ep
	}
	return pp, nil
}
