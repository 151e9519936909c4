package policy

import (
	"encoding/json"
	"fmt"

	"policyoracle/internal/jsonread"
	"policyoracle/internal/secmodel"
)

// This file keeps the encoding/json-based importer that ImportJSON's
// one-pass decoder replaced, as the reference the differential tests
// compare against. Its body is unchanged; it shares checkFromWire with
// production, so both decoders resolve check tokens by one rule.

// RefImportJSON and ErrDuplicateKey expose the reference importer and
// the shared reader's repeated-key sentinel to the package's external
// tests.
var (
	RefImportJSON   = refImportJSON
	ErrDuplicateKey = jsonread.ErrDuplicateKey
)

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

// refImportJSON reconstructs shared policies. The result is directly usable
// by diff.Compare against locally extracted policies.
func refImportJSON(data []byte) (*ProgramPolicies, error) {
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
