package store

import (
	"fmt"

	"policyoracle/internal/analysis"
	"policyoracle/internal/jsonwrite"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

// OptionsWire is the JSON form of extraction options accepted by the
// service and persisted inside bundles. The zero value means
// oracle.DefaultOptions(): every field is a delta from the paper's
// default configuration, so clients that don't care send nothing.
//
// Execution strategy (worker counts, memoization) is deliberately absent:
// it belongs to the server (-parallel), never to the bundle, because it
// cannot change the extracted bytes.
type OptionsWire struct {
	// Domain is the check-domain ID the extraction runs under; empty
	// means the registered default (SecurityManager) domain. An unknown
	// ID fails with secmodel.ErrUnknownDomain, which the server maps to
	// its stable unknown_domain error code.
	Domain string `json:"domain,omitempty"`
	// Events is "narrow" (default) or "broad" (Section 3 events).
	Events string `json:"events,omitempty"`
	// NoICP disables interprocedural constant propagation.
	NoICP bool `json:"noICP,omitempty"`
	// NoAssumeSM keeps `getSecurityManager() != null` guards unfolded.
	NoAssumeSM bool `json:"noAssumeSM,omitempty"`
	// MaxDepth bounds interprocedural descent; nil means unlimited (-1).
	MaxDepth *int `json:"maxDepth,omitempty"`
	// Modes restricts extraction to "may" or "must" only; empty means both.
	Modes []string `json:"modes,omitempty"`
}

// write renders the options as encoding/json renders them under their
// struct tags, each empty field omitted.
func (w OptionsWire) write(out *jsonwrite.Indent) {
	out.BeginObject()
	if w.Domain != "" {
		out.Key("domain")
		out.String(w.Domain)
	}
	if w.Events != "" {
		out.Key("events")
		out.String(w.Events)
	}
	if w.NoICP {
		out.Key("noICP")
		out.Bool(true)
	}
	if w.NoAssumeSM {
		out.Key("noAssumeSM")
		out.Bool(true)
	}
	if w.MaxDepth != nil {
		out.Key("maxDepth")
		out.Int(int64(*w.MaxDepth))
	}
	if len(w.Modes) > 0 {
		out.Key("modes")
		out.Strings(w.Modes)
	}
	out.EndObject()
}

// ToOracle resolves the wire options onto oracle.DefaultOptions and
// normalizes the result.
func (w OptionsWire) ToOracle() (oracle.Options, error) {
	opts := oracle.DefaultOptions()
	dom, err := secmodel.ResolveDomain(w.Domain)
	if err != nil {
		return opts, err
	}
	opts.Domain = dom
	switch w.Events {
	case "", "narrow":
	case "broad":
		opts.Events = secmodel.BroadEvents
	default:
		return opts, fmt.Errorf("unknown events mode %q (want narrow or broad)", w.Events)
	}
	opts.ICP = !w.NoICP
	opts.AssumeSecurityManager = !w.NoAssumeSM
	if w.MaxDepth != nil {
		opts.MaxDepth = *w.MaxDepth
	}
	if len(w.Modes) > 0 {
		opts.Modes = opts.Modes[:0]
		for _, m := range w.Modes {
			switch m {
			case "may":
				opts.Modes = append(opts.Modes, analysis.May)
			case "must":
				opts.Modes = append(opts.Modes, analysis.Must)
			default:
				return opts, fmt.Errorf("unknown analysis mode %q (want may or must)", m)
			}
		}
	}
	return opts.Normalize(), nil
}
