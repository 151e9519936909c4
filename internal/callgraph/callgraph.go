// Package callgraph resolves call sites and builds call graphs rooted at
// API entry points.
//
// Virtual calls are resolved with class-hierarchy analysis narrowed by the
// set of allocated classes (an RTA-style refinement): a call site resolves
// when exactly one concrete target remains, mirroring the paper's use of
// Soot's method resolution (97% of sites resolved; unresolved sites are
// skipped by the analysis, a documented source of false negatives).
package callgraph

import (
	"sync/atomic"

	"policyoracle/internal/ast"
	"policyoracle/internal/ir"
	"policyoracle/internal/types"
)

// Resolver resolves call sites within one program. Resolution is pure
// (the allocated-class set is fixed at construction), and the statistics
// counters are atomic, so a Resolver may be shared by concurrent analyses.
type Resolver struct {
	prog      *ir.Program
	allocated map[*types.Class]bool

	// Stats accumulate over all Resolve calls.
	resolved   atomic.Int64
	unresolved atomic.Int64
}

// NewResolver builds a resolver for p, scanning all method bodies for
// allocation sites.
func NewResolver(p *ir.Program) *Resolver {
	r := &Resolver{prog: p, allocated: make(map[*types.Class]bool)}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if n, ok := in.(*ir.New); ok && n.Class != nil {
					r.allocated[n.Class] = true
				}
			}
		}
	}
	return r
}

// Stats returns the number of resolved and unresolved call sites observed.
func (r *Resolver) Stats() (resolved, unresolved int) {
	return int(r.resolved.Load()), int(r.unresolved.Load())
}

// ResolutionRate returns the fraction of observed call sites that resolved.
func (r *Resolver) ResolutionRate() float64 {
	resolved, unresolved := r.Stats()
	total := resolved + unresolved
	if total == 0 {
		return 1
	}
	return float64(resolved) / float64(total)
}

// Resolve returns the unique target of the call, or nil when the site does
// not resolve to exactly one target. Native targets are returned (they
// have no bodies but are security-sensitive events).
func (r *Resolver) Resolve(c *ir.Call) *types.Method {
	m := r.resolve(c)
	r.RecordOutcome(m != nil)
	return m
}

// RecordOutcome counts one call-site resolution outcome. Callers that
// resolve through ResolveQuiet and deduplicate sites themselves use this
// to keep each site counted exactly once.
func (r *Resolver) RecordOutcome(resolved bool) {
	if resolved {
		r.resolved.Add(1)
	} else {
		r.unresolved.Add(1)
	}
}

// ResolveQuiet is Resolve without statistics accounting (used by
// baselines and diagnostics that should not skew the reported rate).
func (r *Resolver) ResolveQuiet(c *ir.Call) *types.Method { return r.resolve(c) }

func (r *Resolver) resolve(c *ir.Call) *types.Method {
	switch c.Kind {
	case ir.CallStatic, ir.CallSpecial:
		return c.Declared
	}
	decl := c.Declared
	if decl == nil {
		if c.StaticType == nil {
			return nil
		}
		decl = c.StaticType.LookupMethod(c.Name, len(c.Args))
		if decl == nil {
			return nil
		}
	}
	base := c.StaticType
	if base == nil {
		base = decl.Class
	}
	return r.resolveOn(base, decl)
}

// ResolveOn resolves a virtual dispatch of decl's (name, arity) against
// receivers whose static type is base, using the allocated-class set. It
// returns nil when more than one concrete target remains.
func (r *Resolver) ResolveOn(base *types.Class, name string, nargs int) *types.Method {
	if base == nil {
		return nil
	}
	decl := base.LookupMethod(name, nargs)
	if decl == nil {
		return nil
	}
	return r.resolveOn(base, decl)
}

func (r *Resolver) resolveOn(base *types.Class, decl *types.Method) *types.Method {
	// Monomorphic shortcuts: private, final, static receiver class final.
	if decl.Mods.Has(ast.ModPrivate) || decl.Mods.Has(ast.ModFinal) || decl.IsStatic() {
		return decl
	}
	if base.Mods.Has(ast.ModFinal) {
		return dispatch(base, decl)
	}

	// Collect concrete targets over allocated subtypes of the static type.
	targets := map[*types.Method]bool{}
	for _, sub := range base.AllSubtypes() {
		if sub.IsInterface || sub.Mods.Has(ast.ModAbstract) {
			continue
		}
		if !r.allocated[sub] && sub != base {
			continue
		}
		if t := dispatch(sub, decl); t != nil {
			targets[t] = true
		}
	}
	if len(targets) == 0 {
		// No allocated subtype: fall back to the declaration itself when it
		// is concrete (library code reachable only through this type).
		if t := dispatch(base, decl); t != nil {
			return t
		}
		return nil
	}
	if len(targets) == 1 {
		for t := range targets {
			return t
		}
	}
	return nil
}

// dispatch finds the implementation of decl's (name, arity) starting at
// runtime class rc, walking up the superclass chain. Abstract results are
// rejected.
func dispatch(rc *types.Class, decl *types.Method) *types.Method {
	name := decl.Name
	if decl.IsCtor {
		name = "<init>"
	}
	for k := rc; k != nil; k = k.Super {
		for _, m := range k.MethodsNamed(name) {
			if len(m.Params) == len(decl.Params) {
				if m.IsAbstract() {
					return nil
				}
				return m
			}
		}
	}
	return nil
}
