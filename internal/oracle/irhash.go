package oracle

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"policyoracle/internal/callgraph"
	"policyoracle/internal/ir"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/types"
)

// This file implements the method-level content hashing behind
// incremental extraction. Each method hashes to a digest of everything
// the ISPA analysis can observe about it: its signature and modifiers,
// its IR body block by block, and — crucially — the post-resolution
// facts of every call and field access (check identity, doPrivileged
// run() binding, resolved target with its native/has-body status, field
// identity and privacy). Hashing after call-graph resolution means an
// edit anywhere that changes what a call site binds to (a new override,
// a hierarchy change, a field made private) changes the hash of every
// method containing such a site, so dependents are invalidated without
// tracking the class hierarchy separately. Source positions are
// excluded: they feed display-only data (guard positions), never the
// policy wire format.

// MethodHashes returns the IR-level content hash of every method in the
// program under check domain d, keyed by qualified signature. The hashes
// are domain-dependent: check identity, guard-state reads, doPrivileged
// bindings, and privileged-scope modifiers are all resolved against d's
// tables, so the same program hashes differently under different
// domains — exactly the property that keeps incremental reuse and
// summary-cache splicing from crossing domains. When two methods collide
// on signature (overloads whose parameter types share a simple name),
// their hashes are combined in declaration order, so a change to either
// invalidates dependents — matching how the analysis dependency sets
// conflate them.
//
// Each method's text is rendered into one reused buffer and digested in
// one call, with no fmt formatting. The text is byte for byte what an
// earlier fmt-based hasher wrote (irhash_ref_test.go keeps it as the
// reference), so every persisted hash stays valid.
func MethodHashes(prog *ir.Program, res *callgraph.Resolver, d *secmodel.Domain) map[string]string {
	methods := prog.Types.AllMethods()
	out := make(map[string]string, len(methods))
	h := &methodHasher{prog: prog, res: res, d: d}
	for _, m := range methods {
		sig := m.Qualified()
		digest := h.method(m)
		if prior, ok := out[sig]; ok {
			digest = h.combine(prior, digest)
		}
		out[sig] = digest
	}
	return out
}

// methodHasher renders methods for hashing; buf is reused across them.
type methodHasher struct {
	prog *ir.Program
	res  *callgraph.Resolver
	d    *secmodel.Domain
	buf  []byte
}

func (h *methodHasher) method(m *types.Method) string {
	b := append(h.buf[:0], "method "...)
	b = append(b, m.Qualified()...)
	b = strconv.AppendBool(append(b, "\nmods native="...), m.IsNative())
	b = strconv.AppendBool(append(b, " abstract="...), m.IsAbstract())
	b = strconv.AppendBool(append(b, " static="...), m.IsStatic())
	b = strconv.AppendBool(append(b, " entry="...), m.IsEntryPoint())
	b = strconv.AppendBool(append(b, " priv-scope="...), h.d.IsPrivilegedScope(m))
	b = strconv.AppendInt(append(b, " params="...), int64(len(m.Params)), 10)
	b = append(b, '\n')
	if f := h.prog.FuncOf(m); f == nil {
		b = append(b, "nobody\n"...)
	} else {
		for _, blk := range f.Blocks {
			b = strconv.AppendInt(append(b, 'b'), int64(blk.Index), 10)
			b = append(b, ':')
			for _, s := range blk.Succs {
				b = strconv.AppendInt(append(b, " b"...), int64(s.Index), 10)
			}
			b = append(b, '\n')
			for _, instr := range blk.Instrs {
				b = instr.AppendTo(append(b, "  "...))
				b = append(h.appendFacts(b, instr), '\n')
			}
		}
	}
	return h.digest(b)
}

// combine merges the hashes of two methods sharing a signature key. The
// result depends on the order of a and b.
func (h *methodHasher) combine(a, b string) string {
	buf := append(h.buf[:0], "overloads "...)
	buf = append(append(append(buf, a...), ' '), b...)
	return h.digest(buf)
}

// digest returns the hex SHA-256 of b and keeps b's storage for reuse.
func (h *methodHasher) digest(b []byte) string {
	h.buf = b
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendFacts appends the resolution facts of one instruction — the part
// of its analysis-visible behavior that its rendering (names only) does
// not pin down.
func (h *methodHasher) appendFacts(b []byte, instr ir.Instr) []byte {
	switch in := instr.(type) {
	case *ir.Call:
		if in.Declared != nil {
			b = append(append(append(b, " [decl="...), in.Declared.Qualified()...), ']')
		}
		if id, ok := h.d.IdentifyCheck(in); ok {
			b = append(strconv.AppendInt(append(b, " [check="...), int64(id), 10), ']')
		}
		if h.d.IsGetSecurityManager(in) {
			b = append(b, " [gsm]"...)
		}
		if h.d.IsDoPrivileged(in) {
			b = h.appendRunFact(b, in)
		}
		if target := h.res.Resolve(in); target == nil {
			b = append(b, " [target=?]"...)
		} else {
			b = h.appendTarget(append(b, " [target="...), target)
		}
	case *ir.FieldLoad:
		b = appendFieldFact(b, in.Field)
	case *ir.FieldStore:
		b = appendFieldFact(b, in.Field)
	}
	return b
}

// appendRunFact records which run() implementation a doPrivileged call
// binds to (mirroring Analyzer.resolveRun), so changing an action class
// invalidates every method that enters it via doPrivileged.
func (h *methodHasher) appendRunFact(b []byte, c *ir.Call) []byte {
	if len(c.Args) > 0 {
		if l, ok := c.Args[0].(*ir.Local); ok && l.Type.Class != nil {
			if run := h.res.ResolveOn(l.Type.Class, "run", 0); run != nil {
				return h.appendTarget(append(b, " [dopriv run="...), run)
			}
		}
	}
	return append(b, " [dopriv run=?]"...)
}

// appendTarget closes a bound-method fact: the method and whether it is
// native or has a body.
func (h *methodHasher) appendTarget(b []byte, m *types.Method) []byte {
	b = append(b, m.Qualified()...)
	b = strconv.AppendBool(append(b, " native="...), m.IsNative())
	b = strconv.AppendBool(append(b, " body="...), h.prog.FuncOf(m) != nil)
	return append(b, ']')
}

func appendFieldFact(b []byte, f *types.Field) []byte {
	if f == nil {
		return append(b, " [field=?]"...)
	}
	b = append(append(append(append(b, " [field="...), f.Class.Name...), '.'), f.Name...)
	b = strconv.AppendBool(append(b, " private="...), f.IsPrivate())
	return append(b, ']')
}
