// Package exceptions implements the generalization sketched in the paper's
// Section 8: extracting and comparing the exception semantics of API
// implementations. Figure 8's interoperability bug — the JDK calls
// System.exit where Harmony throws UnsupportedEncodingException — shows up
// both as a security-policy difference (checkExit) and as a difference in
// the exceptions an entry point may propagate; this analysis detects the
// latter directly.
//
// For every API entry point it computes the MAY-thrown set: the classes of
// exception values thrown on some path, propagated interprocedurally over
// resolved call sites, with thrown types removed by intervening catch
// clauses of matching static type. The comparison mirrors the policy
// differencing: implementations of the same entry point should propagate
// the same exception types.
package exceptions

import (
	"sort"
	"strings"

	"policyoracle/internal/ast"
	"policyoracle/internal/callgraph"
	"policyoracle/internal/ir"
	"policyoracle/internal/types"
)

// TypeSet is a set of exception class simple names.
type TypeSet map[string]bool

// Sorted returns the names in order.
func (s TypeSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s TypeSet) String() string {
	return "{" + strings.Join(s.Sorted(), ", ") + "}"
}

// Equal reports set equality.
func (s TypeSet) Equal(t TypeSet) bool {
	if len(s) != len(t) {
		return false
	}
	for n := range s {
		if !t[n] {
			return false
		}
	}
	return true
}

// Analyzer computes thrown-exception summaries for one program.
type Analyzer struct {
	prog *ir.Program
	res  *callgraph.Resolver
	// summaries maps each method to the exception simple names it may
	// propagate to callers.
	summaries  map[*types.Method]TypeSet
	catchCache map[*ir.Func]map[string]bool
}

// New prepares an exception analyzer. The analysis is a context-
// insensitive fixed point over the call graph — exception types, unlike
// security policies, rarely depend on calling context.
func New(prog *ir.Program, res *callgraph.Resolver) *Analyzer {
	a := &Analyzer{prog: prog, res: res, summaries: make(map[*types.Method]TypeSet)}
	a.solve()
	return a
}

// ThrownBy returns the exception class names entry point m may propagate.
func (a *Analyzer) ThrownBy(m *types.Method) TypeSet {
	if s, ok := a.summaries[m]; ok {
		return s
	}
	return TypeSet{}
}

// Thrown returns thrown sets for all entry points, keyed by qualified
// signature.
func (a *Analyzer) Thrown() map[string]TypeSet {
	out := make(map[string]TypeSet)
	for _, m := range a.prog.Types.EntryPoints() {
		out[m.Qualified()] = a.ThrownBy(m)
	}
	return out
}

func (a *Analyzer) solve() {
	// Initialize with locally thrown types, then propagate through call
	// sites until fixed point, filtering at catch boundaries.
	methods := a.prog.Types.AllMethods()
	for _, m := range methods {
		if f := a.prog.FuncOf(m); f != nil {
			a.summaries[m] = a.localThrows(f)
		}
	}
	changed := true
	for changed {
		changed = false
		for _, m := range methods {
			f := a.prog.FuncOf(m)
			if f == nil {
				continue
			}
			sum := a.summaries[m]
			for _, b := range f.Blocks {
				caught := a.catchersOf(f, b)
				for _, instr := range b.Instrs {
					c, ok := instr.(*ir.Call)
					if !ok {
						continue
					}
					t := a.res.Resolve(c)
					if t == nil {
						continue
					}
					for name := range a.summaries[t] {
						if caught[name] || sum[name] {
							continue
						}
						sum[name] = true
						changed = true
					}
				}
			}
			a.summaries[m] = sum
		}
	}
}

// localThrows collects the classes of values thrown directly by f that are
// not caught within f.
func (a *Analyzer) localThrows(f *ir.Func) TypeSet {
	out := TypeSet{}
	for _, b := range f.Blocks {
		caught := a.catchersOf(f, b)
		for _, instr := range b.Instrs {
			th, ok := instr.(*ir.Throw)
			if !ok {
				continue
			}
			name := thrownTypeName(th.Val)
			if name == "" || caught[name] {
				continue
			}
			out[name] = true
		}
	}
	return out
}

// catchersOf approximates the handlers covering block b: the lowering
// gives the pre-try block an edge to each catch entry, so a block's
// catching context is derived from catch-entry blocks dominating... For
// simplicity and soundness toward over-reporting, we treat every catch
// clause in the function as covering every block: a thrown type matching
// any local handler is assumed handled. This under-approximates thrown
// sets uniformly across implementations, so the *comparison* stays sound.
func (a *Analyzer) catchersOf(f *ir.Func, _ *ir.Block) map[string]bool {
	if s, ok := a.catchCache[f]; ok {
		return s
	}
	out := map[string]bool{}
	m := f.Method
	if m.Decl != nil && m.Decl.Body != nil {
		collectCatches(m, out)
	}
	if a.catchCache == nil {
		a.catchCache = map[*ir.Func]map[string]bool{}
	}
	a.catchCache[f] = out
	return out
}

func thrownTypeName(op ir.Operand) string {
	l, ok := op.(*ir.Local)
	if !ok {
		return ""
	}
	return l.Type.SimpleName()
}

// collectCatches gathers the exception type names (and their subtypes)
// caught by any handler in m's body.
func collectCatches(m *types.Method, out map[string]bool) {
	var walkStmt func(s ast.Stmt)
	walkStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			for _, st := range s.Stmts {
				walkStmt(st)
			}
		case *ast.IfStmt:
			walkStmt(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *ast.WhileStmt:
			walkStmt(s.Body)
		case *ast.DoWhileStmt:
			walkStmt(s.Body)
		case *ast.ForStmt:
			walkStmt(s.Body)
		case *ast.SyncStmt:
			walkStmt(s.Body)
		case *ast.SwitchStmt:
			for _, c := range s.Cases {
				for _, st := range c.Stmts {
					walkStmt(st)
				}
			}
		case *ast.TryStmt:
			for _, cc := range s.Catches {
				addCatch(m, cc.Type.Name, out)
			}
			walkStmt(s.Body)
			for _, cc := range s.Catches {
				walkStmt(cc.Body)
			}
			if s.Finally != nil {
				walkStmt(s.Finally)
			}
		}
	}
	walkStmt(m.Decl.Body)
}

// addCatch records the caught class and every subtype (a handler for a
// supertype catches subtype throws).
func addCatch(m *types.Method, name string, out map[string]bool) {
	c := m.Class.Program.Lookup(name, m.Class.File)
	if c == nil {
		out[simpleOf(name)] = true
		return
	}
	for _, sub := range c.AllSubtypes() {
		out[sub.Simple] = true
	}
}

func simpleOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// Diff compares the thrown sets of two implementations; both analyzers
// must come from programs of the same API.
type Difference struct {
	Entry string
	A, B  TypeSet
}

// Compare returns the entry points (shared by both programs) whose thrown
// sets differ, sorted by signature.
func Compare(a, b *Analyzer) []Difference {
	ta, tb := a.Thrown(), b.Thrown()
	var out []Difference
	for sig, sa := range ta {
		sb, ok := tb[sig]
		if !ok {
			continue
		}
		if !sa.Equal(sb) {
			out = append(out, Difference{Entry: sig, A: sa, B: sb})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entry < out[j].Entry })
	return out
}
