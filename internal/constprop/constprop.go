// Package constprop implements conditional constant propagation over the
// IR in the style of Wegman–Zadeck: constants (including null/non-null
// reference facts) flow through assignments and fold conditional branches,
// so blocks guarded by constant conditions are excluded from the security
// policy analyses (the paper's "eliminates unexecutable statements").
//
// The interprocedural part — binding constant arguments to callee
// parameters — is driven by the ISPA analysis, which calls Analyze with
// per-context parameter values and memoizes on them.
package constprop

import (
	"fmt"

	"policyoracle/internal/ir"
)

// ValueKind classifies an abstract value.
type ValueKind int

// Value kinds. Undef is the lattice top (no information yet — optimistic);
// Varies is the bottom (any runtime value).
const (
	Undef ValueKind = iota
	Int
	Bool
	Str
	Null
	NonNull
	Varies
)

// Value is an abstract constant value.
type Value struct {
	Kind ValueKind
	Int  int64
	Bool bool
	Str  string
}

// Convenience constructors.
func UndefVal() Value       { return Value{Kind: Undef} }
func VariesVal() Value      { return Value{Kind: Varies} }
func IntVal(v int64) Value  { return Value{Kind: Int, Int: v} }
func BoolVal(v bool) Value  { return Value{Kind: Bool, Bool: v} }
func StrVal(s string) Value { return Value{Kind: Str, Str: s} }
func NullVal() Value        { return Value{Kind: Null} }
func NonNullVal() Value     { return Value{Kind: NonNull} }

func (v Value) String() string {
	switch v.Kind {
	case Undef:
		return "undef"
	case Int:
		return fmt.Sprintf("%d", v.Int)
	case Bool:
		return fmt.Sprintf("%t", v.Bool)
	case Str:
		return fmt.Sprintf("%q", v.Str)
	case Null:
		return "null"
	case NonNull:
		return "nonnull"
	default:
		return "varies"
	}
}

// Meet combines two abstract values along control-flow joins.
func Meet(a, b Value) Value {
	if a.Kind == Undef {
		return b
	}
	if b.Kind == Undef {
		return a
	}
	if a.Kind == Varies || b.Kind == Varies {
		return VariesVal()
	}
	if a == b {
		return a
	}
	// Distinct non-null reference facts stay NonNull.
	if isRefNonNull(a) && isRefNonNull(b) {
		return NonNullVal()
	}
	return VariesVal()
}

func isRefNonNull(v Value) bool { return v.Kind == Str || v.Kind == NonNull }

// Config adjusts the abstract semantics.
type Config struct {
	// AssumeSecurityManager makes System.getSecurityManager() return a
	// non-null value, so `if (sm != null)` guards fold to the taken branch
	// and null-guarded checks participate in MUST policies.
	AssumeSecurityManager bool
	// IsGetSecurityManager identifies the getSecurityManager call; it is
	// injected to avoid a dependency cycle with secmodel.
	IsGetSecurityManager func(*ir.Call) bool
}

// Result holds the outcome of conditional constant propagation for one
// function under one parameter binding: which blocks and edges can
// execute, and the abstract argument values at every live call site. It
// shares no memory with the Scratch it was computed on.
type Result struct {
	blockLive []bool
	// edgeLive is the per-successor-edge feasibility, flattened over all
	// blocks: the i'th successor edge of block b lives at
	// succOff[b.Index]+i. A flat slice replaces the former map keyed on
	// (block, succ) pairs — edge indices are dense once block indices are.
	edgeLive []bool
	succOff  []int
	// args holds the argument values of the call whose site id is
	// firstSite+i at index i, nil when that call is unreachable. Lowering
	// numbers a function's call sites densely, so the lookup is an index,
	// not a hash. The vectors are carved from one arena the Result owns:
	// callers keep them by reference.
	firstSite int
	args      [][]Value
}

// EdgeFeasible reports whether the i'th successor edge of b can execute.
func (r *Result) EdgeFeasible(b *ir.Block, i int) bool {
	return r.edgeLive[r.succOff[b.Index]+i]
}

// CallArgs returns the abstract values of the call's arguments at the call
// site, or nil when the call is unreachable.
func (r *Result) CallArgs(c *ir.Call) []Value {
	if i := c.Site - r.firstSite; i >= 0 && i < len(r.args) {
		return r.args[i]
	}
	return nil
}

// Scratch is the working memory of Analyze: the value arena that holds
// the block environments, the worklist and the worklist's membership
// flags. A caller that runs many solves passes one Scratch to each, so a
// warm solve allocates only its Result. The zero value is ready to use;
// a Scratch must not be used by two solves at once.
type Scratch struct {
	vals     []Value // the transfer environment, then one inbound environment per block
	worklist []*ir.Block
	flags    []bool // in-worklist flags, then the visited block's edge feasibility
}

// resize returns buf with length n, reusing its backing array when it is
// large enough. The contents are left as they were.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// absent marks a local with no binding yet in an environment — the
// analogue of a missing map key in a map-based environment. It is
// distinct from Undef: a local can legitimately be bound to Undef while
// operands settle, whereas reading an absent local yields Varies.
const absent ValueKind = -1

// clearEnv marks every local in env absent.
func clearEnv(env []Value) {
	for i := range env {
		env[i] = Value{Kind: absent}
	}
}

// Analyze runs conditional constant propagation on f, using s as its
// working memory. params provides the abstract values of f.Params
// (missing entries default to Varies).
//
// Environments are flat slices indexed by Local.Index (dense per
// function), so block transfer and meet are O(locals) array walks with no
// hashing; the worklist pops with an index cursor instead of re-slicing.
func Analyze(f *ir.Func, params []Value, cfg Config, s *Scratch) *Result {
	nb := len(f.Blocks)
	r := &Result{}
	if nb == 0 {
		return r
	}
	r.succOff = make([]int, nb+1)
	maxSuccs := 0
	for i, b := range f.Blocks {
		r.succOff[i+1] = r.succOff[i] + len(b.Succs)
		if len(b.Succs) > maxSuccs {
			maxSuccs = len(b.Succs)
		}
	}
	ne := r.succOff[nb]
	live := make([]bool, nb+ne)
	r.blockLive = live[:nb:nb]
	r.edgeLive = live[nb:]

	// The scratch value arena holds the transfer environment at
	// [0, nl) and block b's inbound environment at [(b+1)*nl, (b+2)*nl),
	// filled on the block's first visit, so a warm solve allocates
	// nothing but its Result, regardless of CFG size.
	s.flags = resize(s.flags, nb+maxSuccs)
	inList := s.flags[:nb]
	clear(inList)
	feasibleBuf := s.flags[nb:]

	nl := len(f.Locals)
	s.vals = resize(s.vals, (nb+1)*nl)
	env := s.vals[:nl] // overwritten from a block's inbound environment before each transfer
	env0 := s.vals[nl : 2*nl]
	clearEnv(env0)
	if f.This != nil {
		env0[f.This.Index] = NonNullVal()
	}
	for i, p := range f.Params {
		v := VariesVal()
		if i < len(params) && params[i].Kind != Undef {
			v = params[i]
		}
		env0[p.Index] = v
	}
	r.blockLive[0] = true

	worklist := append(s.worklist[:0], f.Blocks[0])
	head := 0
	inList[0] = true

	for head < len(worklist) {
		b := worklist[head]
		worklist[head] = nil
		head++
		if head == len(worklist) {
			worklist = worklist[:0]
			head = 0
		}
		inList[b.Index] = false

		copy(env, s.vals[(b.Index+1)*nl:(b.Index+2)*nl])
		feasible := transferBlock(b, env, cfg, nil, feasibleBuf)
		for i, succ := range b.Succs {
			if !feasible[i] {
				continue
			}
			r.edgeLive[r.succOff[b.Index]+i] = true
			in := s.vals[(succ.Index+1)*nl : (succ.Index+2)*nl]
			changed := true
			if r.blockLive[succ.Index] {
				changed = meetInto(in, env)
			} else {
				copy(in, env)
				r.blockLive[succ.Index] = true
			}
			if changed && !inList[succ.Index] {
				worklist = append(worklist, succ)
				inList[succ.Index] = true
			}
		}
	}
	s.worklist = worklist

	// Final pass: record abstract argument values at every live call site.
	// Size the site index and the argument arena first, so recording
	// allocates nothing per call.
	firstSite, lastSite, nArgs := -1, -1, 0
	for _, b := range f.Blocks {
		if !r.blockLive[b.Index] {
			continue
		}
		for _, instr := range b.Instrs {
			if c, ok := instr.(*ir.Call); ok {
				if firstSite < 0 || c.Site < firstSite {
					firstSite = c.Site
				}
				lastSite = max(lastSite, c.Site)
				nArgs += len(c.Args)
			}
		}
	}
	if firstSite < 0 {
		return r
	}
	r.firstSite = firstSite
	r.args = make([][]Value, lastSite-firstSite+1)
	argArena := make([]Value, nArgs)
	for _, b := range f.Blocks {
		if !r.blockLive[b.Index] {
			continue
		}
		for _, instr := range b.Instrs {
			if c, ok := instr.(*ir.Call); ok {
				n := len(c.Args)
				r.args[c.Site-firstSite], argArena = argArena[:n:n], argArena[n:]
			}
		}
		copy(env, s.vals[(b.Index+1)*nl:(b.Index+2)*nl])
		transferBlock(b, env, cfg, r, feasibleBuf)
	}
	return r
}

// meetInto merges src into dst pointwise, reporting whether dst changed.
// Absent locals on the destination side are treated as Undef for the
// meet (and always count as a change, mirroring map insertion); absent
// locals on the source side are skipped.
func meetInto(dst, src []Value) bool {
	changed := false
	for k := range src {
		sv := src[k]
		if sv.Kind == absent {
			continue
		}
		dv := dst[k]
		if dv.Kind == absent {
			dst[k] = sv // Meet(Undef, sv) == sv
			changed = true
			continue
		}
		nv := Meet(dv, sv)
		if nv != dv {
			dst[k] = nv
			changed = true
		}
	}
	return changed
}

// transferBlock interprets b's instructions over env, returning per-edge
// feasibility for its successors (aliasing the scratch buffer). When rec
// is non-nil, call-site argument values are written into the vectors
// already carved for them in rec.args.
func transferBlock(b *ir.Block, env []Value, cfg Config, rec *Result, scratch []bool) []bool {
	feasible := scratch[:len(b.Succs)]
	for i := range feasible {
		feasible[i] = true
	}
	for _, instr := range b.Instrs {
		switch instr := instr.(type) {
		case *ir.Assign:
			env[instr.Dst.Index] = operandVal(instr.Src, env)
		case *ir.Binary:
			env[instr.Dst.Index] = evalBinary(instr.Op, operandVal(instr.X, env), operandVal(instr.Y, env))
		case *ir.Unary:
			env[instr.Dst.Index] = evalUnary(instr.Op, operandVal(instr.X, env))
		case *ir.FieldLoad:
			env[instr.Dst.Index] = VariesVal() // not field-sensitive (Section 6.4)
		case *ir.ArrayLoad:
			env[instr.Dst.Index] = VariesVal()
		case *ir.New:
			env[instr.Dst.Index] = NonNullVal()
		case *ir.NewArray:
			env[instr.Dst.Index] = NonNullVal()
		case *ir.Cast:
			env[instr.Dst.Index] = operandVal(instr.X, env) // value-preserving
		case *ir.InstanceOf:
			v := operandVal(instr.X, env)
			if v.Kind == Null {
				env[instr.Dst.Index] = BoolVal(false) // null instanceof T == false
			} else {
				env[instr.Dst.Index] = VariesVal()
			}
		case *ir.Call:
			if rec != nil {
				args := rec.args[instr.Site-rec.firstSite]
				for i, a := range instr.Args {
					args[i] = operandVal(a, env)
				}
			}
			if instr.Dst != nil {
				if cfg.AssumeSecurityManager && cfg.IsGetSecurityManager != nil && cfg.IsGetSecurityManager(instr) {
					env[instr.Dst.Index] = NonNullVal()
				} else {
					env[instr.Dst.Index] = VariesVal()
				}
			}
		case *ir.If:
			v := operandVal(instr.Cond, env)
			if v.Kind == Bool && len(feasible) == 2 {
				if v.Bool {
					feasible[1] = false
				} else {
					feasible[0] = false
				}
			}
		case *ir.FieldStore, *ir.ArrayStore, *ir.Goto, *ir.Return, *ir.Throw:
			// No effect on local constants.
		}
	}
	return feasible
}

func operandVal(op ir.Operand, env []Value) Value {
	switch op := op.(type) {
	case nil:
		return VariesVal()
	case *ir.Local:
		if v := env[op.Index]; v.Kind != absent {
			return v
		}
		return VariesVal() // use before def (should not happen in lowered IR)
	case ir.Const:
		switch op.Kind {
		case ir.ConstInt:
			return IntVal(op.Int)
		case ir.ConstBool:
			return BoolVal(op.Bool)
		case ir.ConstString:
			return StrVal(op.Str)
		case ir.ConstNull:
			return NullVal()
		}
	}
	return VariesVal()
}

func evalUnary(op string, x Value) Value {
	switch op {
	case "!":
		if x.Kind == Bool {
			return BoolVal(!x.Bool)
		}
	case "-":
		if x.Kind == Int {
			return IntVal(-x.Int)
		}
	}
	if x.Kind == Varies || x.Kind == Undef {
		return x
	}
	return VariesVal()
}

func evalBinary(op string, x, y Value) Value {
	// Equality over nullness facts.
	if op == "==" || op == "!=" {
		if eq, known := refEquality(x, y); known {
			if op == "!=" {
				eq = !eq
			}
			return BoolVal(eq)
		}
	}
	if x.Kind == Undef || y.Kind == Undef {
		return UndefVal() // optimistic until both operands settle
	}
	if x.Kind == Int && y.Kind == Int {
		return evalIntBinary(op, x.Int, y.Int)
	}
	if x.Kind == Bool && y.Kind == Bool {
		switch op {
		case "&":
			return BoolVal(x.Bool && y.Bool)
		case "|":
			return BoolVal(x.Bool || y.Bool)
		case "^":
			return BoolVal(x.Bool != y.Bool)
		}
	}
	if x.Kind == Str && y.Kind == Str && op == "+" {
		return StrVal(x.Str + y.Str)
	}
	return VariesVal()
}

// refEquality decides ==/!= when nullness facts suffice.
func refEquality(x, y Value) (eq, known bool) {
	switch {
	case x.Kind == Null && y.Kind == Null:
		return true, true
	case x.Kind == Null && isRefNonNull(y):
		return false, true
	case isRefNonNull(x) && y.Kind == Null:
		return false, true
	case x.Kind == Int && y.Kind == Int:
		return x.Int == y.Int, true
	case x.Kind == Bool && y.Kind == Bool:
		return x.Bool == y.Bool, true
	case x.Kind == Str && y.Kind == Str:
		// Reference equality of string constants is identity in our model.
		return x.Str == y.Str, true
	}
	return false, false
}

func evalIntBinary(op string, a, b int64) Value {
	switch op {
	case "+":
		return IntVal(a + b)
	case "-":
		return IntVal(a - b)
	case "*":
		return IntVal(a * b)
	case "/":
		if b == 0 {
			return VariesVal()
		}
		return IntVal(a / b)
	case "%":
		if b == 0 {
			return VariesVal()
		}
		return IntVal(a % b)
	case "&":
		return IntVal(a & b)
	case "|":
		return IntVal(a | b)
	case "^":
		return IntVal(a ^ b)
	case "==":
		return BoolVal(a == b)
	case "!=":
		return BoolVal(a != b)
	case "<":
		return BoolVal(a < b)
	case ">":
		return BoolVal(a > b)
	case "<=":
		return BoolVal(a <= b)
	case ">=":
		return BoolVal(a >= b)
	}
	return VariesVal()
}
