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
	"strings"

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

// IsConst reports whether v carries a concrete constant or nullness fact.
func (v Value) IsConst() bool {
	switch v.Kind {
	case Int, Bool, Str, Null, NonNull:
		return true
	}
	return false
}

// Key renders a canonical encoding for memoization keys.
func (v Value) Key() string {
	switch v.Kind {
	case Undef:
		return "u"
	case Int:
		return fmt.Sprintf("i%d", v.Int)
	case Bool:
		return fmt.Sprintf("b%t", v.Bool)
	case Str:
		return "s" + v.Str
	case Null:
		return "0"
	case NonNull:
		return "n"
	default:
		return "*"
	}
}

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

// KeyOf encodes a parameter value list for memoization.
func KeyOf(vals []Value) string {
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteString(v.Key())
		sb.WriteByte(';')
	}
	return sb.String()
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
// function under one parameter binding.
type Result struct {
	fn        *ir.Func
	blockLive []bool
	// edgeLive is the per-successor-edge feasibility, flattened over all
	// blocks: the i'th successor edge of block b lives at
	// succOff[b.Index]+i. A flat slice replaces the former map keyed on
	// (block, succ) pairs — edge indices are dense once block indices are.
	edgeLive []bool
	succOff  []int
	callArgs map[*ir.Call][]Value
	// argArena backs every callArgs slice; argOff is the carve cursor.
	// One allocation for all live call sites instead of one per call.
	argArena []Value
	argOff   int
}

// EdgeFeasible reports whether the i'th successor edge of b can execute.
func (r *Result) EdgeFeasible(b *ir.Block, i int) bool {
	return r.edgeLive[r.succOff[b.Index]+i]
}

// CallArgs returns the abstract values of the call's arguments at the call
// site, or nil when the call is unreachable.
func (r *Result) CallArgs(c *ir.Call) []Value { return r.callArgs[c] }

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

// Analyze runs conditional constant propagation on f. params provides the
// abstract values of f.Params (missing entries default to Varies).
//
// Environments are flat slices indexed by Local.Index (dense per
// function), so block transfer and meet are O(locals) array walks with no
// hashing; the worklist pops with an index cursor instead of re-slicing.
func Analyze(f *ir.Func, params []Value, cfg Config) *Result {
	nb := len(f.Blocks)
	r := &Result{
		fn:        f,
		blockLive: make([]bool, nb),
		succOff:   make([]int, nb+1),
	}
	if nb == 0 {
		return r
	}
	maxSuccs := 0
	for i, b := range f.Blocks {
		r.succOff[i+1] = r.succOff[i] + len(b.Succs)
		if len(b.Succs) > maxSuccs {
			maxSuccs = len(b.Succs)
		}
	}
	// One []bool arena backs edge liveness, the in-worklist flags, and the
	// per-edge feasibility scratch; one []Value arena backs the scratch
	// environment and every block's inbound environment. Environments are
	// carved from the arena on a block's first visit, so an Analyze call
	// makes a constant number of allocations regardless of CFG size.
	ne := r.succOff[nb]
	bools := make([]bool, ne+nb+maxSuccs)
	r.edgeLive = bools[:ne:ne]
	inList := bools[ne : ne+nb]
	scratch := bools[ne+nb:]

	nl := len(f.Locals)
	arena := make([]Value, (nb+1)*nl)
	env := arena[:nl] // scratch, overwritten per block visit
	clearEnv(env)

	in := make([][]Value, nb)
	env0 := arena[nl : 2*nl]
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
	in[0] = env0
	r.blockLive[0] = true

	worklist := make([]*ir.Block, 1, nb)
	worklist[0] = f.Blocks[0]
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

		copy(env, in[b.Index])
		feasible := transferBlock(b, env, cfg, nil, scratch)
		for i, s := range b.Succs {
			if !feasible[i] {
				continue
			}
			r.edgeLive[r.succOff[b.Index]+i] = true
			changed := false
			if in[s.Index] == nil {
				slot := arena[(1+s.Index)*nl : (2+s.Index)*nl]
				copy(slot, env)
				in[s.Index] = slot
				changed = true
			} else {
				changed = meetInto(in[s.Index], env)
			}
			if !r.blockLive[s.Index] || changed {
				r.blockLive[s.Index] = true
				if !inList[s.Index] {
					worklist = append(worklist, s)
					inList[s.Index] = true
				}
			}
		}
	}

	// Final pass: record abstract argument values at every live call site.
	// Size the argument arena and the callArgs map first so recording
	// allocates nothing per call.
	nCalls, nArgs := 0, 0
	for _, b := range f.Blocks {
		if !r.blockLive[b.Index] || in[b.Index] == nil {
			continue
		}
		for _, instr := range b.Instrs {
			if c, ok := instr.(*ir.Call); ok {
				nCalls++
				nArgs += len(c.Args)
			}
		}
	}
	if nCalls > 0 {
		r.callArgs = make(map[*ir.Call][]Value, nCalls)
		r.argArena = make([]Value, nArgs)
		for _, b := range f.Blocks {
			if !r.blockLive[b.Index] || in[b.Index] == nil {
				continue
			}
			copy(env, in[b.Index])
			transferBlock(b, env, cfg, r, scratch)
		}
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
// is non-nil, call-site argument values are carved from rec.argArena and
// stored into rec.callArgs.
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
				args := rec.argArena[rec.argOff : rec.argOff+len(instr.Args) : rec.argOff+len(instr.Args)]
				rec.argOff += len(instr.Args)
				for i, a := range instr.Args {
					args[i] = operandVal(a, env)
				}
				rec.callArgs[instr] = args
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
