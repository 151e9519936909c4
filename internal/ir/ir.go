// Package ir defines a Jimple-like three-address intermediate representation
// for MJ methods, and the lowering from AST to IR.
//
// Each method body becomes a Func: a list of basic blocks of simple
// instructions, ending in explicit control transfers. The security policy
// analyses (SPDA/ISPA) and constant propagation all operate on this IR,
// mirroring how the paper's implementation operates on Soot's Jimple.
package ir

import (
	"fmt"
	"strconv"
	"strings"

	"policyoracle/internal/lang"
	"policyoracle/internal/types"
)

// Program pairs a types.Program with the lowered IR of every method body.
type Program struct {
	Types *types.Program
	Funcs map[*types.Method]*Func
	// NumSites is the number of call sites in the program. Every Call
	// instruction carries a dense Site id in [0, NumSites), assigned in
	// deterministic lowering order, so per-site analysis caches can be flat
	// arrays instead of maps keyed on instruction pointers.
	NumSites int
}

// FuncOf returns the IR for m, or nil when m has no body (native/abstract).
func (p *Program) FuncOf(m *types.Method) *Func { return p.Funcs[m] }

// Func is the IR of one method body.
type Func struct {
	Method *types.Method
	Locals []*Local // Locals[0] == this for instance methods; then params
	Params []*Local // parameter locals in declaration order (excludes this)
	This   *Local   // nil for static methods
	Blocks []*Block // Blocks[0] is the entry block
}

// NumInstrs returns the total instruction count across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Local is an IR register: a source variable, parameter, or temporary.
type Local struct {
	Name  string
	Index int
	Type  types.Type
	IsTmp bool
}

func (l *Local) String() string { return l.Name }

// Block is a basic block. The last instruction is always a control
// transfer (If, Goto, Return, or Throw); other instructions are straight-
// line.
type Block struct {
	Index  int
	Instrs []Instr
	Preds  []*Block
	Succs  []*Block
}

// Term returns the block's terminating instruction, or nil when the block
// is empty (only during construction).
func (b *Block) Term() Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return b.Instrs[len(b.Instrs)-1]
}

// ---------------------------------------------------------------------------
// Operands

// Operand is a value usable by an instruction: a Local or a Const.
type Operand interface {
	operand()
	String() string
}

func (*Local) operand() {}

// ConstKind classifies constant operands.
type ConstKind int

// Constant kinds.
const (
	ConstInt ConstKind = iota
	ConstBool
	ConstString
	ConstNull
)

// Const is a constant operand.
type Const struct {
	Kind ConstKind
	Int  int64
	Bool bool
	Str  string
}

func (Const) operand() {}

func (c Const) String() string { return string(c.appendTo(nil)) }

// IntConst returns an integer constant operand.
func IntConst(v int64) Const { return Const{Kind: ConstInt, Int: v} }

// BoolConst returns a boolean constant operand.
func BoolConst(v bool) Const { return Const{Kind: ConstBool, Bool: v} }

// StringConst returns a string constant operand.
func StringConst(s string) Const { return Const{Kind: ConstString, Str: s} }

// NullConst returns the null constant operand.
func NullConst() Const { return Const{Kind: ConstNull} }

// ---------------------------------------------------------------------------
// Instructions

// Instr is implemented by all IR instructions. AppendTo appends the
// instruction's text to b; String returns the same text.
type Instr interface {
	Pos() lang.Pos
	AppendTo(b []byte) []byte
	String() string
}

type instrBase struct{ At lang.Pos }

func (i instrBase) Pos() lang.Pos { return i.At }

// Assign copies an operand into a local.
type Assign struct {
	instrBase
	Dst *Local
	Src Operand
}

// Binary computes Dst = X Op Y.
type Binary struct {
	instrBase
	Dst *Local
	Op  string
	X   Operand
	Y   Operand
}

// Unary computes Dst = Op X ("!" or "-").
type Unary struct {
	instrBase
	Dst *Local
	Op  string
	X   Operand
}

// FieldLoad reads Dst = Obj.Field (Obj nil for a static load).
type FieldLoad struct {
	instrBase
	Dst   *Local
	Obj   *Local       // nil for static fields
	Field *types.Field // nil when the field did not resolve
	Name  string       // source name, kept for unresolved fields
}

// FieldStore writes Obj.Field = Val (Obj nil for a static store).
type FieldStore struct {
	instrBase
	Obj   *Local
	Field *types.Field
	Name  string
	Val   Operand
}

// ArrayLoad reads Dst = Arr[Idx].
type ArrayLoad struct {
	instrBase
	Dst *Local
	Arr Operand
	Idx Operand
}

// ArrayStore writes Arr[Idx] = Val.
type ArrayStore struct {
	instrBase
	Arr Operand
	Idx Operand
	Val Operand
}

// New allocates an instance: Dst = new Class. The constructor is invoked
// by a separate Call with Kind CallSpecial.
type New struct {
	instrBase
	Dst   *Local
	Class *types.Class
	Name  string // unresolved class name fallback
}

// NewArray allocates an array.
type NewArray struct {
	instrBase
	Dst *Local
	Len Operand // may be nil
}

// Cast narrows/checks: Dst = (Type) X.
type Cast struct {
	instrBase
	Dst *Local
	To  types.Type
	X   Operand
}

// InstanceOf tests: Dst = X instanceof Type.
type InstanceOf struct {
	instrBase
	Dst *Local
	X   Operand
	Of  types.Type
}

// CallKind distinguishes dispatch flavors.
type CallKind int

// Call kinds.
const (
	CallVirtual CallKind = iota // instance call, dynamic dispatch
	CallStatic                  // static method call
	CallSpecial                 // constructor or super call, no dispatch
)

func (k CallKind) String() string {
	switch k {
	case CallVirtual:
		return "virtual"
	case CallStatic:
		return "static"
	case CallSpecial:
		return "special"
	}
	return "?"
}

// Call invokes a method. Recv is nil for static calls. StaticType is the
// declared type of the receiver (or the target class for static calls);
// Declared is the statically resolved method declaration when lookup
// succeeded. Dynamic dispatch targets are computed by the callgraph
// package.
type Call struct {
	instrBase
	Dst        *Local // nil when the result is unused
	Kind       CallKind
	Recv       *Local
	StaticType *types.Class
	Declared   *types.Method
	Name       string
	Args       []Operand
	Site       int // dense program-wide call-site id (see Program.NumSites)
}

// If branches on a boolean operand. Succs[0] is the true edge and
// Succs[1] the false edge of the containing block.
type If struct {
	instrBase
	Cond Operand
}

// Goto transfers to the single successor.
type Goto struct{ instrBase }

// Return exits the method. Val is nil for void returns.
type Return struct {
	instrBase
	Val Operand
}

// Throw raises an exception; control leaves the method (handlers are
// modeled as block successors during lowering).
type Throw struct {
	instrBase
	Val Operand
}

// The append renderers below are the one rendering of an instruction:
// String wraps them, and oracle.MethodHashes hashes their bytes, so their
// output must not change (TestInstrStringPinned).

// appendOperand renders an operand; a missing one renders as "_".
func appendOperand(b []byte, o Operand) []byte {
	switch o := o.(type) {
	case *Local:
		return append(b, o.Name...)
	case Const:
		return o.appendTo(b)
	}
	return append(b, '_')
}

// appendDst renders the "dst = " prefix of a value-producing
// instruction; a nil dst renders as "<nil>".
func appendDst(b []byte, dst *Local) []byte {
	if dst == nil {
		b = append(b, "<nil>"...)
	} else {
		b = append(b, dst.Name...)
	}
	return append(b, " = "...)
}

// appendField renders a field access as "obj.name": a static access
// has no object and renders it as "static", and an unresolved field
// renders its source name.
func appendField(b []byte, obj *Local, f *types.Field, name string) []byte {
	if obj == nil {
		b = append(b, "static"...)
	} else {
		b = append(b, obj.Name...)
	}
	if f != nil {
		name = f.Name
	}
	return append(append(b, '.'), name...)
}

func (c Const) appendTo(b []byte) []byte {
	switch c.Kind {
	case ConstInt:
		return strconv.AppendInt(b, c.Int, 10)
	case ConstBool:
		return strconv.AppendBool(b, c.Bool)
	case ConstString:
		return strconv.AppendQuote(b, c.Str)
	case ConstNull:
		return append(b, "null"...)
	}
	return append(b, '?')
}

func (i *Assign) AppendTo(b []byte) []byte {
	return appendOperand(appendDst(b, i.Dst), i.Src)
}

func (i *Binary) AppendTo(b []byte) []byte {
	b = appendOperand(appendDst(b, i.Dst), i.X)
	b = append(append(append(b, ' '), i.Op...), ' ')
	return appendOperand(b, i.Y)
}

func (i *Unary) AppendTo(b []byte) []byte {
	return appendOperand(append(appendDst(b, i.Dst), i.Op...), i.X)
}

func (i *FieldLoad) AppendTo(b []byte) []byte {
	return appendField(appendDst(b, i.Dst), i.Obj, i.Field, i.Name)
}

func (i *FieldStore) AppendTo(b []byte) []byte {
	b = appendField(b, i.Obj, i.Field, i.Name)
	return appendOperand(append(b, " = "...), i.Val)
}

func (i *ArrayLoad) AppendTo(b []byte) []byte {
	b = append(appendOperand(appendDst(b, i.Dst), i.Arr), '[')
	return append(appendOperand(b, i.Idx), ']')
}

func (i *ArrayStore) AppendTo(b []byte) []byte {
	b = append(appendOperand(b, i.Arr), '[')
	b = append(appendOperand(b, i.Idx), "] = "...)
	return appendOperand(b, i.Val)
}

func (i *New) AppendTo(b []byte) []byte {
	name := i.Name
	if i.Class != nil {
		name = i.Class.Name
	}
	return append(append(appendDst(b, i.Dst), "new "...), name...)
}

func (i *NewArray) AppendTo(b []byte) []byte {
	b = append(appendDst(b, i.Dst), "newarray["...)
	return append(appendOperand(b, i.Len), ']')
}

func (i *Cast) AppendTo(b []byte) []byte {
	b = append(append(appendDst(b, i.Dst), '('), i.To.SimpleName()...)
	return appendOperand(append(b, ") "...), i.X)
}

func (i *InstanceOf) AppendTo(b []byte) []byte {
	b = append(appendOperand(appendDst(b, i.Dst), i.X), " instanceof "...)
	return append(b, i.Of.SimpleName()...)
}

func (i *Call) AppendTo(b []byte) []byte {
	if i.Dst != nil {
		b = appendDst(b, i.Dst)
	}
	b = append(append(b, i.Kind.String()...), ' ')
	if i.Recv != nil {
		b = append(append(b, i.Recv.Name...), '.')
	} else if i.StaticType != nil {
		b = append(append(b, i.StaticType.Simple...), '.')
	}
	b = append(append(b, i.Name...), '(')
	for n, a := range i.Args {
		if n > 0 {
			b = append(b, ", "...)
		}
		b = appendOperand(b, a)
	}
	return append(b, ')')
}

func (i *If) AppendTo(b []byte) []byte { return appendOperand(append(b, "if "...), i.Cond) }

func (i *Goto) AppendTo(b []byte) []byte { return append(b, "goto"...) }

func (i *Return) AppendTo(b []byte) []byte { return appendOperand(append(b, "return "...), i.Val) }

func (i *Throw) AppendTo(b []byte) []byte { return appendOperand(append(b, "throw "...), i.Val) }

func (i *Assign) String() string     { return string(i.AppendTo(nil)) }
func (i *Binary) String() string     { return string(i.AppendTo(nil)) }
func (i *Unary) String() string      { return string(i.AppendTo(nil)) }
func (i *FieldLoad) String() string  { return string(i.AppendTo(nil)) }
func (i *FieldStore) String() string { return string(i.AppendTo(nil)) }
func (i *ArrayLoad) String() string  { return string(i.AppendTo(nil)) }
func (i *ArrayStore) String() string { return string(i.AppendTo(nil)) }
func (i *New) String() string        { return string(i.AppendTo(nil)) }
func (i *NewArray) String() string   { return string(i.AppendTo(nil)) }
func (i *Cast) String() string       { return string(i.AppendTo(nil)) }
func (i *InstanceOf) String() string { return string(i.AppendTo(nil)) }
func (i *Call) String() string       { return string(i.AppendTo(nil)) }
func (i *If) String() string         { return string(i.AppendTo(nil)) }
func (i *Goto) String() string       { return string(i.AppendTo(nil)) }
func (i *Return) String() string     { return string(i.AppendTo(nil)) }
func (i *Throw) String() string      { return string(i.AppendTo(nil)) }

// Dump renders the function for debugging and golden tests.
func (f *Func) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s\n", f.Method.Qualified())
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:", b.Index)
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
	}
	return sb.String()
}
