package constprop

import (
	"testing"
	"testing/quick"

	"policyoracle/internal/ast"
	"policyoracle/internal/ir"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
	"policyoracle/internal/types"
)

func lowerFunc(t testing.TB, body string, params string) *ir.Func {
	t.Helper()
	src := "package p; class C { int f; void m(" + params + ") { " + body + " } void callee(Object x, int y) { } }"
	var diags lang.Diagnostics
	files := []*ast.File{parser.ParseFile("t.mj", src, &diags)}
	tp := types.Build("t", files, &diags)
	p := ir.LowerProgram(tp, &diags)
	if diags.HasErrors() {
		t.Fatalf("errors: %v", diags.Err())
	}
	c := tp.Classes["p.C"]
	for _, m := range c.Methods {
		if m.Name == "m" {
			return p.FuncOf(m)
		}
	}
	t.Fatal("m not found")
	return nil
}

// liveCount counts reachable blocks under the analysis.
func liveCount(f *ir.Func, r *Result) int {
	n := 0
	for _, b := range f.Blocks {
		if r.blockLive[b.Index] {
			n++
		}
	}
	return n
}

func TestConstantFoldingPrunesBranch(t *testing.T) {
	f := lowerFunc(t, `
int x = 3;
if (x > 2) { f = 1; } else { f = 2; }
`, "")
	r := Analyze(f, nil, Config{})
	if liveCount(f, r) == len(f.Blocks) {
		t.Errorf("no block pruned:\n%s", f.Dump())
	}
}

func TestUnknownConditionKeepsBothBranches(t *testing.T) {
	f := lowerFunc(t, `
if (cond) { f = 1; } else { f = 2; }
`, "boolean cond")
	r := Analyze(f, nil, Config{})
	if liveCount(f, r) != len(f.Blocks) {
		t.Errorf("block wrongly pruned:\n%s", f.Dump())
	}
}

func TestParamBindingPrunes(t *testing.T) {
	f := lowerFunc(t, `
if (handler != null) { f = 1; }
f = 2;
`, "Object handler")
	// Without binding: both branches live.
	r := Analyze(f, nil, Config{})
	all := liveCount(f, r)
	// With null binding: the guarded branch dies (Figure 4's mechanism).
	rn := Analyze(f, []Value{NullVal()}, Config{})
	if liveCount(f, rn) >= all {
		t.Errorf("null param binding pruned nothing (%d vs %d)", liveCount(f, rn), all)
	}
	// With non-null binding: the guard's false EDGE dies (the join block
	// stays live through the then-branch).
	rv := Analyze(f, []Value{NonNullVal()}, Config{})
	var ifBlock *ir.Block
	for _, b := range f.Blocks {
		if _, ok := b.Term().(*ir.If); ok {
			ifBlock = b
		}
	}
	if ifBlock == nil {
		t.Fatalf("no If block:\n%s", f.Dump())
	}
	if !rv.EdgeFeasible(ifBlock, 0) || rv.EdgeFeasible(ifBlock, 1) {
		t.Errorf("nonnull binding: want true-edge only, got (%t, %t)",
			rv.EdgeFeasible(ifBlock, 0), rv.EdgeFeasible(ifBlock, 1))
	}
}

func TestCallArgsRecorded(t *testing.T) {
	f := lowerFunc(t, `
callee(null, 3 + 4);
callee(new Object(), y);
`, "int y")
	r := Analyze(f, nil, Config{})
	var calls []*ir.Call
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Name == "callee" {
				calls = append(calls, c)
			}
		}
	}
	if len(calls) != 2 {
		t.Fatalf("got %d calls", len(calls))
	}
	a0 := r.CallArgs(calls[0])
	if a0[0].Kind != Null || a0[1].Kind != Int || a0[1].Int != 7 {
		t.Errorf("call 0 args = %v", a0)
	}
	a1 := r.CallArgs(calls[1])
	if a1[0].Kind != NonNull || a1[1].Kind != Varies {
		t.Errorf("call 1 args = %v", a1)
	}
}

func TestLoopWidensToVaries(t *testing.T) {
	f := lowerFunc(t, `
int i = 0;
while (i < n) { i = i + 1; }
callee(null, i);
`, "int n")
	r := Analyze(f, nil, Config{})
	var call *ir.Call
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*ir.Call); ok && c.Name == "callee" {
				call = c
			}
		}
	}
	args := r.CallArgs(call)
	if args == nil || args[1].Kind != Varies {
		t.Errorf("loop variable should be varies, got %v", args)
	}
}

func TestInstanceofNullFoldsFalse(t *testing.T) {
	f := lowerFunc(t, `
Object o = null;
if (o instanceof C) { f = 1; } else { f = 2; }
`, "")
	r := Analyze(f, nil, Config{})
	if liveCount(f, r) == len(f.Blocks) {
		t.Errorf("null instanceof not folded:\n%s", f.Dump())
	}
}

func TestStringEqualityFolds(t *testing.T) {
	f := lowerFunc(t, `
String s = "a";
if (s == null) { f = 1; } else { f = 2; }
`, "")
	r := Analyze(f, nil, Config{})
	if liveCount(f, r) == len(f.Blocks) {
		t.Errorf("string-null comparison not folded:\n%s", f.Dump())
	}
}

func TestMeetLatticeProperties(t *testing.T) {
	vals := []Value{
		UndefVal(), VariesVal(), IntVal(0), IntVal(7), BoolVal(true), BoolVal(false),
		StrVal("x"), StrVal("y"), NullVal(), NonNullVal(),
	}
	pick := func(i uint8) Value { return vals[int(i)%len(vals)] }
	cfg := &quick.Config{MaxCount: 2000}
	// Commutative and idempotent.
	if err := quick.Check(func(i, j uint8) bool {
		a, b := pick(i), pick(j)
		return Meet(a, b) == Meet(b, a) && Meet(a, a) == a
	}, cfg); err != nil {
		t.Error(err)
	}
	// Associative.
	if err := quick.Check(func(i, j, k uint8) bool {
		a, b, c := pick(i), pick(j), pick(k)
		return Meet(Meet(a, b), c) == Meet(a, Meet(b, c))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Undef is identity; Varies is absorbing.
	if err := quick.Check(func(i uint8) bool {
		a := pick(i)
		return Meet(UndefVal(), a) == a && Meet(VariesVal(), a) == VariesVal()
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestMeetDistinctStringsStayNonNull(t *testing.T) {
	got := Meet(StrVal("a"), StrVal("b"))
	if got.Kind != NonNull {
		t.Errorf("meet of distinct strings = %v", got)
	}
	if Meet(StrVal("a"), NullVal()).Kind != Varies {
		t.Error("string meet null should vary")
	}
}

func TestEvalIntBinary(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want Value
	}{
		{"+", 2, 3, IntVal(5)},
		{"-", 2, 3, IntVal(-1)},
		{"*", 4, 3, IntVal(12)},
		{"/", 7, 2, IntVal(3)},
		{"/", 7, 0, VariesVal()},
		{"%", 7, 2, IntVal(1)},
		{"%", 7, 0, VariesVal()},
		{"==", 2, 2, BoolVal(true)},
		{"!=", 2, 2, BoolVal(false)},
		{"<", 1, 2, BoolVal(true)},
		{">=", 2, 2, BoolVal(true)},
		{"&", 6, 3, IntVal(2)},
		{"|", 6, 3, IntVal(7)},
		{"^", 6, 3, IntVal(5)},
	}
	for _, c := range cases {
		if got := evalIntBinary(c.op, c.a, c.b); got != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestKeyOfDistinguishesBindings(t *testing.T) {
	a := KeyOf([]Value{IntVal(1), NullVal()})
	b := KeyOf([]Value{IntVal(1), NonNullVal()})
	c := KeyOf([]Value{IntVal(1), NullVal()})
	if a == b {
		t.Error("distinct bindings share a key")
	}
	if a != c {
		t.Error("equal bindings differ")
	}
}
