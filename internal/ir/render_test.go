package ir

import (
	"testing"

	"policyoracle/internal/types"
)

// The rendering of an instruction is part of every method's content hash
// (see oracle.MethodHashes), so persisted hashes stay valid only while
// these strings stay exactly as they are. Every want below is the text an
// earlier, fmt-based renderer produced for the same instruction.
func TestInstrStringPinned(t *testing.T) {
	foo := &types.Class{Name: "p.Foo", Simple: "Foo"}
	bar := &types.Class{Name: "q.Bar", Simple: "Bar"}
	f := &types.Field{Class: foo, Name: "f"}
	x, y, o, r := &Local{Name: "x"}, &Local{Name: "y"}, &Local{Name: "o"}, &Local{Name: "$t3"}
	one, str := IntConst(1), StringConst("s")
	decl := &types.Method{Class: foo, Name: "m"}

	tests := []struct {
		name string
		in   Instr
		want string
	}{
		{"assign local", &Assign{Dst: x, Src: y}, "x = y"},
		{"assign const", &Assign{Dst: x, Src: one}, "x = 1"},
		{"assign nil dst", &Assign{Src: y}, "<nil> = y"},
		{"assign nil src", &Assign{Dst: x}, "x = _"},
		{"binary", &Binary{Dst: r, Op: "+", X: x, Y: one}, "$t3 = x + 1"},
		{"binary compare", &Binary{Dst: r, Op: "==", X: x, Y: NullConst()}, "$t3 = x == null"},
		{"unary not", &Unary{Dst: r, Op: "!", X: BoolConst(true)}, "$t3 = !true"},
		{"unary neg", &Unary{Dst: r, Op: "-", X: x}, "$t3 = -x"},
		{"field load", &FieldLoad{Dst: x, Obj: o, Field: f, Name: "f"}, "x = o.f"},
		{"field load static", &FieldLoad{Dst: x, Field: f, Name: "f"}, "x = static.f"},
		{"field load unresolved", &FieldLoad{Dst: x, Obj: o, Name: "g"}, "x = o.g"},
		{"field load static unresolved", &FieldLoad{Dst: x, Name: "g"}, "x = static.g"},
		{"field store", &FieldStore{Obj: o, Field: f, Name: "f", Val: y}, "o.f = y"},
		{"field store static", &FieldStore{Field: f, Name: "f", Val: one}, "static.f = 1"},
		{"field store unresolved", &FieldStore{Obj: o, Name: "g", Val: str}, `o.g = "s"`},
		{"field store static unresolved", &FieldStore{Name: "g", Val: y}, "static.g = y"},
		{"array load", &ArrayLoad{Dst: x, Arr: o, Idx: one}, "x = o[1]"},
		{"array store", &ArrayStore{Arr: o, Idx: IntConst(0), Val: y}, "o[0] = y"},
		{"new", &New{Dst: x, Class: foo, Name: "Foo"}, "x = new p.Foo"},
		{"new unresolved", &New{Dst: x, Name: "Missing"}, "x = new Missing"},
		{"new array", &NewArray{Dst: x, Len: y}, "x = newarray[y]"},
		{"new array no length", &NewArray{Dst: x}, "x = newarray[_]"},
		{"cast class array", &Cast{Dst: x, To: types.Type{Class: foo, Dims: 2}, X: y}, "x = (Foo[][]) y"},
		{"cast prim", &Cast{Dst: x, To: types.Type{Prim: "int"}, X: one}, "x = (int) 1"},
		{"cast unresolved", &Cast{Dst: x, To: types.Type{Named: "a.b.Baz"}, X: y}, "x = (Baz) y"},
		{"instanceof", &InstanceOf{Dst: x, X: o, Of: types.Type{Class: bar}}, "x = o instanceof Bar"},
		{"call virtual dst recv", &Call{Dst: x, Kind: CallVirtual, Recv: o, StaticType: foo, Declared: decl, Name: "m", Args: []Operand{y, one}}, "x = virtual o.m(y, 1)"},
		{"call virtual recv", &Call{Kind: CallVirtual, Recv: o, Name: "m"}, "virtual o.m()"},
		{"call virtual bare", &Call{Kind: CallVirtual, Name: "m", Args: []Operand{nil}}, "virtual m(_)"},
		{"call static dst", &Call{Dst: x, Kind: CallStatic, StaticType: bar, Name: "get", Args: []Operand{str}}, `x = static Bar.get("s")`},
		{"call static", &Call{Kind: CallStatic, StaticType: bar, Name: "run"}, "static Bar.run()"},
		{"call static unresolved", &Call{Kind: CallStatic, Name: "run", Args: []Operand{x, y, o}}, "static run(x, y, o)"},
		{"call special recv", &Call{Kind: CallSpecial, Recv: x, StaticType: foo, Name: "<init>", Args: []Operand{one}}, "special x.<init>(1)"},
		{"call special dst static type", &Call{Dst: y, Kind: CallSpecial, StaticType: foo, Name: "<init>"}, "y = special Foo.<init>()"},
		{"call unknown kind", &Call{Kind: CallKind(7), Name: "m"}, "? m()"},
		{"if", &If{Cond: x}, "if x"},
		{"if const", &If{Cond: BoolConst(false)}, "if false"},
		{"goto", &Goto{}, "goto"},
		{"return", &Return{Val: x}, "return x"},
		{"return void", &Return{}, "return _"},
		{"throw", &Throw{Val: o}, "throw o"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("%s: String() = %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestConstStringPinned(t *testing.T) {
	tests := []struct {
		c    Const
		want string
	}{
		{IntConst(0), "0"},
		{IntConst(42), "42"},
		{IntConst(-7), "-7"},
		{IntConst(-9223372036854775808), "-9223372036854775808"},
		{BoolConst(true), "true"},
		{BoolConst(false), "false"},
		{StringConst(""), `""`},
		{StringConst("plain"), `"plain"`},
		{StringConst(`say "hi"`), `"say \"hi\""`},
		{StringConst(`C:\tmp`), `"C:\\tmp"`},
		{StringConst("a\nb\tc"), `"a\nb\tc"`},
		{StringConst("naïve 日本 \u00a0"), `"naïve 日本 \u00a0"`},
		{StringConst("\x00\x7f\xff"), `"\x00\x7f\xff"`},
		{NullConst(), "null"},
		{Const{Kind: ConstKind(9)}, "?"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("%#v.String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}
