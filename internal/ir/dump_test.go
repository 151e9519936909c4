package ir

import (
	"strings"
	"testing"

	"policyoracle/internal/ast"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
	"policyoracle/internal/types"
)

// TestDumpRendersAllInstructionForms lowers a method touching every
// instruction kind and checks the textual dump, which the debugging
// workflow depends on.
func TestDumpRendersAllInstructionForms(t *testing.T) {
	p := lower(t, `
package p;
class Helper {
  static int util(String s) { return 0; }
}
class C {
  int field;
  static int sfield;
  int[] arr;
  void m(String s, int n, boolean b) {
    int x = n + 1;
    int neg = -x;
    boolean nb = !b;
    field = x;
    sfield = 2;
    int y = field;
    int z = sfield;
    int[] a2 = new int[3];
    a2[0] = x;
    int e = a2[0];
    C other = new C();
    Object o = (Object) other;
    boolean io = o instanceof C;
    int u = Helper.util(s);
    if (b) {
      throw new Exception();
    }
    while (x > 0) {
      x = x - 1;
    }
    return;
  }
}
class Object { }
class Exception { }
`)
	f := funcOf(t, p, "p.C", "m")
	dump := f.Dump()
	for _, want := range []string{
		"func p.C.m(String,int,boolean)",
		"= n + 1",
		"= -",
		"= !",
		"this.field =",
		"static.sfield =",
		"= this.field",
		"= static.sfield",
		"newarray[3]",
		"[0] =",
		"new p.C",
		"(Object)",
		"instanceof C",
		"static Helper.util(s)",
		"if ",
		"goto",
		"throw",
		"return",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	if f.NumInstrs() == 0 {
		t.Error("no instructions counted")
	}
}

func TestOperandStrings(t *testing.T) {
	cases := map[string]Operand{
		"42":    IntConst(42),
		"true":  BoolConst(true),
		`"x"`:   StringConst("x"),
		"null":  NullConst(),
		"false": BoolConst(false),
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("operand = %q, want %q", got, want)
		}
	}
}

func TestCallKindStrings(t *testing.T) {
	if CallVirtual.String() != "virtual" || CallStatic.String() != "static" || CallSpecial.String() != "special" {
		t.Error("call kind strings wrong")
	}
}

// TestLoweringDiagnostics: semantic misuse is reported, not silently
// dropped.
func TestLoweringDiagnostics(t *testing.T) {
	cases := []string{
		`package p; class C { static void m() { int x = this.f; } int f; }`,
		`package p; class C { void m() { break; } }`,
		`package p; class C { void m() { continue; } }`,
		`package p; class C { void m() { unknownName = 3; } }`,
		`package p; class C { void m() { int x = unknownName; } }`,
	}
	for _, src := range cases {
		var diags lang.Diagnostics
		files := []*ast.File{parser.ParseFile("t.mj", src, &diags)}
		tp := types.Build("t", files, &diags)
		LowerProgram(tp, &diags)
		if len(diags.All()) == 0 {
			t.Errorf("no diagnostic for %q", src)
		}
	}
}
