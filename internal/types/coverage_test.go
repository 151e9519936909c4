package types

import (
	"strings"
	"testing"

	"policyoracle/internal/ast"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
)

func TestExtendsInterfaceIsError(t *testing.T) {
	var diags lang.Diagnostics
	f := parser.ParseFile("t.mj", `
package p;
interface I { }
class C extends I { }
`, &diags)
	Build("t", []*ast.File{f}, &diags)
	if !diags.HasErrors() {
		t.Error("extending an interface should be an error")
	}
}

func TestUnresolvedSuperclassWarns(t *testing.T) {
	var diags lang.Diagnostics
	f := parser.ParseFile("t.mj", `package p; class C extends Missing { }`, &diags)
	Build("t", []*ast.File{f}, &diags)
	if diags.HasErrors() {
		t.Error("unresolved superclass should warn, not error")
	}
	if len(diags.All()) == 0 {
		t.Error("no warning for unresolved superclass")
	}
}

func TestDuplicateFieldError(t *testing.T) {
	var diags lang.Diagnostics
	f := parser.ParseFile("t.mj", `package p; class C { int x; int x; }`, &diags)
	Build("t", []*ast.File{f}, &diags)
	if !diags.HasErrors() {
		t.Error("duplicate field should be an error")
	}
}

func TestTypeStrings(t *testing.T) {
	p := build(t, `package p; public class Box { }`)
	box := p.Classes["p.Box"]
	cases := []struct {
		t Type
		s string
	}{
		{Type{Prim: "int"}, "int"},
		{Type{Prim: "int", Dims: 2}, "int[][]"},
		{Type{Class: box}, "Box"},
		{Type{Named: "a.b.Missing"}, "Missing"},
		{Type{Prim: "void"}, "void"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.s {
			t.Errorf("String() = %q, want %q", got, c.s)
		}
	}
}

func TestProgramString(t *testing.T) {
	p := build(t, `package p; public class A { void m() { } }`)
	s := p.String()
	if !strings.Contains(s, "1 classes") || !strings.Contains(s, "1 methods") {
		t.Errorf("String = %q", s)
	}
}

func TestAllClassesSorted(t *testing.T) {
	p := build(t, `package p; class B { } class A { } class C { }`)
	names := []string{}
	for _, c := range p.AllClasses() {
		names = append(names, c.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("not sorted: %v", names)
		}
	}
}

func TestLookupQualifiedUnknown(t *testing.T) {
	p := build(t, `package p; class A { }`)
	if c := p.Lookup("x.y.Unknown", nil); c != nil {
		t.Errorf("resolved bogus qualified name: %v", c)
	}
}

func TestInterfaceMethodLookupThroughHierarchy(t *testing.T) {
	p := build(t, `
package p;
interface Base { int op(); }
interface Ext extends Base { }
class Impl implements Ext {
  public int op() { return 1; }
}
`)
	ext := p.Classes["p.Ext"]
	if m := ext.LookupMethod("op", 0); m == nil {
		t.Error("interface method not found through extended interface")
	}
}
