package parser_test

import (
	"strings"
	"testing"

	"policyoracle/internal/ast"
	"policyoracle/internal/lang"
	"policyoracle/internal/oracle"
	"policyoracle/internal/parser"
)

// FuzzParser asserts the whole frontend on arbitrary inputs: the parser
// never panics and stamps its diagnostics with line:col positions; for
// inputs it accepts, the canonical printer is a fixed point of
// parse∘print; and the rest of the frontend — type building and IR
// lowering, driven through oracle.LoadLibrary, which runs them even on
// error-laden ASTs — returns positioned errors rather than panicking.
// This test lives outside package parser so it can pull in the oracle
// without an import cycle.
func FuzzParser(f *testing.F) {
	seeds := []string{
		"",
		"package p; class C { }",
		"package java.net; import java.lang.*; public class S { native int n(String s); }",
		`package p; class C { void m(int a) { if (a > 0) { m(a - 1); } } }`,
		`package p; class C { int f = 3; int m() { return f++; } }`,
		`package p; class C { void m() { try { } catch (E e) { } finally { } } }`,
		`package p; class C { void m(Object o) { X x = (X) o; boolean b = o instanceof X; } }`,
		`package p; class C { void m() { for (int i = 0; i < 3; i++) { continue; } } }`,
		`package p; class C { void m(int k) { switch (k) { case 1: break; default: } } }`,
		`package p; interface I { int m(); } class C extends D implements I { public int m() { return 1; } }`,
		`package p; public class C { public void run() { synchronized (this) { throw new E(); } } }`,
		"class C { void m() { x = \"unterminated", // broken input
		"@#$%^&*",
		"class C extends C { }", // inheritance cycle
		// Just over the depth limit: rejected with one diagnostic.
		"package p; class C { int m() { return " + strings.Repeat("(", parser.MaxDepth) + "1" +
			strings.Repeat(")", parser.MaxDepth) + "; } }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var d1 lang.Diagnostics
		file := parser.ParseFile("fuzz.mj", src, &d1) // must not panic
		if file == nil {
			t.Fatal("nil file")
		}
		for _, diag := range d1.All() {
			if !diag.Pos.IsValid() || diag.Pos.Col < 1 {
				t.Errorf("diagnostic without line:col position: %v", diag)
			}
		}
		// The typer and lowerer see the AST whether or not the parse was
		// clean; neither may panic, and load errors must be positioned.
		if _, err := oracle.LoadLibrary("fuzz", map[string]string{"fuzz.mj": src}); err != nil {
			_ = err.Error()
		}
		if d1.HasErrors() {
			return
		}
		p1 := ast.Print(file)
		var d2 lang.Diagnostics
		f2 := parser.ParseFile("fuzz.mj", p1, &d2)
		if d2.HasErrors() {
			t.Fatalf("canonical form fails to reparse: %v\nsource: %q\nprinted:\n%s", d2.Err(), src, p1)
		}
		if p2 := ast.Print(f2); p1 != p2 {
			t.Fatalf("printer not a fixed point\nsource: %q\n--- p1 ---\n%s\n--- p2 ---\n%s", src, p1, p2)
		}
	})
}
