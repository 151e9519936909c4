package parser_test

import (
	"fmt"
	"strings"
	"testing"

	"policyoracle/internal/lang"
	"policyoracle/internal/oracle"
	"policyoracle/internal/parser"
)

// deepShapes builds one method body nesting a shape n deep. Without a
// depth limit each overflowed the goroutine stack somewhere between
// 2.9·10⁵ and 8.6·10⁵ levels: nested parentheses and blocks in the
// parser's recursion, unary minus, `if` and `+` chains and `.self()`
// call chains in IR lowering.
var deepShapes = map[string]func(n int) string{
	"parens": func(n int) string {
		return "public int m() { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }"
	},
	"blocks": func(n int) string {
		return "public void m() { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " }"
	},
	"ifs": func(n int) string {
		return "public void m() { " + strings.Repeat("if(true)", n) + "f = 1; }"
	},
	"unary": func(n int) string {
		return "public int m() { return " + strings.Repeat("- ", n) + "1; }"
	},
	"plus": func(n int) string {
		return "public int m() { return 1" + strings.Repeat("+1", n) + "; }"
	},
	"calls": func(n int) string {
		return "public C m() { return this" + strings.Repeat(".self()", n) + "; }"
	},
}

func deepSource(shape string, n int) string {
	return "package p; public class C { public int f; public C self() { return this; } " + deepShapes[shape](n) + " }"
}

// TestDepthLimitBoundary pins where the limit falls: each shape parses
// cleanly two levels under MaxDepth (a statement and its expression may
// take the other two) and is rejected one level over it, with one
// positioned diagnostic that names the limit.
func TestDepthLimitBoundary(t *testing.T) {
	want := fmt.Sprintf("nesting exceeds the parser depth limit of %d", parser.MaxDepth)
	for shape := range deepShapes {
		var ok lang.Diagnostics
		parser.ParseFile("C.mj", deepSource(shape, parser.MaxDepth-2), &ok)
		if ok.HasErrors() {
			t.Errorf("%s at %d: %v", shape, parser.MaxDepth-2, ok.Err())
		}
		var deep lang.Diagnostics
		parser.ParseFile("C.mj", deepSource(shape, parser.MaxDepth+1), &deep)
		all := deep.All()
		if len(all) != 1 || all[0].Message != want || !all[0].Pos.IsValid() {
			t.Errorf("%s at %d: diagnostics %v, want one positioned %q", shape, parser.MaxDepth+1, all, want)
		}
	}
}

// TestDeepShapesLoadOrFail drives each shape through LoadLibrary: just
// under the limit it loads and extracts, since every later pass recurses
// far less deep than the stack allows; at 10⁶ levels, deep enough to
// have overflowed the stack, the load fails with the depth diagnostic.
func TestDeepShapesLoadOrFail(t *testing.T) {
	for shape := range deepShapes {
		lib, err := oracle.LoadLibrary("p", map[string]string{"C.mj": deepSource(shape, parser.MaxDepth-2)})
		if err != nil {
			t.Fatalf("%s at %d: %v", shape, parser.MaxDepth-2, err)
		}
		lib.Extract(oracle.DefaultOptions())
		if len(lib.Policies.Entries) == 0 {
			t.Errorf("%s at %d: no policies extracted", shape, parser.MaxDepth-2)
		}
		_, err = oracle.LoadLibrary("p", map[string]string{"C.mj": deepSource(shape, 1_000_000)})
		if err == nil || !strings.Contains(err.Error(), "parser depth limit") {
			t.Errorf("%s at 10^6: load error %v, want the depth limit", shape, err)
		}
	}
}
