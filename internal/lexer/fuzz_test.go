package lexer_test

import (
	"testing"

	"policyoracle/internal/lang"
	"policyoracle/internal/lexer"
	"policyoracle/internal/token"
)

// FuzzLexer asserts the scanner's safety contract on arbitrary bytes: it
// never panics, terminates with exactly one trailing EOF, keeps token
// offsets nondecreasing and inside the input, stamps every token and
// every diagnostic with a 1-based line:col position, and is
// deterministic.
func FuzzLexer(f *testing.F) {
	seeds := []string{
		"",
		"package p; class C { }",
		"int x = 0x1fL; String s = \"a\\n\\\"b\"; char c = '\\t';",
		"/* block */ // line\nif (a <= b && c != d) { a += 1; }",
		"a.b.c(...); x[i] >= y ? p : q; m(--n, i++);",
		"\"unterminated",
		"'c",
		"/* never closed",
		"\x00\xff\x80 @#`~\\",
		"0x 0XG 9999999999999999999999L",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var d lang.Diagnostics
		toks := lexer.Tokenize("fuzz.mj", src, &d)
		if len(toks) == 0 {
			t.Fatal("no tokens: Tokenize must end with EOF")
		}
		prev := -1
		for i, tk := range toks {
			last := i == len(toks)-1
			if (tk.Kind == token.EOF) != last {
				t.Fatalf("EOF placement: token %d/%d is %v", i, len(toks), tk.Kind)
			}
			if int(tk.Off) < prev || int(tk.Off) > len(src) {
				t.Fatalf("token %d offset %d out of order (prev %d, len %d)",
					i, tk.Off, prev, len(src))
			}
			if tk.Line < 1 || tk.Col < 1 {
				t.Fatalf("token %d has unpositioned Pos %+v", i, tk.Pos("fuzz.mj"))
			}
			prev = int(tk.Off)
		}
		for _, diag := range d.All() {
			if !diag.Pos.IsValid() || diag.Pos.Col < 1 {
				t.Errorf("diagnostic without line:col position: %v", diag)
			}
		}
		var d2 lang.Diagnostics
		again := lexer.Tokenize("fuzz.mj", src, &d2)
		if len(again) != len(toks) || len(d2.All()) != len(d.All()) {
			t.Fatalf("nondeterministic scan: %d/%d tokens, %d/%d diagnostics",
				len(toks), len(again), len(d.All()), len(d2.All()))
		}
	})
}
