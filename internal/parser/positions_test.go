package parser

import (
	"sort"
	"strings"
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/lang"
	"policyoracle/internal/lexer"
	"policyoracle/internal/token"
)

// refPos is the reference position of byte offset off in src: line is 1
// plus the newlines before off, and the column counts bytes from the
// last of them.
func refPos(file, src string, off int) lang.Pos {
	line := 1 + strings.Count(src[:off], "\n")
	col := off - strings.LastIndexByte(src[:off], '\n')
	return lang.Pos{File: file, Offset: off, Line: line, Col: col}
}

// TestTokenPositionsMatchReference checks the position the parser
// derives for every token of the bundled corpora and one generated
// library against refPos, and each token's offset against its text.
func TestTokenPositionsMatchReference(t *testing.T) {
	libs := map[string]map[string]string{
		"jdk":       corpus.JDKSources(),
		"harmony":   corpus.HarmonySources(),
		"classpath": corpus.ClasspathSources(),
		"gen.Small": gen.Generate(gen.Small()).Sources["jdk"],
	}
	for lib, sources := range libs {
		names := make([]string, 0, len(sources))
		for n := range sources {
			names = append(names, n)
		}
		sort.Strings(names)
		checked := 0
		for _, name := range names {
			src := sources[name]
			var d lang.Diagnostics
			p := &Parser{toks: lexer.Tokenize(name, src, &d), diags: &d, file: name}
			if d.HasErrors() {
				t.Fatalf("%s/%s: %v", lib, name, d.Err())
			}
			prev := 0
			for i, tk := range p.toks {
				off := int(tk.Off)
				if off < prev || off > len(src) {
					t.Fatalf("%s/%s: token %d offset %d out of order (prev %d)", lib, name, i, off, prev)
				}
				prev = off
				p.pos = i
				if got, want := p.curPos(), refPos(name, src, off); got != want {
					t.Fatalf("%s/%s: token %d (%v) at %+v, want %+v", lib, name, i, tk, got, want)
				}
				switch tk.Kind {
				case token.EOF:
					if off != len(src) {
						t.Fatalf("%s/%s: EOF at offset %d, want %d", lib, name, off, len(src))
					}
				case token.StringLit, token.CharLit:
					if q := src[off]; q != '"' && q != '\'' {
						t.Fatalf("%s/%s: literal %v starts at %q", lib, name, tk, q)
					}
				default:
					if !strings.HasPrefix(src[off:], tk.Text) {
						t.Fatalf("%s/%s: token %v not at offset %d", lib, name, tk, off)
					}
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no tokens checked", lib)
		}
	}
}

// TestDiagnosticTextPinned pins the full diagnostic text of malformed
// inputs, positions included, to the output the parser produced when
// tokens still carried a complete lang.Pos.
func TestDiagnosticTextPinned(t *testing.T) {
	cases := []struct{ src, want string }{
		{"class C { void m() { x = \"abc",
			"bad.mj:1:26: error: unterminated string literal\nbad.mj:1:30: error: expected ;, found EOF\nbad.mj:1:30: error: expected }, found EOF\nbad.mj:1:30: error: expected }, found EOF"},
		{"class C { }\n/* never closed",
			"bad.mj:2:1: error: unterminated block comment"},
		{"class C {\n  int f = 0x;\n}",
			"bad.mj:2:11: error: invalid integer literal \"0x\""},
		{"class C { void m() { a # b; } }",
			"bad.mj:1:24: error: unexpected character \"#\"\nbad.mj:1:24: error: expected ;, found invalid\nbad.mj:1:24: error: expected expression, found invalid\nbad.mj:1:26: error: expected ;, found identifier b"},
		{"package p;\nclass C {\n\tvoid m( {\n}\n",
			"bad.mj:3:10: error: expected parameter type, found {\nbad.mj:3:10: error: expected ), found {\nbad.mj:5:1: error: expected }, found EOF"},
		{"class C { void m() { if (a > ) { } } }",
			"bad.mj:1:30: error: expected expression, found )\nbad.mj:1:32: error: expected ), found {"},
		{"class C { native void m() { } }",
			"bad.mj:1:11: error: native method m must not have a body"},
		{"class\n\n  D extends { }",
			"bad.mj:3:13: error: expected identifier, found {"},
		{"class C { void m() { try { } } }",
			"bad.mj:1:22: error: try without catch or finally"},
		{"class C {\r\n\tvoid m() {\r\n\t\treturn 1 +;\r\n\t}\r\n}",
			"bad.mj:3:13: error: expected expression, found ;\nbad.mj:4:2: error: expected ;, found }"},
		{"class C { char c = 'ab'; String s = \"x\ny\"; }",
			"bad.mj:1:20: error: unterminated char literal\nbad.mj:1:22: error: expected ;, found identifier b\nbad.mj:1:23: error: unterminated char literal\nbad.mj:1:23: error: expected identifier, found char literal ;\nbad.mj:1:23: error: expected ;, found char literal ;\nbad.mj:1:23: error: expected member declaration, found char literal ;\nbad.mj:1:37: error: unterminated string literal\nbad.mj:2:2: error: unterminated string literal\nbad.mj:2:6: error: expected }, found EOF"},
	}
	for _, c := range cases {
		var d lang.Diagnostics
		ParseFile("bad.mj", c.src, &d)
		err := d.Err()
		if err == nil {
			t.Errorf("%q: no diagnostics, want %q", c.src, c.want)
			continue
		}
		if got := err.Error(); got != c.want {
			t.Errorf("%q:\n got %q\nwant %q", c.src, got, c.want)
		}
	}
}
