package lexer

import (
	"testing"

	"policyoracle/internal/lang"
	"policyoracle/internal/token"
)

func scan(t *testing.T, src string) []Token {
	t.Helper()
	var diags lang.Diagnostics
	toks := Tokenize("test.mj", src, &diags)
	if diags.HasErrors() {
		t.Fatalf("unexpected scan errors: %v", diags.Err())
	}
	return toks
}

func kinds(toks []Token) []token.Kind {
	out := make([]token.Kind, len(toks))
	for i, tk := range toks {
		out[i] = tk.Kind
	}
	return out
}

func TestKeywordsAndIdents(t *testing.T) {
	toks := scan(t, "public class Foo extends Bar")
	want := []token.Kind{token.KwPublic, token.KwClass, token.Ident, token.KwExtends, token.Ident, token.EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
	if toks[2].Text != "Foo" || toks[4].Text != "Bar" {
		t.Errorf("identifier text wrong: %v", toks)
	}
}

func TestOperators(t *testing.T) {
	toks := scan(t, "a == b != c <= d >= e && f || !g + h - i * j / k % l & m | n ^ o")
	var ops []token.Kind
	for _, tk := range toks {
		if tk.Kind != token.Ident && tk.Kind != token.EOF {
			ops = append(ops, tk.Kind)
		}
	}
	want := []token.Kind{token.Eq, token.NotEq, token.LtEq, token.GtEq, token.AndAnd,
		token.OrOr, token.Not, token.Plus, token.Minus, token.Star, token.Slash,
		token.Percent, token.BitAnd, token.BitOr, token.Caret}
	if len(ops) != len(want) {
		t.Fatalf("got %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d: got %s, want %s", i, ops[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	toks := scan(t, "0 42 0x1F 100L")
	texts := []string{"0", "42", "0x1F", "100"}
	for i, want := range texts {
		if toks[i].Kind != token.IntLit {
			t.Errorf("token %d: got kind %s, want IntLit", i, toks[i].Kind)
		}
		if toks[i].Text != want {
			t.Errorf("token %d: got text %q, want %q", i, toks[i].Text, want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	toks := scan(t, `"ISO-8859-1" "a\nb" "q\"q"`)
	want := []string{"ISO-8859-1", "a\nb", `q"q`}
	for i, w := range want {
		if toks[i].Kind != token.StringLit || toks[i].Text != w {
			t.Errorf("token %d: got %q (%s), want %q", i, toks[i].Text, toks[i].Kind, w)
		}
	}
}

func TestCharLiteral(t *testing.T) {
	toks := scan(t, `'a' '\n'`)
	if toks[0].Kind != token.CharLit || toks[0].Text != "a" {
		t.Errorf("got %v", toks[0])
	}
	if toks[1].Kind != token.CharLit || toks[1].Text != "\n" {
		t.Errorf("got %v", toks[1])
	}
}

func TestComments(t *testing.T) {
	toks := scan(t, "a // line comment\n b /* block\n comment */ c")
	got := kinds(toks)
	want := []token.Kind{token.Ident, token.Ident, token.Ident, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", toks)
	}
}

func TestPositions(t *testing.T) {
	toks := scan(t, "a\n  b")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("token a at %v", toks[0].Pos("test.mj"))
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("token b at %v", toks[1].Pos("test.mj"))
	}
}

func TestUnterminatedString(t *testing.T) {
	var diags lang.Diagnostics
	Tokenize("t.mj", `"abc`, &diags)
	if !diags.HasErrors() {
		t.Error("expected error for unterminated string")
	}
}

func TestUnterminatedComment(t *testing.T) {
	var diags lang.Diagnostics
	Tokenize("t.mj", "/* never closed", &diags)
	if !diags.HasErrors() {
		t.Error("expected error for unterminated comment")
	}
}

func TestUnexpectedChar(t *testing.T) {
	var diags lang.Diagnostics
	toks := Tokenize("t.mj", "a # b", &diags)
	if !diags.HasErrors() {
		t.Error("expected error for '#'")
	}
	// Scanning continues past the bad character.
	var idents int
	for _, tk := range toks {
		if tk.Kind == token.Ident {
			idents++
		}
	}
	if idents != 2 {
		t.Errorf("got %d identifiers, want 2", idents)
	}
}

func TestEllipsisAndDots(t *testing.T) {
	toks := scan(t, "a.b ... c")
	got := kinds(toks)
	want := []token.Kind{token.Ident, token.Dot, token.Ident, token.Ellipsis, token.Ident, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	toks := scan(t, "a += b -= c *= d /= e ++ f --")
	var ops []token.Kind
	for _, tk := range toks {
		if tk.Kind != token.Ident && tk.Kind != token.EOF {
			ops = append(ops, tk.Kind)
		}
	}
	want := []token.Kind{token.PlusEq, token.MinusEq, token.StarEq, token.SlashEq,
		token.PlusPlus, token.MinusLess}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %s, want %s", i, ops[i], want[i])
		}
	}
}

func TestTokenStringForms(t *testing.T) {
	toks := scan(t, `name 42 "s" 'c' +`)
	for _, tk := range toks {
		if tk.String() == "" {
			t.Errorf("empty String() for %v", tk.Kind)
		}
	}
	if got := toks[0].String(); got != "identifier name" {
		t.Errorf("ident string = %q", got)
	}
	if got := toks[4].String(); got != "+" {
		t.Errorf("op string = %q", got)
	}
}

func TestKindStringCoverage(t *testing.T) {
	for k := token.Invalid; k <= token.KwDefault; k++ {
		if token.Kind(k).String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if token.Kind(9999).String() != "kind(9999)" {
		t.Error("unknown kind fallback wrong")
	}
}
