// Package lexer implements a hand-written scanner for MJ source text.
package lexer

import (
	"math"
	"strings"

	"policyoracle/internal/lang"
	"policyoracle/internal/token"
)

// Token is a lexical token with its literal text and start position.
//
// A token is 40 bytes: it carries no file name, and its position is
// three int32s, so a scan of N tokens allocates one 40·N-byte slice plus
// the decoded string literals. Pos rebuilds the full lang.Pos from the
// file name the caller already holds.
type Token struct {
	Text string
	Kind token.Kind
	Off  int32 // 0-based byte offset
	Line int32 // 1-based
	Col  int32 // 1-based, in bytes
}

// Pos returns the token's position in file.
func (t Token) Pos(file string) lang.Pos {
	return lang.Pos{File: file, Offset: int(t.Off), Line: int(t.Line), Col: int(t.Col)}
}

func (t Token) String() string {
	switch t.Kind {
	case token.Ident, token.IntLit, token.StringLit, token.CharLit:
		return t.Kind.String() + " " + t.Text
	default:
		return t.Kind.String()
	}
}

// MaxFileBytes is the longest source a Lexer scans. Every offset, line
// and column of a shorter file, the EOF column included, fits a Token's
// int32 fields; a longer file is rejected with a diagnostic rather than
// scanned with positions that wrap.
const MaxFileBytes = math.MaxInt32 - 1

// Lexer scans MJ source text into tokens. Create one with New.
type Lexer struct {
	src   string
	file  string
	off   int
	line  int
	col   int
	diags *lang.Diagnostics
}

// New returns a Lexer over src. file names the source for positions and
// diags receives scan errors (it must be non-nil). A src longer than
// MaxFileBytes is reported to diags and scans as an empty file.
func New(file, src string, diags *lang.Diagnostics) *Lexer {
	lx := &Lexer{src: src, file: file, line: 1, col: 1, diags: diags}
	if len(src) > MaxFileBytes {
		diags.Errorf(lx.pos(), "source file is %d bytes, over the %d-byte limit", len(src), MaxFileBytes)
		lx.src = ""
	}
	return lx
}

// Token-slice sizing. MJ source averages under four bytes per token, so
// Tokenize starts from len(src)/3 tokens, capped at initialTokens so a
// file of comments or whitespace never pays for tokens it does not have.
// When the slice fills, it grows to the file's token count as
// extrapolated from the bytes per token scanned so far, plus an eighth,
// which on MJ source is usually the last growth.
const (
	bytesPerToken = 3
	initialTokens = 1024
)

// Tokenize scans the entire input and returns all tokens, ending with EOF.
func Tokenize(file, src string, diags *lang.Diagnostics) []Token {
	lx := New(file, src, diags)
	toks := make([]Token, 0, min(len(lx.src)/bytesPerToken+1, initialTokens))
	for {
		if len(toks) == cap(toks) {
			toks = lx.grow(toks)
		}
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

// grow returns full with room for the rest of the file's tokens, as
// extrapolated from the density of the lx.off bytes scanned so far. Every
// token but EOF spans at least one byte, so lx.off >= len(full) >= 1 and
// the file holds at most len(lx.src)+1 tokens.
func (lx *Lexer) grow(full []Token) []Token {
	n := len(full)
	est := int(int64(n) * int64(len(lx.src)) / int64(lx.off))
	grown := make([]Token, n, min(est+est/8+1, len(lx.src)+1))
	copy(grown, full)
	return grown
}

func (lx *Lexer) pos() lang.Pos {
	return lang.Pos{File: lx.file, Offset: lx.off, Line: lx.line, Col: lx.col}
}

// tok builds a token of kind k starting at start, the lexer state
// position the token's first byte was scanned from.
func tok(k token.Kind, text string, start lang.Pos) Token {
	return Token{Text: text, Kind: k, Off: int32(start.Offset), Line: int32(start.Line), Col: int32(start.Col)}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.diags.Errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next scans and returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return tok(token.EOF, "", pos)
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		return lx.scanIdent(pos)
	case isDigit(c):
		return lx.scanNumber(pos)
	case c == '"':
		return lx.scanString(pos)
	case c == '\'':
		return lx.scanChar(pos)
	}
	return lx.scanOperator(pos)
}

func (lx *Lexer) scanIdent(pos lang.Pos) Token {
	start := lx.off
	for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
		lx.advance()
	}
	text := lx.src[start:lx.off]
	if kw, ok := token.Keywords[text]; ok {
		return tok(kw, text, pos)
	}
	return tok(token.Ident, text, pos)
}

func (lx *Lexer) scanNumber(pos lang.Pos) Token {
	start := lx.off
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
	}
	// Long suffix is accepted and dropped.
	if lx.off < len(lx.src) && (lx.peek() == 'L' || lx.peek() == 'l') {
		lx.advance()
		return tok(token.IntLit, lx.src[start:lx.off-1], pos)
	}
	return tok(token.IntLit, lx.src[start:lx.off], pos)
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (lx *Lexer) scanString(pos lang.Pos) Token {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.off >= len(lx.src) || lx.peek() == '\n' {
			lx.diags.Errorf(pos, "unterminated string literal")
			break
		}
		c := lx.advance()
		if c == '"' {
			break
		}
		if c == '\\' {
			if lx.off >= len(lx.src) {
				lx.diags.Errorf(pos, "unterminated string literal")
				break
			}
			sb.WriteByte(unescape(lx.advance()))
			continue
		}
		sb.WriteByte(c)
	}
	return tok(token.StringLit, sb.String(), pos)
}

func (lx *Lexer) scanChar(pos lang.Pos) Token {
	lx.advance() // opening quote
	var val byte
	if lx.off < len(lx.src) {
		c := lx.advance()
		if c == '\\' && lx.off < len(lx.src) {
			val = unescape(lx.advance())
		} else {
			val = c
		}
	}
	if lx.off < len(lx.src) && lx.peek() == '\'' {
		lx.advance()
	} else {
		lx.diags.Errorf(pos, "unterminated char literal")
	}
	return tok(token.CharLit, string(val), pos)
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	default:
		return c
	}
}

func (lx *Lexer) scanOperator(pos lang.Pos) Token {
	two := func(k token.Kind) Token {
		lx.advance()
		lx.advance()
		return tok(k, lx.src[pos.Offset:lx.off], pos)
	}
	one := func(k token.Kind) Token {
		lx.advance()
		return tok(k, lx.src[pos.Offset:lx.off], pos)
	}
	c, d := lx.peek(), lx.peekAt(1)
	switch c {
	case '(':
		return one(token.LParen)
	case ')':
		return one(token.RParen)
	case '{':
		return one(token.LBrace)
	case '}':
		return one(token.RBrace)
	case '[':
		return one(token.LBracket)
	case ']':
		return one(token.RBracket)
	case ';':
		return one(token.Semi)
	case ',':
		return one(token.Comma)
	case '.':
		if d == '.' && lx.peekAt(2) == '.' {
			lx.advance()
			lx.advance()
			lx.advance()
			return tok(token.Ellipsis, "...", pos)
		}
		return one(token.Dot)
	case '?':
		return one(token.Question)
	case ':':
		return one(token.Colon)
	case '@':
		return one(token.At)
	case '=':
		if d == '=' {
			return two(token.Eq)
		}
		return one(token.Assign)
	case '+':
		if d == '+' {
			return two(token.PlusPlus)
		}
		if d == '=' {
			return two(token.PlusEq)
		}
		return one(token.Plus)
	case '-':
		if d == '-' {
			return two(token.MinusLess)
		}
		if d == '=' {
			return two(token.MinusEq)
		}
		return one(token.Minus)
	case '*':
		if d == '=' {
			return two(token.StarEq)
		}
		return one(token.Star)
	case '/':
		if d == '=' {
			return two(token.SlashEq)
		}
		return one(token.Slash)
	case '%':
		return one(token.Percent)
	case '!':
		if d == '=' {
			return two(token.NotEq)
		}
		return one(token.Not)
	case '&':
		if d == '&' {
			return two(token.AndAnd)
		}
		return one(token.BitAnd)
	case '|':
		if d == '|' {
			return two(token.OrOr)
		}
		return one(token.BitOr)
	case '^':
		return one(token.Caret)
	case '<':
		if d == '=' {
			return two(token.LtEq)
		}
		return one(token.Lt)
	case '>':
		if d == '=' {
			return two(token.GtEq)
		}
		return one(token.Gt)
	}
	lx.diags.Errorf(pos, "unexpected character %q", string(c))
	lx.advance()
	return tok(token.Invalid, string(c), pos)
}
