// Package parser implements a recursive-descent parser for MJ source files.
//
// The grammar is the Java subset described in DESIGN.md: packages, imports,
// class and interface declarations with single inheritance and interface
// implementation, fields, methods (including native and abstract),
// constructors, the full statement repertoire used by Java Class Library
// code (if/else, loops, switch, try/catch/finally, synchronized, throw),
// and an expression grammar with calls, field accesses, allocation, casts,
// instanceof, and short-circuit logical operators.
package parser

import (
	"policyoracle/internal/ast"
	"policyoracle/internal/lang"
	"policyoracle/internal/lexer"
	"policyoracle/internal/token"
)

// MaxDepth bounds the height of the syntax tree the parser builds for one
// file. Every later pass over the tree (type building, IR lowering, the
// printer, the interpreter) recurses on it, and a goroutine stack
// overflow is fatal, so a file nested deeper is rejected with one
// positioned diagnostic instead. The parser counts one level per nested
// statement, full expression (including each parenthesized one),
// conditional, and unary or cast operator, and one per link of a
// left-deep binary-operator or postfix (call, field, index) chain.
//
// The limit sits far below the smallest depth at which any such shape
// overflowed the stack when the parser had no limit (DESIGN.md,
// "Parser depth limit") and far above the deepest construct in the
// bundled and generated corpora.
const MaxDepth = 5000

// Parser parses one MJ source file.
type Parser struct {
	toks  []lexer.Token
	pos   int
	diags *lang.Diagnostics
	file  string
	// depth is the number of open levels counted against MaxDepth (see
	// nest); tooDeep is set once a file exceeds it.
	depth   int
	tooDeep bool
}

// ParseFile parses src as an MJ file. Errors are reported to diags; the
// returned File contains whatever could be parsed.
func ParseFile(file, src string, diags *lang.Diagnostics) *ast.File {
	toks := lexer.Tokenize(file, src, diags)
	p := &Parser{toks: toks, diags: diags, file: file}
	return p.parseFile()
}

func (p *Parser) cur() lexer.Token  { return p.toks[p.pos] }
func (p *Parser) curPos() lang.Pos  { return p.cur().Pos(p.file) }
func (p *Parser) peek() lexer.Token { return p.at(1) }

func (p *Parser) at(n int) lexer.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.pos+n]
}

func (p *Parser) advance() lexer.Token {
	t := p.cur()
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) lexer.Token {
	if p.cur().Kind == k {
		return p.advance()
	}
	t := p.cur()
	p.errorf(t.Pos(p.file), "expected %s, found %s", k, t)
	return lexer.Token{Kind: k, Off: t.Off, Line: t.Line, Col: t.Col}
}

// errorf reports a syntax error. Once the file is rejected for nesting
// too deep, the parser is skipping to EOF and reports nothing more.
func (p *Parser) errorf(pos lang.Pos, format string, args ...any) {
	if !p.tooDeep {
		p.diags.Errorf(pos, format, args...)
	}
}

// nest counts one more level of tree depth. Past MaxDepth it reports the
// construct at the current token, jumps to EOF so that every open
// production unwinds without recursing further, and returns false. Each
// production that nests restores the depth it started at on return with
// a deferred resetDepth.
func (p *Parser) nest() bool {
	p.depth++
	if p.depth <= MaxDepth {
		return true
	}
	if !p.tooDeep {
		p.diags.Errorf(p.curPos(), "nesting exceeds the parser depth limit of %d", MaxDepth)
		p.tooDeep = true
		p.pos = len(p.toks) - 1
	}
	return false
}

func (p *Parser) resetDepth(d int) { p.depth = d }

// sync skips tokens until one of the kinds (or EOF) is current.
func (p *Parser) sync(kinds ...token.Kind) {
	for p.cur().Kind != token.EOF {
		for _, k := range kinds {
			if p.cur().Kind == k {
				return
			}
		}
		p.advance()
	}
}

func (p *Parser) parseFile() *ast.File {
	f := &ast.File{Start: p.curPos(), Name: p.file}
	if p.accept(token.KwPackage) {
		f.Package = p.parseDottedName()
		p.expect(token.Semi)
	}
	for p.cur().Kind == token.KwImport {
		p.advance()
		name := p.parseDottedName()
		if p.accept(token.Dot) {
			p.expect(token.Star)
			name += ".*"
		}
		f.Imports = append(f.Imports, name)
		p.expect(token.Semi)
	}
	for p.cur().Kind != token.EOF {
		td := p.parseTypeDecl()
		if td != nil {
			f.Types = append(f.Types, td)
		} else {
			p.sync(token.KwClass, token.KwInterface, token.KwPublic, token.KwAbstract, token.KwFinal)
			if p.cur().Kind == token.EOF {
				break
			}
			// If sync stopped on a modifier without making progress, bail.
			if p.cur().Kind != token.KwClass && p.cur().Kind != token.KwInterface {
				p.advance()
			}
		}
	}
	return f
}

func (p *Parser) parseDottedName() string {
	name := p.expect(token.Ident).Text
	for p.cur().Kind == token.Dot && p.peek().Kind == token.Ident {
		p.advance()
		name += "." + p.advance().Text
	}
	return name
}

func (p *Parser) parseModifiers() ast.Modifiers {
	var mods ast.Modifiers
	for {
		switch p.cur().Kind {
		case token.KwPublic:
			mods |= ast.ModPublic
		case token.KwProtected:
			mods |= ast.ModProtected
		case token.KwPrivate:
			mods |= ast.ModPrivate
		case token.KwStatic:
			mods |= ast.ModStatic
		case token.KwFinal:
			mods |= ast.ModFinal
		case token.KwAbstract:
			mods |= ast.ModAbstract
		case token.KwNative:
			mods |= ast.ModNative
		case token.KwSynchronized:
			// `synchronized` is a modifier only in member position; the
			// caller distinguishes the synchronized statement.
			mods |= ast.ModSynchronized
		case token.KwTransient:
			mods |= ast.ModTransient
		case token.KwVolatile:
			mods |= ast.ModVolatile
		default:
			return mods
		}
		p.advance()
	}
}

func (p *Parser) parseTypeDecl() *ast.TypeDecl {
	start := p.curPos()
	mods := p.parseModifiers()
	td := &ast.TypeDecl{Mods: mods, Start: start}
	switch p.cur().Kind {
	case token.KwClass:
		p.advance()
	case token.KwInterface:
		p.advance()
		td.IsInterface = true
	default:
		p.errorf(p.curPos(), "expected class or interface, found %s", p.cur())
		return nil
	}
	td.Name = p.expect(token.Ident).Text
	if p.accept(token.KwExtends) {
		if td.IsInterface {
			td.Implements = append(td.Implements, p.parseDottedName())
			for p.accept(token.Comma) {
				td.Implements = append(td.Implements, p.parseDottedName())
			}
		} else {
			td.Extends = p.parseDottedName()
		}
	}
	if p.accept(token.KwImplements) {
		td.Implements = append(td.Implements, p.parseDottedName())
		for p.accept(token.Comma) {
			td.Implements = append(td.Implements, p.parseDottedName())
		}
	}
	p.expect(token.LBrace)
	for p.cur().Kind != token.RBrace && p.cur().Kind != token.EOF {
		p.parseMember(td)
	}
	p.expect(token.RBrace)
	return td
}

// parseMember parses one field, method, or constructor declaration into td.
func (p *Parser) parseMember(td *ast.TypeDecl) {
	start := p.curPos()
	mods := p.parseModifiers()

	// Constructor: Name '(' where Name matches the class.
	if p.cur().Kind == token.Ident && p.cur().Text == td.Name && p.peek().Kind == token.LParen {
		m := &ast.MethodDecl{Mods: mods, Name: td.Name, IsCtor: true, Start: start}
		p.advance() // name
		m.Params = p.parseParams()
		p.parseThrows(m)
		if p.cur().Kind == token.LBrace {
			m.Body = p.parseBlock()
		} else {
			p.expect(token.Semi)
		}
		td.Methods = append(td.Methods, m)
		return
	}

	typ, ok := p.parseTypeRef()
	if !ok {
		p.errorf(p.curPos(), "expected member declaration, found %s", p.cur())
		p.sync(token.Semi, token.RBrace)
		p.accept(token.Semi)
		return
	}
	name := p.expect(token.Ident).Text

	if p.cur().Kind == token.LParen {
		m := &ast.MethodDecl{Mods: mods, Ret: typ, Name: name, Start: start}
		m.Params = p.parseParams()
		p.parseThrows(m)
		if p.cur().Kind == token.LBrace {
			if mods.Has(ast.ModNative) || mods.Has(ast.ModAbstract) {
				p.errorf(start, "%s method %s must not have a body", mods, name)
			}
			m.Body = p.parseBlock()
		} else {
			p.expect(token.Semi)
			if !mods.Has(ast.ModNative) && !mods.Has(ast.ModAbstract) && !td.IsInterface {
				p.errorf(start, "method %s without body must be native or abstract", name)
			}
		}
		td.Methods = append(td.Methods, m)
		return
	}

	// Field declaration, possibly with multiple declarators.
	for {
		fd := &ast.FieldDecl{Mods: mods, Type: typ, Name: name, Start: start}
		if p.accept(token.Assign) {
			fd.Init = p.parseExpr()
		}
		td.Fields = append(td.Fields, fd)
		if !p.accept(token.Comma) {
			break
		}
		name = p.expect(token.Ident).Text
	}
	p.expect(token.Semi)
}

func (p *Parser) parseThrows(m *ast.MethodDecl) {
	if p.accept(token.KwThrows) {
		m.Throws = append(m.Throws, p.parseDottedName())
		for p.accept(token.Comma) {
			m.Throws = append(m.Throws, p.parseDottedName())
		}
	}
}

func (p *Parser) parseParams() []ast.Param {
	p.expect(token.LParen)
	var params []ast.Param
	for p.cur().Kind != token.RParen && p.cur().Kind != token.EOF {
		typ, ok := p.parseTypeRef()
		if !ok {
			p.errorf(p.curPos(), "expected parameter type, found %s", p.cur())
			p.sync(token.RParen, token.Comma, token.LBrace, token.RBrace, token.Semi)
			if p.cur().Kind != token.RParen && p.cur().Kind != token.Comma {
				break
			}
		} else {
			name := p.expect(token.Ident).Text
			for p.accept(token.LBracket) { // C-style trailing dims
				p.expect(token.RBracket)
				typ.Dims++
			}
			params = append(params, ast.Param{Type: typ, Name: name})
		}
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	return params
}

// parseTypeRef parses a type reference if one is present.
func (p *Parser) parseTypeRef() (ast.TypeRef, bool) {
	var t ast.TypeRef
	k := p.cur().Kind
	switch {
	case k.IsPrimitiveType():
		t.Name = p.advance().Text
	case k == token.Ident:
		t.Name = p.parseDottedName()
	default:
		return t, false
	}
	for p.cur().Kind == token.LBracket && p.peek().Kind == token.RBracket {
		p.advance()
		p.advance()
		t.Dims++
	}
	return t, true
}
