package parser

import (
	"strconv"

	"policyoracle/internal/ast"
	"policyoracle/internal/token"
)

// Binary operator precedence, loosest first.
var binPrec = map[token.Kind]int{
	token.OrOr:   1,
	token.AndAnd: 2,
	token.BitOr:  3,
	token.Caret:  4,
	token.BitAnd: 5,
	token.Eq:     6, token.NotEq: 6,
	token.Lt: 7, token.Gt: 7, token.LtEq: 7, token.GtEq: 7, token.KwInstanceof: 7,
	token.Plus: 8, token.Minus: 8,
	token.Star: 9, token.Slash: 9, token.Percent: 9,
}

func (p *Parser) parseExpr() ast.Expr {
	defer p.resetDepth(p.depth)
	if !p.nest() {
		return p.badExpr()
	}
	return p.parseCond()
}

// badExpr stands in for an expression the parser gave up on.
func (p *Parser) badExpr() ast.Expr {
	return &ast.Literal{Kind: ast.LitNull, Start: p.curPos()}
}

func (p *Parser) parseCond() ast.Expr {
	x := p.parseBinary(1)
	if p.cur().Kind == token.Question {
		defer p.resetDepth(p.depth)
		start := p.advance().Pos(p.file)
		if !p.nest() {
			return x
		}
		then := p.parseExpr()
		p.expect(token.Colon)
		els := p.parseCond()
		return &ast.CondExpr{Cond: x, Then: then, Else: els, Start: start}
	}
	return x
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	defer p.resetDepth(p.depth)
	for {
		k := p.cur().Kind
		prec, ok := binPrec[k]
		if !ok || prec < minPrec {
			return x
		}
		opTok := p.advance()
		if k == token.KwInstanceof {
			typ, tok := p.parseTypeRef()
			if !tok {
				p.errorf(p.curPos(), "expected type after instanceof")
			}
			x = &ast.InstanceOfExpr{X: x, Type: typ, Start: opTok.Pos(p.file)}
		} else {
			y := p.parseBinary(prec + 1)
			x = &ast.BinaryExpr{Op: opTok.Text, X: x, Y: y, Start: opTok.Pos(p.file)}
		}
		if !p.nest() { // one level per link of the left-deep chain
			return x
		}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	start := p.curPos()
	switch p.cur().Kind {
	case token.Not:
		p.advance()
		return &ast.UnaryExpr{Op: "!", X: p.parseOperand(), Start: start}
	case token.Minus:
		p.advance()
		return &ast.UnaryExpr{Op: "-", X: p.parseOperand(), Start: start}
	case token.PlusPlus, token.MinusLess:
		op := p.advance().Text
		return &ast.IncDecExpr{X: p.parseOperand(), Op: op, Start: start}
	case token.LParen:
		if p.isCastAhead() {
			p.advance() // (
			typ, _ := p.parseTypeRef()
			p.expect(token.RParen)
			return &ast.CastExpr{Type: typ, X: p.parseOperand(), Start: start}
		}
	}
	return p.parsePostfix()
}

// parseOperand parses the operand of a prefix operator or cast, one
// level deeper.
func (p *Parser) parseOperand() ast.Expr {
	defer p.resetDepth(p.depth)
	if !p.nest() {
		return p.badExpr()
	}
	return p.parseUnary()
}

// isCastAhead reports whether the current '(' starts a cast expression.
// Primitive-type casts are unambiguous. For reference types, a cast is
// assumed when the parenthesized content is a (dotted) name with optional
// array dims and the token after ')' can begin a cast operand.
func (p *Parser) isCastAhead() bool {
	i := 1
	if p.at(i).Kind.IsPrimitiveType() {
		return true
	}
	if p.at(i).Kind != token.Ident {
		return false
	}
	i++
	for p.at(i).Kind == token.Dot && p.at(i+1).Kind == token.Ident {
		i += 2
	}
	for p.at(i).Kind == token.LBracket && p.at(i+1).Kind == token.RBracket {
		i += 2
	}
	if p.at(i).Kind != token.RParen {
		return false
	}
	switch p.at(i + 1).Kind {
	case token.Ident, token.IntLit, token.StringLit, token.CharLit,
		token.KwThis, token.KwNew, token.KwNull, token.KwTrue, token.KwFalse,
		token.LParen, token.Not:
		return true
	}
	return false
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	defer p.resetDepth(p.depth)
	for {
		switch p.cur().Kind {
		case token.Dot:
			p.advance()
			name := p.expect(token.Ident).Text
			if p.cur().Kind == token.LParen {
				args := p.parseArgs()
				x = &ast.CallExpr{Recv: x, Name: name, Args: args, Start: x.Pos()}
			} else {
				x = &ast.FieldAccess{X: x, Name: name, Start: x.Pos()}
			}
		case token.LBracket:
			p.advance()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			x = &ast.IndexExpr{X: x, Index: idx, Start: x.Pos()}
		case token.PlusPlus, token.MinusLess:
			op := p.advance().Text
			x = &ast.IncDecExpr{X: x, Op: op, Start: x.Pos()}
		default:
			return x
		}
		if !p.nest() { // one level per link of the left-deep chain
			return x
		}
	}
}

func (p *Parser) parseArgs() []ast.Expr {
	p.expect(token.LParen)
	var args []ast.Expr
	for p.cur().Kind != token.RParen && p.cur().Kind != token.EOF {
		args = append(args, p.parseExpr())
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.RParen)
	return args
}

func (p *Parser) parsePrimary() ast.Expr {
	start := p.curPos()
	switch p.cur().Kind {
	case token.IntLit:
		t := p.advance()
		v, err := strconv.ParseInt(t.Text, 0, 64)
		if err != nil {
			p.errorf(t.Pos(p.file), "invalid integer literal %q", t.Text)
		}
		return &ast.Literal{Kind: ast.LitInt, Int: v, Start: start}
	case token.StringLit:
		t := p.advance()
		return &ast.Literal{Kind: ast.LitString, Str: t.Text, Start: start}
	case token.CharLit:
		t := p.advance()
		var v int64
		if len(t.Text) > 0 {
			v = int64(t.Text[0])
		}
		return &ast.Literal{Kind: ast.LitChar, Int: v, Start: start}
	case token.KwTrue:
		p.advance()
		return &ast.Literal{Kind: ast.LitBool, Bool: true, Start: start}
	case token.KwFalse:
		p.advance()
		return &ast.Literal{Kind: ast.LitBool, Bool: false, Start: start}
	case token.KwNull:
		p.advance()
		return &ast.Literal{Kind: ast.LitNull, Start: start}
	case token.KwThis:
		p.advance()
		if p.cur().Kind == token.LParen { // this(...) constructor call
			args := p.parseArgs()
			return &ast.CallExpr{Name: "this", Args: args, Start: start}
		}
		return &ast.VarRef{Name: "this", Start: start}
	case token.KwSuper:
		p.advance()
		if p.cur().Kind == token.LParen { // super(...) constructor call
			args := p.parseArgs()
			return &ast.CallExpr{Name: "super", Args: args, Start: start}
		}
		// super.m(...) or super.f
		p.expect(token.Dot)
		name := p.expect(token.Ident).Text
		recv := &ast.VarRef{Name: "super", Start: start}
		if p.cur().Kind == token.LParen {
			args := p.parseArgs()
			return &ast.CallExpr{Recv: recv, Name: name, Args: args, Start: start}
		}
		return &ast.FieldAccess{X: recv, Name: name, Start: start}
	case token.KwNew:
		return p.parseNew()
	case token.LParen:
		p.advance()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	case token.Ident:
		name := p.advance().Text
		if p.cur().Kind == token.LParen {
			args := p.parseArgs()
			return &ast.CallExpr{Name: name, Args: args, Start: start}
		}
		return &ast.VarRef{Name: name, Start: start}
	}
	p.errorf(start, "expected expression, found %s", p.cur())
	p.advance()
	return &ast.Literal{Kind: ast.LitNull, Start: start}
}

func (p *Parser) parseNew() ast.Expr {
	start := p.expect(token.KwNew).Pos(p.file)
	var typ ast.TypeRef
	if p.cur().Kind.IsPrimitiveType() {
		typ.Name = p.advance().Text
	} else {
		typ.Name = p.parseDottedName()
	}
	if p.cur().Kind == token.LBracket {
		// new T[len] or new T[] { ... }
		p.advance()
		na := &ast.NewArrayExpr{Type: typ, Start: start}
		if p.cur().Kind != token.RBracket {
			na.Len = p.parseExpr()
		}
		p.expect(token.RBracket)
		for p.cur().Kind == token.LBracket && p.peek().Kind == token.RBracket {
			p.advance()
			p.advance()
			na.Type.Dims++
		}
		if p.cur().Kind == token.LBrace {
			p.advance()
			for p.cur().Kind != token.RBrace && p.cur().Kind != token.EOF {
				na.Elems = append(na.Elems, p.parseExpr())
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.RBrace)
		}
		return na
	}
	ne := &ast.NewExpr{Type: typ, Start: start}
	ne.Args = p.parseArgs()
	return ne
}
