package parser

import (
	"policyoracle/internal/ast"
	"policyoracle/internal/token"
)

func (p *Parser) parseBlock() *ast.Block {
	b := &ast.Block{Start: p.curPos()}
	p.expect(token.LBrace)
	for p.cur().Kind != token.RBrace && p.cur().Kind != token.EOF {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
		if p.pos == before { // guarantee progress on malformed input
			p.advance()
		}
	}
	p.expect(token.RBrace)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	start := p.curPos()
	defer p.resetDepth(p.depth)
	if !p.nest() {
		return &ast.Block{Start: start}
	}
	switch p.cur().Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.Semi:
		p.advance()
		return &ast.Block{Start: start} // empty statement
	case token.KwIf:
		p.advance()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		then := p.parseStmt()
		var els ast.Stmt
		if p.accept(token.KwElse) {
			els = p.parseStmt()
		}
		return &ast.IfStmt{Cond: cond, Then: then, Else: els, Start: start}
	case token.KwWhile:
		p.advance()
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		return &ast.WhileStmt{Cond: cond, Body: p.parseStmt(), Start: start}
	case token.KwDo:
		p.advance()
		body := p.parseStmt()
		p.expect(token.KwWhile)
		p.expect(token.LParen)
		cond := p.parseExpr()
		p.expect(token.RParen)
		p.expect(token.Semi)
		return &ast.DoWhileStmt{Body: body, Cond: cond, Start: start}
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		p.advance()
		var val ast.Expr
		if p.cur().Kind != token.Semi {
			val = p.parseExpr()
		}
		p.expect(token.Semi)
		return &ast.ReturnStmt{Value: val, Start: start}
	case token.KwThrow:
		p.advance()
		val := p.parseExpr()
		p.expect(token.Semi)
		return &ast.ThrowStmt{Value: val, Start: start}
	case token.KwBreak:
		p.advance()
		p.expect(token.Semi)
		return &ast.BreakStmt{Start: start}
	case token.KwContinue:
		p.advance()
		p.expect(token.Semi)
		return &ast.ContinueStmt{Start: start}
	case token.KwSynchronized:
		p.advance()
		p.expect(token.LParen)
		lock := p.parseExpr()
		p.expect(token.RParen)
		return &ast.SyncStmt{Lock: lock, Body: p.parseBlock(), Start: start}
	case token.KwTry:
		return p.parseTry()
	case token.KwSwitch:
		return p.parseSwitch()
	}

	// Local variable declaration vs expression/assignment statement.
	if p.looksLikeLocalDecl() {
		return p.parseLocalDecl()
	}
	return p.parseExprOrAssign()
}

// looksLikeLocalDecl distinguishes `Type name ...` from expressions.
func (p *Parser) looksLikeLocalDecl() bool {
	k := p.cur().Kind
	if k.IsPrimitiveType() {
		return true
	}
	if k != token.Ident {
		return false
	}
	// Scan over a dotted name and array dims, then require an identifier.
	i := 1
	for p.at(i).Kind == token.Dot && p.at(i+1).Kind == token.Ident {
		i += 2
	}
	for p.at(i).Kind == token.LBracket && p.at(i+1).Kind == token.RBracket {
		i += 2
	}
	return p.at(i).Kind == token.Ident
}

func (p *Parser) parseLocalDecl() ast.Stmt {
	start := p.curPos()
	typ, _ := p.parseTypeRef()
	b := &ast.Block{Start: start}
	for {
		name := p.expect(token.Ident).Text
		d := &ast.LocalVarDecl{Type: typ, Name: name, Start: start}
		if p.accept(token.Assign) {
			d.Init = p.parseExpr()
		}
		b.Stmts = append(b.Stmts, d)
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
	if len(b.Stmts) == 1 {
		return b.Stmts[0]
	}
	return b
}

func (p *Parser) parseExprOrAssign() ast.Stmt {
	start := p.curPos()
	x := p.parseExpr()
	switch p.cur().Kind {
	case token.Assign:
		p.advance()
		v := p.parseExpr()
		p.expect(token.Semi)
		return &ast.AssignStmt{Target: x, Op: "=", Value: v, Start: start}
	case token.PlusEq, token.MinusEq, token.StarEq, token.SlashEq:
		op := p.advance().Text
		v := p.parseExpr()
		p.expect(token.Semi)
		return &ast.AssignStmt{Target: x, Op: op, Value: v, Start: start}
	}
	p.expect(token.Semi)
	return &ast.ExprStmt{X: x, Start: start}
}

func (p *Parser) parseFor() ast.Stmt {
	start := p.curPos()
	p.expect(token.KwFor)
	p.expect(token.LParen)
	var init ast.Stmt
	if p.cur().Kind != token.Semi {
		if p.looksLikeLocalDecl() {
			init = p.parseLocalDecl() // consumes the ';'
		} else {
			init = p.parseForClause()
			p.expect(token.Semi)
		}
	} else {
		p.expect(token.Semi)
	}
	var cond ast.Expr
	if p.cur().Kind != token.Semi {
		cond = p.parseExpr()
	}
	p.expect(token.Semi)
	var post ast.Stmt
	if p.cur().Kind != token.RParen {
		post = p.parseForClause()
	}
	p.expect(token.RParen)
	return &ast.ForStmt{Init: init, Cond: cond, Post: post, Body: p.parseStmt(), Start: start}
}

// parseForClause parses an expression or assignment without the trailing
// semicolon (for-init and for-post positions).
func (p *Parser) parseForClause() ast.Stmt {
	start := p.curPos()
	x := p.parseExpr()
	switch p.cur().Kind {
	case token.Assign:
		p.advance()
		return &ast.AssignStmt{Target: x, Op: "=", Value: p.parseExpr(), Start: start}
	case token.PlusEq, token.MinusEq, token.StarEq, token.SlashEq:
		op := p.advance().Text
		return &ast.AssignStmt{Target: x, Op: op, Value: p.parseExpr(), Start: start}
	}
	return &ast.ExprStmt{X: x, Start: start}
}

func (p *Parser) parseTry() ast.Stmt {
	start := p.curPos()
	p.expect(token.KwTry)
	t := &ast.TryStmt{Body: p.parseBlock(), Start: start}
	for p.cur().Kind == token.KwCatch {
		cstart := p.curPos()
		p.advance()
		p.expect(token.LParen)
		typ, ok := p.parseTypeRef()
		if !ok {
			p.errorf(p.curPos(), "expected exception type in catch")
		}
		name := p.expect(token.Ident).Text
		p.expect(token.RParen)
		t.Catches = append(t.Catches, &ast.CatchClause{Type: typ, Name: name, Body: p.parseBlock(), Start: cstart})
	}
	if p.accept(token.KwFinally) {
		t.Finally = p.parseBlock()
	}
	if len(t.Catches) == 0 && t.Finally == nil {
		p.errorf(start, "try without catch or finally")
	}
	return t
}

func (p *Parser) parseSwitch() ast.Stmt {
	start := p.curPos()
	p.expect(token.KwSwitch)
	p.expect(token.LParen)
	tag := p.parseExpr()
	p.expect(token.RParen)
	p.expect(token.LBrace)
	sw := &ast.SwitchStmt{Tag: tag, Start: start}
	for p.cur().Kind == token.KwCase || p.cur().Kind == token.KwDefault {
		cstart := p.curPos()
		c := &ast.SwitchCase{Start: cstart}
		if p.accept(token.KwDefault) {
			c.IsDefault = true
		} else {
			p.expect(token.KwCase)
			c.Value = p.parseExpr()
		}
		p.expect(token.Colon)
		for {
			k := p.cur().Kind
			if k == token.KwCase || k == token.KwDefault || k == token.RBrace || k == token.EOF {
				break
			}
			before := p.pos
			s := p.parseStmt()
			if s != nil {
				c.Stmts = append(c.Stmts, s)
			}
			if p.pos == before {
				p.advance()
			}
		}
		sw.Cases = append(sw.Cases, c)
	}
	p.expect(token.RBrace)
	return sw
}
