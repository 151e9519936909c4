package interp

import (
	"policyoracle/internal/ast"
	"policyoracle/internal/types"
)

// frame is one activation record.
type frame struct {
	method *types.Method
	class  *types.Class
	this   Value
	scopes []map[string]Value
}

func (fr *frame) push() { fr.scopes = append(fr.scopes, map[string]Value{}) }
func (fr *frame) pop()  { fr.scopes = fr.scopes[:len(fr.scopes)-1] }

func (fr *frame) lookup(name string) (Value, bool) {
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		if v, ok := fr.scopes[i][name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (fr *frame) assign(name string, v Value) bool {
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		if _, ok := fr.scopes[i][name]; ok {
			fr.scopes[i][name] = v
			return true
		}
	}
	return false
}

func (fr *frame) declare(name string, v Value) { fr.scopes[len(fr.scopes)-1][name] = v }

// ctrl is the statement-level control disposition.
type ctrl int

const (
	ctrlNormal ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

func (in *Interp) burn() {
	in.fuel--
	if in.fuel <= 0 {
		panic(fuelExhausted{})
	}
}

// invoke executes method m with the given receiver and arguments.
func (in *Interp) invoke(m *types.Method, recv Value, args []Value) Value {
	in.burn()
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > in.cfg.MaxCallDepth {
		in.fail("call depth limit exceeded in %s", m)
	}

	// Security checks are intercepted: they consult the permission set.
	if id, ok := in.dom.CheckByName(m.Name, len(m.Params)); ok && in.dom.IsGuardClass(m.Class) {
		name := in.dom.CheckName(id)
		switch {
		case in.priv > 0:
			in.trace = append(in.trace, Event{CheckPrivileged, name})
		case in.cfg.Permissions.Permits(id):
			in.trace = append(in.trace, Event{CheckPassed, name})
		default:
			in.trace = append(in.trace, Event{CheckDenied, name})
			in.throwSecurity()
		}
		return nil
	}
	if m.IsNative() {
		in.trace = append(in.trace, Event{NativeCalled, m.Name})
		return in.zeroOf(m.Ret)
	}
	if m.Decl == nil || m.Decl.Body == nil {
		return in.zeroOf(m.Ret) // abstract reached via lenient dispatch
	}

	if in.dom.IsPrivilegedScope(m) {
		in.priv++
		defer func() { in.priv-- }()
	}

	fr := &frame{method: m, class: m.Class, this: recv}
	fr.push()
	for i, name := range m.ParamNames {
		var v Value
		if i < len(args) {
			v = args[i]
		}
		fr.declare(name, v)
	}
	c, v := in.execBlock(fr, m.Decl.Body)
	if c == ctrlReturn {
		return v
	}
	return nil
}

func (in *Interp) execBlock(fr *frame, b *ast.Block) (ctrl, Value) {
	fr.push()
	defer fr.pop()
	for _, s := range b.Stmts {
		if c, v := in.execStmt(fr, s); c != ctrlNormal {
			return c, v
		}
	}
	return ctrlNormal, nil
}

func (in *Interp) execStmt(fr *frame, s ast.Stmt) (ctrl, Value) {
	in.burn()
	switch s := s.(type) {
	case *ast.Block:
		return in.execBlock(fr, s)
	case *ast.LocalVarDecl:
		var v Value
		if s.Init != nil {
			v = in.eval(fr, s.Init)
		} else {
			v = in.zeroOf(in.resolveType(fr, s.Type))
		}
		fr.declare(s.Name, v)
	case *ast.ExprStmt:
		in.eval(fr, s.X)
	case *ast.AssignStmt:
		in.execAssign(fr, s)
	case *ast.IfStmt:
		if truthy(in.eval(fr, s.Cond)) {
			return in.execStmt(fr, s.Then)
		} else if s.Else != nil {
			return in.execStmt(fr, s.Else)
		}
	case *ast.WhileStmt:
		for truthy(in.eval(fr, s.Cond)) {
			in.burn()
			c, v := in.execStmt(fr, s.Body)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v
			}
		}
	case *ast.DoWhileStmt:
		for {
			in.burn()
			c, v := in.execStmt(fr, s.Body)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v
			}
			if !truthy(in.eval(fr, s.Cond)) {
				break
			}
		}
	case *ast.ForStmt:
		fr.push()
		defer fr.pop()
		if s.Init != nil {
			if c, v := in.execStmt(fr, s.Init); c != ctrlNormal {
				return c, v
			}
		}
		for s.Cond == nil || truthy(in.eval(fr, s.Cond)) {
			in.burn()
			c, v := in.execStmt(fr, s.Body)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, v
			}
			if s.Post != nil {
				in.execStmt(fr, s.Post)
			}
		}
	case *ast.ReturnStmt:
		var v Value
		if s.Value != nil {
			v = in.eval(fr, s.Value)
		}
		return ctrlReturn, v
	case *ast.ThrowStmt:
		v := in.eval(fr, s.Value)
		obj, _ := v.(*Object)
		if obj == nil {
			in.fail("throw of non-object")
		}
		panic(&mjThrow{val: obj})
	case *ast.BreakStmt:
		return ctrlBreak, nil
	case *ast.ContinueStmt:
		return ctrlContinue, nil
	case *ast.SyncStmt:
		in.eval(fr, s.Lock)
		return in.execBlock(fr, s.Body)
	case *ast.TryStmt:
		return in.execTry(fr, s)
	case *ast.SwitchStmt:
		return in.execSwitch(fr, s)
	default:
		in.fail("cannot execute %T", s)
	}
	return ctrlNormal, nil
}

// execTry implements try/catch/finally with Java semantics (modulo
// abrupt-completion interactions inside finally, which override).
func (in *Interp) execTry(fr *frame, s *ast.TryStmt) (c ctrl, v Value) {
	var rethrow *mjThrow
	c, v = func() (c ctrl, v Value) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			th, ok := r.(*mjThrow)
			if !ok {
				panic(r)
			}
			for _, cc := range s.Catches {
				if in.catches(fr, cc, th.val) {
					fr.push()
					fr.declare(cc.Name, th.val)
					c, v = in.execBlock(fr, cc.Body)
					fr.pop()
					return
				}
			}
			rethrow = th
		}()
		return in.execBlock(fr, s.Body)
	}()
	if s.Finally != nil {
		fc, fv := in.execBlock(fr, s.Finally)
		if fc != ctrlNormal {
			return fc, fv // finally overrides
		}
	}
	if rethrow != nil {
		panic(rethrow)
	}
	return c, v
}

func (in *Interp) catches(fr *frame, cc *ast.CatchClause, exc *Object) bool {
	t := in.resolveType(fr, cc.Type)
	if t.Class == nil {
		return true // unresolved handler type: catch everything (lenient)
	}
	return exc.Class != nil && exc.Class.SubtypeOf(t.Class)
}

func (in *Interp) execSwitch(fr *frame, s *ast.SwitchStmt) (ctrl, Value) {
	tag := in.eval(fr, s.Tag)
	start := -1
	for i, cs := range s.Cases {
		if cs.IsDefault {
			continue
		}
		if valueEquals(tag, in.eval(fr, cs.Value)) {
			start = i
			break
		}
	}
	if start < 0 {
		for i, cs := range s.Cases {
			if cs.IsDefault {
				start = i
				break
			}
		}
	}
	if start < 0 {
		return ctrlNormal, nil
	}
	for i := start; i < len(s.Cases); i++ {
		for _, st := range s.Cases[i].Stmts {
			c, v := in.execStmt(fr, st)
			if c == ctrlBreak {
				return ctrlNormal, nil
			}
			if c != ctrlNormal {
				return c, v
			}
		}
	}
	return ctrlNormal, nil
}

func (in *Interp) execAssign(fr *frame, s *ast.AssignStmt) {
	var rhs Value
	if s.Op == "=" {
		rhs = in.eval(fr, s.Value)
	} else {
		cur := in.eval(fr, s.Target)
		rhs = in.binary(s.Op[:1], cur, in.eval(fr, s.Value))
	}
	in.store(fr, s.Target, rhs)
}

func (in *Interp) store(fr *frame, target ast.Expr, v Value) {
	switch t := target.(type) {
	case *ast.VarRef:
		if fr.assign(t.Name, v) {
			return
		}
		if f := fr.class.FieldOf(t.Name); f != nil {
			if f.Mods.Has(ast.ModStatic) {
				in.statics[f.Qualified()] = v
				return
			}
			obj, _ := fr.this.(*Object)
			if obj == nil {
				in.fail("implicit field store without this")
			}
			obj.Fields[t.Name] = v
			return
		}
		in.fail("store to unresolved name %s", t.Name)
	case *ast.FieldAccess:
		if cls := in.classQualifier(fr, t.X); cls != nil {
			if f := cls.FieldOf(t.Name); f != nil {
				in.statics[f.Qualified()] = v
				return
			}
			in.statics[cls.Name+"."+t.Name] = v
			return
		}
		obj := in.evalObject(fr, t.X)
		obj.Fields[t.Name] = v
	case *ast.IndexExpr:
		arr := in.eval(fr, t.X)
		idx := asInt(in.eval(fr, t.Index))
		a, ok := arr.(*Array)
		if !ok {
			in.fail("index store to non-array")
		}
		for int64(len(a.Elems)) <= idx {
			a.Elems = append(a.Elems, nil) // lenient growth
		}
		a.Elems[idx] = v
	default:
		in.fail("invalid assignment target %T", target)
	}
}

func truthy(v Value) bool {
	b, ok := v.(bool)
	return ok && b
}

func asInt(v Value) int64 {
	if i, ok := v.(int64); ok {
		return i
	}
	return 0
}

func valueEquals(a, b Value) bool { return a == b }
