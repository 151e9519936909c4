// Package types builds the program model for one MJ library implementation:
// the class table, the inheritance hierarchy, field and method resolution,
// and API entry-point enumeration.
//
// One Program corresponds to one library implementation (e.g. the "jdk"
// corpus). The security policy oracle builds one Program per implementation
// and matches their entry points by signature.
package types

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"policyoracle/internal/ast"
	"policyoracle/internal/lang"
)

// Program is the class table for one library implementation.
type Program struct {
	Name    string
	Classes map[string]*Class // by fully qualified name
	simple  map[string][]*Class
	methods []*Method // all methods, indexed by Method.ID
	Diags   *lang.Diagnostics

	// Sorted views are computed once: the class set is fixed after Build's
	// registration pass and entry-point status never changes, so repeated
	// AllClasses/EntryPoints calls share one slice. Callers must not
	// mutate the returned slices.
	classOnce sync.Once
	classList []*Class
	epOnce    sync.Once
	eps       []*Method
}

// Class is one class or interface.
type Class struct {
	Program     *Program
	Name        string // fully qualified, e.g. "java.net.Socket"
	Simple      string
	Package     string
	Mods        ast.Modifiers
	IsInterface bool
	Super       *Class
	Interfaces  []*Class
	Fields      []*Field
	Methods     []*Method
	Subclasses  []*Class // direct subclasses and implementors
	Decl        *ast.TypeDecl
	File        *ast.File

	fieldsByName map[string]*Field
	subsOnce     sync.Once
	subs         []*Class
}

// Field is one declared field.
type Field struct {
	Class *Class
	Name  string
	Type  Type
	Mods  ast.Modifiers
	Decl  *ast.FieldDecl
}

// Qualified returns the field's fully qualified name.
func (f *Field) Qualified() string { return f.Class.Name + "." + f.Name }

// IsPrivate reports whether the field is private.
func (f *Field) IsPrivate() bool { return f.Mods.Has(ast.ModPrivate) }

// Method is one declared method or constructor.
type Method struct {
	Class      *Class
	Name       string
	Mods       ast.Modifiers
	Params     []Type
	ParamNames []string
	Ret        Type
	IsCtor     bool
	Decl       *ast.MethodDecl
	ID         int // dense program-wide index

	// sig and qualified are cached by Build once parameter types are
	// resolved; the analysis hot path reads them on every memo probe and
	// dependency record, so they must not be rebuilt per call.
	sig       string
	qualified string
}

// Type is a resolved MJ type: a primitive (Prim != ""), a class reference
// (Class != nil), or an unresolved named type (Named != ""), each with an
// array dimension count.
type Type struct {
	Prim  string // "int", "boolean", "void", ...
	Class *Class
	Named string // unresolved reference type's source name
	Dims  int
}

// IsRef reports whether the type is a reference type (class, unresolved
// name, or any array).
func (t Type) IsRef() bool { return t.Dims > 0 || t.Class != nil || t.Named != "" }

// SimpleName returns the type's simple name plus array suffixes; it is the
// cross-implementation matching key for parameter types.
func (t Type) SimpleName() string {
	var base string
	switch {
	case t.Prim != "":
		base = t.Prim
	case t.Class != nil:
		base = t.Class.Simple
	default:
		base = simpleOf(t.Named)
	}
	return base + strings.Repeat("[]", t.Dims)
}

func (t Type) String() string { return t.SimpleName() }

func simpleOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// Sig returns the method's matching signature: name(paramSimpleNames).
// Constructors use the name "<init>".
func (m *Method) Sig() string {
	if m.sig != "" {
		return m.sig
	}
	return m.computeSig()
}

func (m *Method) computeSig() string {
	name := m.Name
	if m.IsCtor {
		name = "<init>"
	}
	parts := make([]string, len(m.Params))
	for i, p := range m.Params {
		parts[i] = p.SimpleName()
	}
	return name + "(" + strings.Join(parts, ",") + ")"
}

// cacheNames memoizes Sig and Qualified. Build calls it once per method
// after parameter types resolve; hand-built Methods that skip Build fall
// back to recomputing on every call.
func (m *Method) cacheNames() {
	m.sig = m.computeSig()
	m.qualified = m.Class.Name + "." + m.sig
}

// Qualified returns ClassFQN.Sig — the entry-point key.
func (m *Method) Qualified() string {
	if m.qualified != "" {
		return m.qualified
	}
	return m.Class.Name + "." + m.Sig()
}

func (m *Method) String() string { return m.Qualified() }

// IsNative reports whether the method is a native (JNI) method.
func (m *Method) IsNative() bool { return m.Mods.Has(ast.ModNative) }

// IsAbstract reports whether the method has no body because it is abstract
// or declared on an interface.
func (m *Method) IsAbstract() bool {
	return m.Mods.Has(ast.ModAbstract) || (m.Class.IsInterface && m.Decl != nil && m.Decl.Body == nil)
}

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.Mods.Has(ast.ModStatic) }

// IsEntryPoint reports whether the method is an API entry point per the
// paper: public and protected methods (including constructors) of public
// classes are analyzed, because applications can call them directly or via
// a derived class. Methods of package-private classes are unreachable from
// application code.
func (m *Method) IsEntryPoint() bool {
	if m.Class.IsInterface || !m.Class.Mods.Has(ast.ModPublic) {
		return false
	}
	return m.Mods.Has(ast.ModPublic) || m.Mods.Has(ast.ModProtected)
}

// Build constructs the Program for the given parsed files. Resolution
// errors are reported to diags; the model contains whatever resolved.
func Build(name string, files []*ast.File, diags *lang.Diagnostics) *Program {
	p := &Program{
		Name:    name,
		Classes: make(map[string]*Class),
		simple:  make(map[string][]*Class),
		Diags:   diags,
	}
	// Pass 1: register classes.
	for _, f := range files {
		for _, td := range f.Types {
			fqn := td.Name
			if f.Package != "" {
				fqn = f.Package + "." + td.Name
			}
			if _, dup := p.Classes[fqn]; dup {
				diags.Errorf(td.Start, "duplicate class %s", fqn)
				continue
			}
			c := &Class{
				Program:      p,
				Name:         fqn,
				Simple:       td.Name,
				Package:      f.Package,
				Mods:         td.Mods,
				IsInterface:  td.IsInterface,
				Decl:         td,
				File:         f,
				fieldsByName: make(map[string]*Field),
			}
			p.Classes[fqn] = c
			p.simple[td.Name] = append(p.simple[td.Name], c)
		}
	}
	// Pass 2: resolve hierarchy and members.
	for _, c := range p.sortedClasses() {
		p.resolveClass(c)
	}
	// Pass 3: link subclasses.
	for _, c := range p.sortedClasses() {
		if c.Super != nil {
			c.Super.Subclasses = append(c.Super.Subclasses, c)
		}
		for _, i := range c.Interfaces {
			i.Subclasses = append(i.Subclasses, c)
		}
	}
	// Pass 4: memoize signature strings now that parameter types resolved.
	for _, m := range p.methods {
		m.cacheNames()
	}
	return p
}

func (p *Program) sortedClasses() []*Class {
	p.classOnce.Do(func() {
		out := make([]*Class, 0, len(p.Classes))
		for _, c := range p.Classes {
			out = append(out, c)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		p.classList = out
	})
	return p.classList
}

// AllClasses returns the classes sorted by fully qualified name.
func (p *Program) AllClasses() []*Class { return p.sortedClasses() }

// AllMethods returns every method in the program, indexed by Method.ID.
func (p *Program) AllMethods() []*Method { return p.methods }

func (p *Program) resolveClass(c *Class) {
	td := c.Decl
	if td.Extends != "" {
		if s := p.Lookup(td.Extends, c.File); s != nil {
			if s.IsInterface {
				p.Diags.Errorf(td.Start, "class %s extends interface %s", c.Name, s.Name)
			} else {
				c.Super = s
			}
		} else {
			p.Diags.Warnf(td.Start, "unresolved superclass %s of %s", td.Extends, c.Name)
		}
	}
	for _, in := range td.Implements {
		if s := p.Lookup(in, c.File); s != nil {
			c.Interfaces = append(c.Interfaces, s)
		} else {
			p.Diags.Warnf(td.Start, "unresolved interface %s of %s", in, c.Name)
		}
	}
	for _, fd := range td.Fields {
		f := &Field{Class: c, Name: fd.Name, Type: p.resolveType(fd.Type, c.File), Mods: fd.Mods, Decl: fd}
		if _, dup := c.fieldsByName[fd.Name]; dup {
			p.Diags.Errorf(fd.Start, "duplicate field %s.%s", c.Name, fd.Name)
			continue
		}
		c.Fields = append(c.Fields, f)
		c.fieldsByName[fd.Name] = f
	}
	for _, md := range td.Methods {
		m := &Method{
			Class:  c,
			Name:   md.Name,
			Mods:   md.Mods,
			Ret:    p.resolveType(md.Ret, c.File),
			IsCtor: md.IsCtor,
			Decl:   md,
			ID:     len(p.methods),
		}
		for _, prm := range md.Params {
			m.Params = append(m.Params, p.resolveType(prm.Type, c.File))
			m.ParamNames = append(m.ParamNames, prm.Name)
		}
		c.Methods = append(c.Methods, m)
		p.methods = append(p.methods, m)
	}
}

func (p *Program) resolveType(tr ast.TypeRef, f *ast.File) Type {
	switch tr.Name {
	case "":
		return Type{Prim: "void"}
	case "void", "boolean", "int", "long", "char", "byte", "short", "float", "double":
		return Type{Prim: tr.Name, Dims: tr.Dims}
	}
	if c := p.Lookup(tr.Name, f); c != nil {
		return Type{Class: c, Dims: tr.Dims}
	}
	return Type{Named: tr.Name, Dims: tr.Dims}
}

// Lookup resolves a (possibly qualified) class name in the context of file
// f (which may be nil). Resolution order: fully qualified name, same
// package, explicit import, wildcard import, globally unique simple name.
func (p *Program) Lookup(name string, f *ast.File) *Class {
	if c, ok := p.Classes[name]; ok {
		return c
	}
	if strings.Contains(name, ".") {
		return nil // qualified but unknown
	}
	if f != nil {
		if f.Package != "" {
			if c, ok := p.Classes[f.Package+"."+name]; ok {
				return c
			}
		}
		for _, imp := range f.Imports {
			if strings.HasSuffix(imp, ".*") {
				if c, ok := p.Classes[imp[:len(imp)-1]+name]; ok {
					return c
				}
			} else if simpleOf(imp) == name {
				if c, ok := p.Classes[imp]; ok {
					return c
				}
			}
		}
	}
	if cs := p.simple[name]; len(cs) == 1 {
		return cs[0]
	}
	return nil
}

// FieldOf resolves a field by name on c or its superclasses.
func (c *Class) FieldOf(name string) *Field {
	for k := c; k != nil; k = k.Super {
		if f, ok := k.fieldsByName[name]; ok {
			return f
		}
	}
	return nil
}

// MethodsNamed returns methods declared directly on c with the given name
// (or constructors when name is "<init>").
func (c *Class) MethodsNamed(name string) []*Method {
	var out []*Method
	for _, m := range c.Methods {
		if name == "<init>" {
			if m.IsCtor {
				out = append(out, m)
			}
		} else if !m.IsCtor && m.Name == name {
			out = append(out, m)
		}
	}
	return out
}

// LookupMethod resolves a method by name and argument count starting at c
// and walking up the superclass chain, then interfaces; it prefers an
// exact arity match. Returns nil if nothing matches.
func (c *Class) LookupMethod(name string, nargs int) *Method {
	for k := c; k != nil; k = k.Super {
		for _, m := range k.MethodsNamed(name) {
			if len(m.Params) == nargs {
				return m
			}
		}
	}
	// Interface default resolution (declaration only, for dispatch roots).
	seen := map[*Class]bool{}
	var walk func(*Class) *Method
	walk = func(k *Class) *Method {
		if k == nil || seen[k] {
			return nil
		}
		seen[k] = true
		for _, m := range k.MethodsNamed(name) {
			if len(m.Params) == nargs {
				return m
			}
		}
		for _, i := range k.Interfaces {
			if m := walk(i); m != nil {
				return m
			}
		}
		return walk(k.Super)
	}
	return walk(c)
}

// SubtypeOf reports whether c is t or a subclass/implementor of t.
func (c *Class) SubtypeOf(t *Class) bool {
	if t == nil {
		return false
	}
	seen := map[*Class]bool{}
	var walk func(*Class) bool
	walk = func(k *Class) bool {
		if k == nil || seen[k] {
			return false
		}
		seen[k] = true
		if k == t {
			return true
		}
		for _, i := range k.Interfaces {
			if walk(i) {
				return true
			}
		}
		return walk(k.Super)
	}
	return walk(c)
}

// AllSubtypes returns c plus every transitive subclass/implementor,
// sorted by name. The hierarchy is immutable once Build returns, so the
// slice is computed once and shared; callers must not mutate it.
func (c *Class) AllSubtypes() []*Class {
	c.subsOnce.Do(func() {
		seen := map[*Class]bool{}
		var out []*Class
		var walk func(*Class)
		walk = func(k *Class) {
			if seen[k] {
				return
			}
			seen[k] = true
			out = append(out, k)
			for _, s := range k.Subclasses {
				walk(s)
			}
		}
		walk(c)
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		c.subs = out
	})
	return c.subs
}

// EntryPoints returns all API entry points of the program, sorted by
// qualified signature. The slice is computed once and shared; callers
// must not mutate it.
func (p *Program) EntryPoints() []*Method {
	p.epOnce.Do(func() {
		var out []*Method
		for _, c := range p.sortedClasses() {
			for _, m := range c.Methods {
				if m.IsEntryPoint() {
					out = append(out, m)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Qualified() < out[j].Qualified() })
		p.eps = out
	})
	return p.eps
}

// String summarizes the program.
func (p *Program) String() string {
	return fmt.Sprintf("program %s: %d classes, %d methods", p.Name, len(p.Classes), len(p.methods))
}
