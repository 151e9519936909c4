// Package interp is a concrete interpreter for MJ used to witness security
// holes dynamically: it executes an API entry point under an installed
// guard object of a check domain (the SecurityManager in the default
// domain) whose permissions the harness controls, records every security
// check and native (JNI) call, and throws SecurityException when a check
// is denied — so a missing check manifests as a sensitive native call
// executing where the correct implementation throws.
//
// The interpreter implements the Java-like semantics the corpus relies on:
// objects with fields, virtual dispatch on runtime classes, constructors,
// exceptions with try/catch/finally, the domain's privileged blocks
// (checks inside AccessController.doPrivileged always pass), and
// short-circuit booleans. Native methods are intercepted: they record a
// trace event and return a zero value. To drive library code without a
// test harness providing real collaborators, the interpreter synthesizes
// objects on demand: reference-typed parameters and null reference-typed
// fields are lazily instantiated (guard-class-typed fields receive the
// installed guard object). This keeps execution on the paths the static
// analysis reasons about.
package interp

import (
	"fmt"

	"policyoracle/internal/ast"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/types"
)

// Value is an MJ runtime value: *Object, *Array, string, int64, bool, or
// nil (null).
type Value any

// Object is an MJ instance.
type Object struct {
	Class  *types.Class
	Fields map[string]Value
}

func (o *Object) String() string {
	if o == nil {
		return "null"
	}
	if o.Class == nil {
		return "object"
	}
	return o.Class.Simple + "@obj"
}

// Array is an MJ array value.
type Array struct {
	Elems []Value
}

// Permissions decides which security checks pass.
type Permissions struct {
	// Denied fails the listed checks; every other check passes.
	Denied map[secmodel.CheckID]bool
}

// AllowAll grants every permission.
func AllowAll() Permissions { return Permissions{} }

// Deny denies exactly the given checks.
func Deny(ids ...secmodel.CheckID) Permissions {
	p := Permissions{Denied: make(map[secmodel.CheckID]bool)}
	for _, id := range ids {
		p.Denied[id] = true
	}
	return p
}

// Permits reports whether the check passes.
func (p Permissions) Permits(id secmodel.CheckID) bool { return !p.Denied[id] }

// EventKind classifies trace events.
type EventKind int

// Trace event kinds.
const (
	CheckPassed EventKind = iota
	CheckDenied
	CheckPrivileged // a check in the domain's privileged scope (always passes)
	NativeCalled
)

func (k EventKind) String() string {
	switch k {
	case CheckPassed:
		return "check-passed"
	case CheckDenied:
		return "check-denied"
	case CheckPrivileged:
		return "check-privileged"
	case NativeCalled:
		return "native"
	}
	return "?"
}

// Event is one trace entry.
type Event struct {
	Kind EventKind
	Name string // check name or native method name
}

func (e Event) String() string { return fmt.Sprintf("%s:%s", e.Kind, e.Name) }

// Outcome summarizes one interpreted call.
type Outcome struct {
	// Result is the returned value when the call completed normally.
	Result Value
	// Thrown is the propagated exception object (nil if none).
	Thrown *Object
	// SecurityViolation reports whether Thrown is a SecurityException
	// raised by a denied check.
	SecurityViolation bool
	// Trace lists checks and native calls in execution order.
	Trace []Event
	// Err reports interpreter-level failures (fuel exhausted, unresolved
	// code); the outcome is then meaningless.
	Err error
}

// Natives returns the names of native methods invoked.
func (o *Outcome) Natives() []string {
	var out []string
	for _, e := range o.Trace {
		if e.Kind == NativeCalled {
			out = append(out, e.Name)
		}
	}
	return out
}

// CalledNative reports whether the named native ran.
func (o *Outcome) CalledNative(name string) bool {
	for _, e := range o.Trace {
		if e.Kind == NativeCalled && e.Name == name {
			return true
		}
	}
	return false
}

// Config adjusts interpretation.
type Config struct {
	Permissions Permissions
	// Fuel bounds the number of executed statements (default 100000).
	Fuel int
	// MaxCallDepth bounds activation nesting (default 512), failing fast
	// on runaway recursion before the Go stack grows large.
	MaxCallDepth int
	// SynthesizeObjects lazily instantiates reference parameters and null
	// reference fields so library code runs without a caller-provided
	// object graph (default true; the witness harness depends on it).
	SynthesizeObjects bool
}

// DefaultConfig returns the witness-harness configuration.
func DefaultConfig(perms Permissions) Config {
	return Config{Permissions: perms, Fuel: 100000, SynthesizeObjects: true}
}

// Interp executes MJ methods of one program.
type Interp struct {
	prog    *types.Program
	dom     *secmodel.Domain
	cfg     Config
	statics map[string]Value // ClassFQN.field
	guard   *Object          // the installed guard object of dom
	trace   []Event
	fuel    int
	priv    int // privileged-block nesting depth
	depth   int // activation nesting
}

// New prepares an interpreter for prog under check domain dom: dom names
// the checks it intercepts, the guard class whose instance it installs,
// and the privileged scope in which checks always pass.
func New(prog *types.Program, dom *secmodel.Domain, cfg Config) *Interp {
	if cfg.Fuel <= 0 {
		cfg.Fuel = 100000
	}
	if cfg.MaxCallDepth <= 0 {
		cfg.MaxCallDepth = 512
	}
	in := &Interp{prog: prog, dom: dom, cfg: cfg, statics: make(map[string]Value), fuel: cfg.Fuel}
	if gc := prog.Lookup(dom.GuardClass(), nil); gc != nil {
		in.guard = in.newObject(gc)
	}
	return in
}

// CallEntry interprets entry with a synthesized receiver and zero/
// synthesized arguments, returning the outcome. The named return is
// load-bearing: the deferred recover must deliver the partially filled
// outcome when MJ code throws.
func (in *Interp) CallEntry(entry *types.Method) (out *Outcome) {
	out = &Outcome{}
	defer func() {
		out.Trace = in.trace
		if r := recover(); r != nil {
			switch r := r.(type) {
			case *mjThrow:
				out.Thrown = r.val
				out.SecurityViolation = r.security
			case fuelExhausted:
				out.Err = fmt.Errorf("interpreter fuel exhausted in %s", entry)
			case interpError:
				out.Err = fmt.Errorf("interpreting %s: %s", entry, string(r))
			default:
				panic(r)
			}
		}
	}()

	var recv Value
	if !entry.IsStatic() {
		recv = in.newObject(entry.Class)
	}
	args := make([]Value, len(entry.Params))
	for i, pt := range entry.Params {
		args[i] = in.synthesizeValue(pt)
	}
	out.Result = in.invoke(entry, recv, args)
	return out
}

// mjThrow carries an MJ exception up the Go stack.
type mjThrow struct {
	val      *Object
	security bool
}

type fuelExhausted struct{}

type interpError string

func (in *Interp) fail(format string, args ...any) {
	panic(interpError(fmt.Sprintf(format, args...)))
}

// newObject allocates a zeroed instance (no constructor run).
func (in *Interp) newObject(c *types.Class) *Object {
	o := &Object{Class: c, Fields: make(map[string]Value)}
	for k := c; k != nil; k = k.Super {
		for _, f := range k.Fields {
			if f.Mods.Has(ast.ModStatic) {
				continue
			}
			o.Fields[f.Name] = in.zeroOf(f.Type)
		}
	}
	return o
}

// zeroOf returns the zero value of a type.
func (in *Interp) zeroOf(t types.Type) Value {
	if t.Dims > 0 {
		return nil
	}
	switch t.Prim {
	case "int", "long", "char", "byte", "short", "float", "double":
		return int64(0)
	case "boolean":
		return false
	case "void":
		return nil
	}
	return nil
}

// synthesizeValue builds an argument for a parameter type.
func (in *Interp) synthesizeValue(t types.Type) Value {
	if t.Dims > 0 {
		return &Array{}
	}
	if t.Prim != "" {
		return in.zeroOf(t)
	}
	if !in.cfg.SynthesizeObjects {
		return nil
	}
	c := t.Class
	if c == nil {
		return nil
	}
	return in.synthesizeOf(c)
}

// synthesizeOf instantiates a class (or a concrete implementor for
// interfaces/abstract classes). Guard-class-typed values are the installed
// guard object; String-typed values are a dummy string.
func (in *Interp) synthesizeOf(c *types.Class) Value {
	if in.guard != nil && in.dom.IsGuardClass(c) {
		return in.guard
	}
	if c.Simple == "String" {
		return "synth"
	}
	if c.IsInterface || c.Mods.Has(ast.ModAbstract) {
		for _, sub := range c.AllSubtypes() {
			if !sub.IsInterface && !sub.Mods.Has(ast.ModAbstract) {
				return in.syntheticObject(sub)
			}
		}
		return nil
	}
	return in.syntheticObject(c)
}

// syntheticObject allocates an instance whose numeric fields are 1 rather
// than 0: synthesized collaborators should exercise the guarded (non-
// default) paths of library code — a zero proxy type, for example, would
// make every proxy look DIRECT and skip the very checks under test.
// Boolean fields stay false (they typically select legacy fallbacks).
func (in *Interp) syntheticObject(c *types.Class) *Object {
	o := in.newObject(c)
	for name, v := range o.Fields {
		if i, ok := v.(int64); ok && i == 0 {
			o.Fields[name] = int64(1)
		}
	}
	return o
}

// syntheticZero is the synthesized-field default: 1 for ints, zero
// otherwise.
func (in *Interp) syntheticZero(t types.Type) Value {
	v := in.zeroOf(t)
	if i, ok := v.(int64); ok && i == 0 && t.Dims == 0 {
		return int64(1)
	}
	return v
}

// throwSecurity raises an MJ SecurityException (or a plain Exception when
// the class is absent from the program).
func (in *Interp) throwSecurity() {
	var exc *Object
	if c := in.prog.Lookup("SecurityException", nil); c != nil {
		exc = in.newObject(c)
	} else if c := in.prog.Lookup("Exception", nil); c != nil {
		exc = in.newObject(c)
	} else {
		exc = &Object{Fields: map[string]Value{}}
	}
	panic(&mjThrow{val: exc, security: true})
}
