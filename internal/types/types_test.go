package types

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"policyoracle/internal/ast"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
)

func build(t *testing.T, srcs ...string) *Program {
	t.Helper()
	var diags lang.Diagnostics
	var files []*ast.File
	for i, src := range srcs {
		files = append(files, parser.ParseFile("t.mj", src, &diags))
		_ = i
	}
	if diags.HasErrors() {
		t.Fatalf("parse errors: %v", diags.Err())
	}
	p := Build("test", files, &diags)
	if diags.HasErrors() {
		t.Fatalf("build errors: %v", diags.Err())
	}
	return p
}

const hierarchySrc = `
package java.net;
public class SocketAddress { }
public class InetSocketAddress extends SocketAddress {
  public String getHostName() { return null; }
}
public class Socket {
  private SocketImpl impl;
  public void connect(SocketAddress endpoint, int timeout) { }
  protected void bind(int port) { }
  void packagePrivate() { }
  private void hidden() { }
}
class SocketImpl {
  native void connect0(SocketAddress a, int t);
}
public class SSLSocket extends Socket {
  public void connect(SocketAddress endpoint, int timeout) { }
}
`

func TestHierarchy(t *testing.T) {
	p := build(t, hierarchySrc)
	isa := p.Classes["java.net.InetSocketAddress"]
	sa := p.Classes["java.net.SocketAddress"]
	if isa == nil || sa == nil {
		t.Fatal("classes missing")
	}
	if isa.Super != sa {
		t.Errorf("super = %v", isa.Super)
	}
	if !isa.SubtypeOf(sa) || sa.SubtypeOf(isa) {
		t.Error("subtype relation wrong")
	}
	ssl := p.Classes["java.net.SSLSocket"]
	sock := p.Classes["java.net.Socket"]
	subs := sock.AllSubtypes()
	if len(subs) != 2 || subs[0] != ssl && subs[1] != ssl {
		t.Errorf("subtypes of Socket = %v", subs)
	}
}

func TestEntryPoints(t *testing.T) {
	p := build(t, hierarchySrc)
	eps := p.EntryPoints()
	var sigs []string
	for _, m := range eps {
		sigs = append(sigs, m.Qualified())
	}
	want := map[string]bool{
		"java.net.InetSocketAddress.getHostName()":      true,
		"java.net.Socket.connect(SocketAddress,int)":    true,
		"java.net.Socket.bind(int)":                     true,
		"java.net.SSLSocket.connect(SocketAddress,int)": true,
	}
	for _, s := range sigs {
		if !want[s] {
			t.Errorf("unexpected entry point %s", s)
		}
		delete(want, s)
	}
	for s := range want {
		t.Errorf("missing entry point %s", s)
	}
}

func TestMethodSignatures(t *testing.T) {
	p := build(t, hierarchySrc)
	sock := p.Classes["java.net.Socket"]
	m := sock.LookupMethod("connect", 2)
	if m == nil {
		t.Fatal("connect not found")
	}
	if got := m.Sig(); got != "connect(SocketAddress,int)" {
		t.Errorf("sig = %q", got)
	}
}

func TestLookupMethodWalksSuper(t *testing.T) {
	p := build(t, hierarchySrc)
	ssl := p.Classes["java.net.SSLSocket"]
	if m := ssl.LookupMethod("bind", 1); m == nil || m.Class.Simple != "Socket" {
		t.Errorf("bind lookup = %v", m)
	}
	// Overridden method resolves to the subclass copy.
	if m := ssl.LookupMethod("connect", 2); m == nil || m.Class.Simple != "SSLSocket" {
		t.Errorf("connect lookup = %v", m)
	}
}

func TestFieldResolution(t *testing.T) {
	p := build(t, hierarchySrc)
	sock := p.Classes["java.net.Socket"]
	f := sock.FieldOf("impl")
	if f == nil || !f.IsPrivate() {
		t.Fatalf("impl = %+v", f)
	}
	if f.Type.Class == nil || f.Type.Class.Simple != "SocketImpl" {
		t.Errorf("impl type = %v", f.Type)
	}
	ssl := p.Classes["java.net.SSLSocket"]
	if ssl.FieldOf("impl") != f {
		t.Error("field lookup does not walk superclass")
	}
}

func TestNativeDetection(t *testing.T) {
	p := build(t, hierarchySrc)
	impl := p.Classes["java.net.SocketImpl"]
	m := impl.LookupMethod("connect0", 2)
	if m == nil || !m.IsNative() {
		t.Errorf("connect0 = %+v", m)
	}
}

func TestInterfaces(t *testing.T) {
	p := build(t, `
package java.security;
public interface PrivilegedAction {
  Object run();
}
public class LoadAction implements PrivilegedAction {
  public Object run() { return null; }
}
class Object { }
`)
	pa := p.Classes["java.security.PrivilegedAction"]
	la := p.Classes["java.security.LoadAction"]
	if !la.SubtypeOf(pa) {
		t.Error("implementor not subtype of interface")
	}
	if pa.Methods[0].IsEntryPoint() {
		t.Error("interface methods are not entry points")
	}
	subs := pa.AllSubtypes()
	if len(subs) != 2 {
		t.Errorf("subtypes = %v", subs)
	}
}

func TestImportsResolution(t *testing.T) {
	p := build(t,
		`package java.lang; public class SecurityManager { public void checkExit(int s) { } }`,
		`package java.util; public class SecurityManager { }`,
		`package app;
import java.lang.SecurityManager;
public class Main {
  SecurityManager sm;
}`)
	main := p.Classes["app.Main"]
	f := main.FieldOf("sm")
	if f.Type.Class == nil || f.Type.Class.Name != "java.lang.SecurityManager" {
		t.Errorf("sm resolved to %v", f.Type)
	}
}

func TestWildcardImport(t *testing.T) {
	p := build(t,
		`package java.io; public class File { }`,
		`package app; import java.io.*; public class Main { File f; }`)
	f := p.Classes["app.Main"].FieldOf("f")
	if f.Type.Class == nil || f.Type.Class.Name != "java.io.File" {
		t.Errorf("f resolved to %v", f.Type)
	}
}

func TestGloballyUniqueSimpleName(t *testing.T) {
	p := build(t,
		`package java.net; public class InetAddress { }`,
		`package app; public class Main { InetAddress a; }`)
	f := p.Classes["app.Main"].FieldOf("a")
	if f.Type.Class == nil {
		t.Errorf("a unresolved: %v", f.Type)
	}
}

func TestAmbiguousSimpleNameUnresolved(t *testing.T) {
	p := build(t,
		`package a; public class Dup { }`,
		`package b; public class Dup { }`,
		`package app; public class Main { Dup d; }`)
	f := p.Classes["app.Main"].FieldOf("d")
	if f.Type.Class != nil {
		t.Errorf("ambiguous name resolved to %v", f.Type.Class)
	}
	if f.Type.Named != "Dup" {
		t.Errorf("named = %q", f.Type.Named)
	}
}

func TestDuplicateClassError(t *testing.T) {
	var diags lang.Diagnostics
	f1 := parser.ParseFile("a.mj", `package p; class C { }`, &diags)
	f2 := parser.ParseFile("b.mj", `package p; class C { }`, &diags)
	Build("t", []*ast.File{f1, f2}, &diags)
	if !diags.HasErrors() {
		t.Error("expected duplicate class error")
	}
}

func TestCtorSignature(t *testing.T) {
	p := build(t, `
package java.net;
public class URL {
  public URL(String spec) { }
  public URL(URL context, String spec, URLStreamHandler handler) { }
}
public class URLStreamHandler { }
class String { }
`)
	url := p.Classes["java.net.URL"]
	ctors := url.MethodsNamed("<init>")
	if len(ctors) != 2 {
		t.Fatalf("got %d ctors", len(ctors))
	}
	if got := ctors[1].Sig(); got != "<init>(URL,String,URLStreamHandler)" {
		t.Errorf("sig = %q", got)
	}
	if !ctors[0].IsEntryPoint() {
		t.Error("public ctor should be an entry point")
	}
}

// TestMethodIndexOrder pins Build's name index: MethodsNamed lists a
// name's overloads, and "<init>" the constructors, in declaration order
// whatever lies between them; LookupMethod returns the first arity
// match; and a caller that appends to a returned slice and writes to
// the result leaves the index as it was.
func TestMethodIndexOrder(t *testing.T) {
	p := build(t, `
package p;
public class A {
  public void f(int x) { }
  public A() { }
  public void g() { }
  public void f(String s) { }
  public A(int x) { }
  public void f() { }
  public A(String s) { }
  public void f(int x, int y) { }
}
class String { }
`)
	a := p.Classes["p.A"]
	sigs := func(ms []*Method) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Sig())
		}
		return out
	}
	if got, want := sigs(a.MethodsNamed("f")), []string{"f(int)", "f(String)", "f()", "f(int,int)"}; !reflect.DeepEqual(got, want) {
		t.Errorf("MethodsNamed(f) = %v, want %v", got, want)
	}
	if got, want := sigs(a.MethodsNamed("<init>")), []string{"<init>()", "<init>(int)", "<init>(String)"}; !reflect.DeepEqual(got, want) {
		t.Errorf("MethodsNamed(<init>) = %v, want %v", got, want)
	}
	if got := a.MethodsNamed("A"); got != nil {
		t.Errorf("MethodsNamed(A) = %v: constructors are listed only under <init>", sigs(got))
	}
	if m := a.LookupMethod("f", 1); m == nil || m.Sig() != "f(int)" {
		t.Errorf("LookupMethod(f, 1) = %v, want the first declared, f(int)", m)
	}
	for _, name := range []string{"f", "<init>"} {
		want := a.MethodsNamed(name)[0]
		grown := append(a.MethodsNamed(name), nil)
		grown[0] = want.Class.Methods[len(want.Class.Methods)-1]
		if got := a.MethodsNamed(name); len(got) == 0 || got[0] != want {
			t.Errorf("writing to an append of MethodsNamed(%s) changed the index", name)
		}
	}

	// Past a dozen methods a sort need not keep equal names in order.
	var src strings.Builder
	src.WriteString("package p;\npublic class B {\n")
	params := []string{}
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "  public void h(%s) { }\n  public void g(%s) { }\n", strings.Join(params, ", "), strings.Join(params, ", "))
		params = append(params, fmt.Sprintf("int x%d", i))
	}
	src.WriteString("}\n")
	for k, m := range build(t, src.String()).Classes["p.B"].MethodsNamed("h") {
		if len(m.Params) != k {
			t.Fatalf("MethodsNamed(h)[%d] is %s: out of declaration order", k, m.Sig())
		}
	}
}

func TestMethodIDsDense(t *testing.T) {
	p := build(t, hierarchySrc)
	for i, m := range p.AllMethods() {
		if m.ID != i {
			t.Fatalf("method %s has ID %d at index %d", m, m.ID, i)
		}
	}
}
