package callgraph

import (
	"testing"

	"policyoracle/internal/ast"
	"policyoracle/internal/ir"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
	"policyoracle/internal/types"
)

func build(t testing.TB, src string) (*ir.Program, *Resolver) {
	t.Helper()
	var diags lang.Diagnostics
	files := []*ast.File{parser.ParseFile("t.mj", src, &diags)}
	tp := types.Build("t", files, &diags)
	p := ir.LowerProgram(tp, &diags)
	if diags.HasErrors() {
		t.Fatalf("errors: %v", diags.Err())
	}
	return p, NewResolver(p)
}

func callsIn(p *ir.Program, class, method string) []*ir.Call {
	var out []*ir.Call
	c := p.Types.Classes[class]
	for _, m := range c.Methods {
		if m.Name != method {
			continue
		}
		f := p.FuncOf(m)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if call, ok := in.(*ir.Call); ok {
					out = append(out, call)
				}
			}
		}
	}
	return out
}

const polySrc = `
package p;
public class Base {
  public int op() { return 0; }
}
public class SubA extends Base {
  public int op() { return 1; }
}
public class SubB extends Base {
  public int op() { return 2; }
}
public class Driver {
  private Base both;
  private Base onlyA;
  public Driver(boolean k) {
    if (k) { both = new SubA(); } else { both = new SubB(); }
    onlyA = new SubA();
  }
  public int callBoth() { return both.op(); }
  public int callA() {
    SubA a = new SubA();
    return a.op();
  }
}
`

func TestPolymorphicSiteUnresolved(t *testing.T) {
	p, r := build(t, polySrc)
	for _, c := range callsIn(p, "p.Driver", "callBoth") {
		if c.Name == "op" {
			got := r.Resolve(c)
			r.RecordOutcome(got != nil) // as the analysis counts a site
			if got != nil {
				t.Errorf("two-target site resolved to %v", got)
			}
		}
	}
	resolved, unresolved := r.Stats()
	if unresolved == 0 {
		t.Error("no unresolved sites counted")
	}
	_ = resolved
}

func TestMonomorphicStaticTypeResolves(t *testing.T) {
	p, r := build(t, polySrc)
	for _, c := range callsIn(p, "p.Driver", "callA") {
		if c.Name == "op" {
			got := r.Resolve(c)
			if got == nil || got.Class.Simple != "SubA" {
				t.Errorf("SubA receiver resolved to %v", got)
			}
		}
	}
}

func TestPrivateFinalStaticShortcuts(t *testing.T) {
	p, r := build(t, `
package p;
public class C {
  private int secret() { return 1; }
  public final int locked() { return 2; }
  static int util() { return 3; }
  public int drive() {
    int a = secret();
    int b = locked();
    int c = util();
    return a + b + c;
  }
}
public class D extends C { }
`)
	for _, c := range callsIn(p, "p.C", "drive") {
		if got := r.Resolve(c); got == nil {
			t.Errorf("call %s did not resolve", c)
		}
	}
}

func TestAbstractDispatchToUniqueImplementor(t *testing.T) {
	p, r := build(t, `
package p;
public abstract class Shape {
  public abstract int area();
}
public class Square extends Shape {
  public int area() { return 4; }
}
public class App {
  private Shape s;
  public App() { s = new Square(); }
  public int m() { return s.area(); }
}
`)
	for _, c := range callsIn(p, "p.App", "m") {
		if c.Name == "area" {
			got := r.Resolve(c)
			if got == nil || got.Class.Simple != "Square" {
				t.Errorf("abstract dispatch = %v", got)
			}
		}
	}
}

func TestInterfaceDispatchToUniqueAllocated(t *testing.T) {
	p, r := build(t, `
package p;
public interface Action {
  int run();
}
public class OnlyAction implements Action {
  public int run() { return 1; }
}
public class App {
  public int m(Action a) {
    keep(new OnlyAction());
    return a.run();
  }
  void keep(Action a) { }
}
`)
	for _, c := range callsIn(p, "p.App", "m") {
		if c.Name == "run" {
			got := r.Resolve(c)
			if got == nil || got.Class.Simple != "OnlyAction" {
				t.Errorf("interface dispatch = %v", got)
			}
		}
	}
}

func TestResolveOn(t *testing.T) {
	p, r := build(t, polySrc)
	base := p.Types.Classes["p.Base"]
	if got := r.ResolveOn(base, "op", 0); got != nil {
		t.Errorf("ResolveOn two-target = %v", got)
	}
	subA := p.Types.Classes["p.SubA"]
	if got := r.ResolveOn(subA, "op", 0); got == nil || got.Class != subA {
		t.Errorf("ResolveOn SubA = %v", got)
	}
	if got := r.ResolveOn(nil, "op", 0); got != nil {
		t.Errorf("ResolveOn nil = %v", got)
	}
	if got := r.ResolveOn(base, "nope", 0); got != nil {
		t.Errorf("ResolveOn missing method = %v", got)
	}
}

func TestResolutionRateEmpty(t *testing.T) {
	_, r := build(t, `package p; public class C { public void m() { } }`)
	if rate := r.ResolutionRate(); rate != 1 {
		t.Errorf("rate with no calls = %f", rate)
	}
}
