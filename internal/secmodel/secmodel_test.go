package secmodel

import (
	"strings"
	"testing"

	"policyoracle/internal/ast"
	"policyoracle/internal/ir"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
	"policyoracle/internal/types"
)

func TestCheckTableHas31Entries(t *testing.T) {
	sm := SecurityManager()
	if n := sm.NumChecks(); n != 31 {
		t.Fatalf("SecurityManager().NumChecks() = %d, want 31", n)
	}
	seen := map[string]bool{}
	for i := 0; i < sm.NumChecks(); i++ {
		name := sm.CheckName(CheckID(i))
		if name == "" || strings.HasPrefix(name, "check#") {
			t.Errorf("check %d has no name", i)
		}
		seen[name] = true
	}
	// Overloads share names, so distinct names < 31.
	if len(seen) >= sm.NumChecks() {
		t.Errorf("expected overloaded names, got %d distinct", len(seen))
	}
	if got := len(sm.AllCheckNames()); got != len(seen) {
		t.Errorf("AllCheckNames = %d, want %d", got, len(seen))
	}
}

func TestCheckByName(t *testing.T) {
	sm := SecurityManager()
	id1, ok1 := sm.CheckByName("checkConnect", 2)
	id2, ok2 := sm.CheckByName("checkConnect", 3)
	if !ok1 || !ok2 || id1 == id2 {
		t.Errorf("overloads not distinct: %v/%v %v/%v", id1, ok1, id2, ok2)
	}
	if _, ok := sm.CheckByName("checkConnect", 5); ok {
		t.Error("bogus arity resolved")
	}
	if _, ok := sm.CheckByName("notACheck", 1); ok {
		t.Error("bogus name resolved")
	}
	if sm.CheckName(id1) != "checkConnect" {
		t.Errorf("name roundtrip failed")
	}
}

func buildCalls(t *testing.T, src string) []*ir.Call {
	t.Helper()
	var diags lang.Diagnostics
	files := []*ast.File{parser.ParseFile("t.mj", src, &diags)}
	tp := types.Build("t", files, &diags)
	p := ir.LowerProgram(tp, &diags)
	if diags.HasErrors() {
		t.Fatalf("errors: %v", diags.Err())
	}
	var calls []*ir.Call
	for _, m := range tp.AllMethods() {
		f := p.FuncOf(m)
		if f == nil {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if c, ok := in.(*ir.Call); ok {
					calls = append(calls, c)
				}
			}
		}
	}
	return calls
}

func TestIdentifyCheck(t *testing.T) {
	calls := buildCalls(t, `
package java.lang;
public class Object { }
public class String { }
public class SecurityManager {
  public void checkExit(int status) { }
  public void helper() { }
}
public class MySM extends SecurityManager { }
class App {
  SecurityManager sm;
  MySM custom;
  App other;
  void m(int s) {
    sm.checkExit(s);
    custom.checkExit(s);
    sm.helper();
    other.checkExit(s);
  }
  void checkExit(int s) { }
}
`)
	var checks, nonChecks int
	for _, c := range calls {
		if _, ok := SecurityManager().IdentifyCheck(c); ok {
			checks++
		} else {
			nonChecks++
		}
	}
	// sm.checkExit and custom.checkExit (subtype receiver) are checks;
	// sm.helper and other.checkExit (wrong class) are not.
	if checks != 2 {
		t.Errorf("got %d checks, want 2", checks)
	}
	if nonChecks != 2 {
		t.Errorf("got %d non-checks, want 2", nonChecks)
	}
}

func TestIsDoPrivilegedAndGetSecurityManager(t *testing.T) {
	calls := buildCalls(t, `
package java.security;
public class Object { }
public interface PrivilegedAction { Object run(); }
public class AccessController {
  public static Object doPrivileged(PrivilegedAction a) { return a.run(); }
}
public class SecurityManager { }
public class System {
  static SecurityManager security;
  public static SecurityManager getSecurityManager() { return security; }
}
class MyAction implements PrivilegedAction {
  public Object run() { return null; }
}
class App {
  void m() {
    AccessController.doPrivileged(new MyAction());
    SecurityManager sm = System.getSecurityManager();
  }
}
`)
	var doPriv, getSM int
	for _, c := range calls {
		if SecurityManager().IsDoPrivileged(c) {
			doPriv++
		}
		if SecurityManager().IsGetSecurityManager(c) {
			getSM++
		}
	}
	if doPriv != 1 {
		t.Errorf("doPrivileged detections = %d", doPriv)
	}
	if getSM != 1 {
		t.Errorf("getSecurityManager detections = %d", getSM)
	}
}

func TestIsPrivilegedScope(t *testing.T) {
	var diags lang.Diagnostics
	files := []*ast.File{parser.ParseFile("t.mj", `
package java.security;
public class Object { }
public interface PrivilegedAction { Object run(); }
public class AccessController {
  public static Object doPrivileged(PrivilegedAction a) { return a.run(); }
  public static void other() { }
}
`, &diags)}
	tp := types.Build("t", files, &diags)
	ac := tp.Classes["java.security.AccessController"]
	if !SecurityManager().IsPrivilegedScope(ac.LookupMethod("doPrivileged", 1)) {
		t.Error("doPrivileged not privileged scope")
	}
	if SecurityManager().IsPrivilegedScope(ac.LookupMethod("other", 0)) {
		t.Error("other wrongly privileged")
	}
}

func TestEventStringsAndKeys(t *testing.T) {
	if got := ReturnEvent().String(); got != "return" {
		t.Errorf("return event = %q", got)
	}
	ev := Event{Kind: NativeCall, Key: "connect0/2"}
	if got := ev.String(); got != "native:connect0/2" {
		t.Errorf("native event = %q", got)
	}
	if ParamAccessEvent(3).Key != "p3" {
		t.Errorf("param event = %+v", ParamAccessEvent(3))
	}
}

func TestCheckSetString(t *testing.T) {
	sm := SecurityManager()
	a, _ := sm.CheckByName("checkWrite", 1)
	b, _ := sm.CheckByName("checkAccept", 2)
	bits := uint64(1)<<uint(a) | uint64(1)<<uint(b)
	if got := sm.CheckSetString(bits); got != "{checkAccept, checkWrite}" {
		t.Errorf("got %q", got)
	}
	if sm.CheckSetString(0) != "{}" {
		t.Error("empty set render wrong")
	}
}

func TestEventModeString(t *testing.T) {
	if NarrowEvents.String() != "narrow" || BroadEvents.String() != "broad" {
		t.Error("event mode strings wrong")
	}
}
