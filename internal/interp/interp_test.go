package interp

import (
	"testing"

	"policyoracle/internal/ast"
	"policyoracle/internal/corpus"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/types"
)

func buildProg(t testing.TB, srcs map[string]string) *types.Program {
	t.Helper()
	var diags lang.Diagnostics
	var files []*ast.File
	for name, src := range srcs {
		files = append(files, parser.ParseFile(name, src, &diags))
	}
	p := types.Build("t", files, &diags)
	if diags.HasErrors() {
		t.Fatalf("errors: %v", diags.Err())
	}
	return p
}

func entryOf(t testing.TB, p *types.Program, sig string) *types.Method {
	t.Helper()
	for _, m := range p.EntryPoints() {
		if m.Qualified() == sig {
			return m
		}
	}
	t.Fatalf("entry %s not found", sig)
	return nil
}

func checkID(t testing.TB, name string, arity int) secmodel.CheckID {
	t.Helper()
	id, ok := secmodel.SecurityManager().CheckByName(name, arity)
	if !ok {
		t.Fatalf("unknown check %s/%d", name, arity)
	}
	return id
}

const tinyRT = `
package java.lang;
public class Object { }
public class String { }
public class Exception { }
public class RuntimeException extends Exception { }
public class SecurityException extends RuntimeException { }
public class SecurityManager {
  public void checkRead(String f) { }
  public void checkWrite(String f) { }
  public void checkExit(int s) { }
}
`

func run(t testing.TB, perms Permissions, sig string, extra string) *Outcome {
	t.Helper()
	p := buildProg(t, map[string]string{"rt.mj": tinyRT, "lib.mj": extra})
	in := New(p, secmodel.SecurityManager(), DefaultConfig(perms))
	return in.CallEntry(entryOf(t, p, sig))
}

const basicLib = `
package api;
import java.lang.*;
public class F {
  private SecurityManager sm;
  public int work(String path, int n) {
    sm.checkRead(path);
    int total = 0;
    for (int i = 0; i < 3; i++) { total = total + i; }
    raw0(path);
    return total;
  }
  native void raw0(String path);
}
`

func TestAllowedCheckRunsNative(t *testing.T) {
	out := run(t, AllowAll(), "api.F.work(String,int)", basicLib)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Thrown != nil {
		t.Fatalf("unexpected throw: %v", out.Thrown)
	}
	if !out.CalledNative("raw0") {
		t.Errorf("native not called: %v", out.Trace)
	}
	if got := asInt(out.Result); got != 3 { // 0+1+2
		t.Errorf("result = %d", got)
	}
}

func TestDeniedCheckThrowsBeforeNative(t *testing.T) {
	out := run(t, Deny(checkID(t, "checkRead", 1)), "api.F.work(String,int)", basicLib)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.SecurityViolation {
		t.Fatalf("no security violation: %+v", out)
	}
	if out.CalledNative("raw0") {
		t.Error("native ran despite denied check")
	}
}

func TestPrivilegedCheckAlwaysPasses(t *testing.T) {
	src := `
package api;
import java.lang.*;
import java.security.*;
public class P {
  public int go(String s) {
    Object r = AccessController.doPrivileged(new ReadAction(s));
    return 1;
  }
}
class ReadAction implements PrivilegedAction {
  private String s;
  private SecurityManager sm;
  ReadAction(String s) { this.s = s; }
  public Object run() {
    sm.checkRead(s);
    P.read0(s);
    return null;
  }
}
`
	rtPlus := tinyRT
	acSrc := `
package java.security;
import java.lang.*;
public interface PrivilegedAction { Object run(); }
public class AccessController {
  public static Object doPrivileged(PrivilegedAction a) { return a.run(); }
}
`
	p := buildProg(t, map[string]string{
		"rt.mj": rtPlus, "ac.mj": acSrc,
		"lib.mj": src + "\n", "nat.mj": `package api; import java.lang.*; public class Nat { }`,
	})
	_ = p
	// read0 must exist on P; rebuild with it included.
	p = buildProg(t, map[string]string{
		"rt.mj": rtPlus, "ac.mj": acSrc,
		"lib.mj": `
package api;
import java.lang.*;
import java.security.*;
public class P {
  public int go(String s) {
    Object r = AccessController.doPrivileged(new ReadAction(s));
    return 1;
  }
  static native void read0(String s);
}
class ReadAction implements PrivilegedAction {
  private String s;
  private SecurityManager sm;
  ReadAction(String s) { this.s = s; }
  public Object run() {
    sm.checkRead(s);
    P.read0(s);
    return null;
  }
}
`})
	in := New(p, secmodel.SecurityManager(), DefaultConfig(Deny(checkID(t, "checkRead", 1))))
	out := in.CallEntry(entryOf(t, p, "api.P.go(String)"))
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.SecurityViolation {
		t.Error("privileged check was denied")
	}
	if !out.CalledNative("read0") {
		t.Errorf("native not reached: %v", out.Trace)
	}
	foundPriv := false
	for _, e := range out.Trace {
		if e.Kind == CheckPrivileged {
			foundPriv = true
		}
	}
	if !foundPriv {
		t.Errorf("privileged check not traced: %v", out.Trace)
	}
}

func TestTryCatchSemantics(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class T {
  public int m(boolean k) {
    int state = 0;
    try {
      if (k) { throw new RuntimeException(); }
      state = 1;
    } catch (RuntimeException e) {
      state = 2;
    } finally {
      state = state + 10;
    }
    return state;
  }
}
`
	out := run(t, AllowAll(), "api.T.m(boolean)", src)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	// Synthesized boolean arg is false → no throw → 1 + 10.
	if got := asInt(out.Result); got != 11 {
		t.Errorf("result = %d, want 11", got)
	}
}

func TestUncaughtExceptionPropagates(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class T {
  public void m() {
    throw new RuntimeException();
  }
}
`
	out := run(t, AllowAll(), "api.T.m()", src)
	if out.Thrown == nil || out.Thrown.Class.Simple != "RuntimeException" {
		t.Errorf("thrown = %v", out.Thrown)
	}
	if out.SecurityViolation {
		t.Error("plain exception marked as security violation")
	}
}

func TestCatchOfSupertypeCatchesSubtype(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class T {
  public int m() {
    try {
      throw new SecurityException();
    } catch (Exception e) {
      return 7;
    }
  }
}
`
	out := run(t, AllowAll(), "api.T.m()", src)
	if asInt(out.Result) != 7 {
		t.Errorf("result = %v (thrown %v)", out.Result, out.Thrown)
	}
}

func TestVirtualDispatch(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class Base {
  public int tag() { return 1; }
}
public class Sub extends Base {
  public int tag() { return 2; }
}
public class App {
  public int m() {
    Base b = new Sub();
    return b.tag();
  }
}
`
	out := run(t, AllowAll(), "api.App.m()", src)
	if asInt(out.Result) != 2 {
		t.Errorf("dispatch result = %v", out.Result)
	}
}

func TestCtorDelegationAndFields(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class Pair {
  private int a;
  private int b;
  public Pair(int a) { this(a, 10); }
  public Pair(int a, int b) { this.a = a; this.b = b; }
  public int sum() { return a + b; }
  public static int drive() {
    Pair p = new Pair(5);
    return p.sum();
  }
}
`
	out := run(t, AllowAll(), "api.Pair.drive()", src)
	if asInt(out.Result) != 15 {
		t.Errorf("result = %v", out.Result)
	}
}

func TestInfiniteLoopRunsOutOfFuel(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class L {
  public void spin() {
    while (true) { }
  }
}
`
	p := buildProg(t, map[string]string{"rt.mj": tinyRT, "lib.mj": src})
	cfg := DefaultConfig(AllowAll())
	cfg.Fuel = 1000
	in := New(p, secmodel.SecurityManager(), cfg)
	out := in.CallEntry(entryOf(t, p, "api.L.spin()"))
	if out.Err == nil {
		t.Error("expected fuel exhaustion")
	}
}

func TestSwitchExecution(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class S {
  public int pick(int k) {
    int r = 0;
    switch (k + 2) {
    case 1: r = 10; break;
    case 2: r = 20;
    case 3: r = r + 30; break;
    default: r = 99;
    }
    return r;
  }
}
`
	out := run(t, AllowAll(), "api.S.pick(int)", src)
	// Synthesized int arg is 0 → k+2 == 2 → r=20 then fallthrough +30.
	if asInt(out.Result) != 50 {
		t.Errorf("result = %v", out.Result)
	}
}

func TestStringIntrinsics(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class Str {
  public boolean m(String s) {
    String t = s + "!";
    return t.isEmpty();
  }
}
`
	out := run(t, AllowAll(), "api.Str.m(String)", src)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if truthy(out.Result) {
		t.Error("concatenated string reported empty")
	}
}

// TestFigure1WitnessedDynamically executes the Figure 1 entry points of the
// bundled corpora under a manager that denies checkAccept: Harmony
// performs the network connect anyway (the hole), the JDK throws first.
func TestFigure1WitnessedDynamically(t *testing.T) {
	deny := Deny(checkID(t, "checkAccept", 2))
	const entry = "java.net.DatagramSocket.connect(InetAddress,int)"

	jdkProg := buildProg(t, corpus.JDKSources())
	jdkOut := New(jdkProg, secmodel.SecurityManager(), DefaultConfig(deny)).CallEntry(entryOf(t, jdkProg, entry))
	if jdkOut.Err != nil {
		t.Fatal(jdkOut.Err)
	}
	if !jdkOut.SecurityViolation {
		t.Errorf("jdk did not enforce checkAccept: %v", jdkOut.Trace)
	}
	if jdkOut.CalledNative("connect0") {
		t.Error("jdk connected despite denial")
	}

	harmonyProg := buildProg(t, corpus.HarmonySources())
	harmonyOut := New(harmonyProg, secmodel.SecurityManager(), DefaultConfig(deny)).CallEntry(entryOf(t, harmonyProg, entry))
	if harmonyOut.Err != nil {
		t.Fatal(harmonyOut.Err)
	}
	if harmonyOut.SecurityViolation {
		t.Error("harmony unexpectedly enforced checkAccept")
	}
	if !harmonyOut.CalledNative("connect0") {
		t.Errorf("harmony did not reach the native connect: %v", harmonyOut.Trace)
	}
}
