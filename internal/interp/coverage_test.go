package interp

import (
	"strings"
	"testing"

	"policyoracle/internal/secmodel"
)

// Exercises the remaining interpreter semantics: arrays, do-while,
// continue, compound assignment, string intrinsics, switch without
// default, static state, and interpreter failure modes.

const arraysLib = `
package api;
import java.lang.*;
public class Arr {
  public int sum(int n) {
    int[] xs = new int[] {1, 2, 3};
    int total = 0;
    for (int i = 0; i < xs.length; i++) {
      total += xs[i];
    }
    xs[1] = 10;
    return total + xs[1];
  }
}
`

func TestArrays(t *testing.T) {
	out := run(t, AllowAll(), "api.Arr.sum(int)", arraysLib)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if asInt(out.Result) != 16 { // 1+2+3 + 10
		t.Errorf("result = %v", out.Result)
	}
}

func TestDoWhileAndContinue(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class L {
  public int m() {
    int i = 0;
    int odd = 0;
    do {
      i++;
      if (i % 2 == 0) { continue; }
      odd++;
    } while (i < 6);
    return odd;
  }
}
`
	out := run(t, AllowAll(), "api.L.m()", src)
	if asInt(out.Result) != 3 { // 1, 3, 5
		t.Errorf("result = %v", out.Result)
	}
}

func TestSwitchNoMatchNoDefault(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class S {
  public int m(int k) {
    int r = 5;
    switch (k + 100) {
    case 1: r = 1; break;
    case 2: r = 2; break;
    }
    return r;
  }
}
`
	out := run(t, AllowAll(), "api.S.m(int)", src)
	if asInt(out.Result) != 5 {
		t.Errorf("result = %v", out.Result)
	}
}

func TestStaticFieldsAndMethods(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class Counter {
  private static int count;
  static void bump() { count = count + 1; }
  public int m() {
    Counter.bump();
    bump();
    return count;
  }
}
`
	out := run(t, AllowAll(), "api.Counter.m()", src)
	if asInt(out.Result) != 2 {
		t.Errorf("result = %v", out.Result)
	}
}

func TestStringOps(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class Str {
  public int m(String s) {
    String t = "ab" + "cd" + 1 + true + null;
    int h = t.hashCode();
    boolean same = t.equals(t.toString());
    char c = t.charAt(0);
    if (same && c == 'a') {
      return t.length();
    }
    return -1;
  }
}
`
	out := run(t, AllowAll(), "api.Str.m(String)", src)
	if asInt(out.Result) != int64(len("abcd1truenull")) {
		t.Errorf("result = %v", out.Result)
	}
}

func TestTernaryUnaryBitwise(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class E {
  public int m(boolean b) {
    int x = b ? 1 : 2;
    int y = -x;
    int z = (6 & 3) | (1 ^ 1);
    boolean n = !b;
    if (n) { return y + z + x; }
    return 0;
  }
}
`
	out := run(t, AllowAll(), "api.E.m(boolean)", src)
	// b synthesized false: x=2, y=-2, z=2, n=true → -2+2+2 = 2.
	if asInt(out.Result) != 2 {
		t.Errorf("result = %v", out.Result)
	}
}

func TestInstanceofAtRuntime(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class A { }
public class B extends A { }
public class T {
  public boolean m(String s) {
    Object o = new B();
    boolean isA = o instanceof A;
    boolean strIsString = s instanceof String;
    Object p = new A();
    boolean notB = !(p instanceof B);
    return isA && strIsString && notB;
  }
}
class Object { }
`
	out := run(t, AllowAll(), "api.T.m(String)", src)
	if !truthy(out.Result) {
		t.Errorf("result = %v", out.Result)
	}
}

func TestUnresolvedCallFails(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class Bad {
  public void m() {
    nonexistent();
  }
}
`
	out := run(t, AllowAll(), "api.Bad.m()", src)
	if out.Err == nil || !strings.Contains(out.Err.Error(), "unresolved") {
		t.Errorf("err = %v", out.Err)
	}
}

func TestCallOnNullFails(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class Bad {
  public void m() {
    Object o = null;
    o.hashCode();
  }
}
class Object { public int hashCode() { return 0; } }
`
	p := buildProg(t, map[string]string{"rt.mj": tinyRT, "lib.mj": src})
	cfg := DefaultConfig(AllowAll())
	cfg.SynthesizeObjects = false
	in := New(p, secmodel.SecurityManager(), cfg)
	out := in.CallEntry(entryOf(t, p, "api.Bad.m()"))
	if out.Err == nil {
		t.Error("expected failure for call on null")
	}
}

func TestDivisionByZeroLenient(t *testing.T) {
	src := `
package api;
import java.lang.*;
public class D {
  public int m(int n) {
    return (7 / n) + (7 % n);
  }
}
`
	out := run(t, AllowAll(), "api.D.m(int)", src)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if asInt(out.Result) != 0 {
		t.Errorf("result = %v", out.Result)
	}
}

func TestOutcomeHelpers(t *testing.T) {
	out := run(t, AllowAll(), "api.F.work(String,int)", basicLib)
	if len(out.Natives()) != 1 || out.Natives()[0] != "raw0" {
		t.Errorf("natives = %v", out.Natives())
	}
	if out.CalledNative("nonesuch") {
		t.Error("phantom native")
	}
	for _, e := range out.Trace {
		if e.String() == "" {
			t.Error("empty event string")
		}
	}
}

func TestPermissionsModel(t *testing.T) {
	read := checkID(t, "checkRead", 1)
	write := checkID(t, "checkWrite", 1)
	p := Deny(read)
	if p.Permits(read) || !p.Permits(write) {
		t.Error("Deny wrong")
	}
}
