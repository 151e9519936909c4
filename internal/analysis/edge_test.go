package analysis

import (
	"testing"

	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/types"
)

// Edge-case coverage for the analysis: switch policies, exception-flow
// conservatism, deep constant delegation, unresolvable privileged actions,
// and check identification subtleties.

func TestSwitchPolicies(t *testing.T) {
	src := `
package java.lang;
public class Sw {
  SecurityManager sm;
  public void m(int k) {
    switch (k) {
    case 1:
      sm.checkRead("a");
      break;
    case 2:
      sm.checkWrite("b");
      break;
    default:
      sm.checkRead("a");
    }
    op0();
  }
  native void op0();
}
`
	may := analyzeOne(t, DefaultConfig(May), "java.lang.Sw", "m", src)
	must := analyzeOne(t, DefaultConfig(Must), "java.lang.Sw", "m", src)
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"}
	if got := eventResult(t, may, nat).Checks; got != setOf(t, "checkRead", 1, "checkWrite", 1) {
		t.Errorf("may = %s", got.StringIn(secmodel.SecurityManager()))
	}
	// No single check dominates (case 2 performs only checkWrite).
	if got := eventResult(t, must, nat).Checks; !got.IsEmpty() {
		t.Errorf("must = %s, want empty", got.StringIn(secmodel.SecurityManager()))
	}
}

func TestSwitchFallthroughPolicies(t *testing.T) {
	src := `
package java.lang;
public class Sw {
  SecurityManager sm;
  public void m(int k) {
    switch (k) {
    case 1:
      sm.checkRead("a");
    default:
      sm.checkWrite("b");
    }
    op0();
  }
  native void op0();
}
`
	must := analyzeOne(t, DefaultConfig(Must), "java.lang.Sw", "m", src)
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"}
	// checkWrite executes on every path (case 1 falls through; default).
	if got := eventResult(t, must, nat).Checks; got != setOf(t, "checkWrite", 1) {
		t.Errorf("must = %s, want {checkWrite}", got.StringIn(secmodel.SecurityManager()))
	}
}

func TestTryCatchMustConservatism(t *testing.T) {
	// A check inside try must not count as MUST at an event inside catch:
	// the exception may fire before the check.
	src := `
package java.lang;
public class TC {
  SecurityManager sm;
  public void m() {
    try {
      sm.checkRead("f");
      risky();
    } catch (Exception e) {
      op0();
    }
  }
  void risky() { }
  native void op0();
}
`
	must := analyzeOne(t, DefaultConfig(Must), "java.lang.TC", "m", src)
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"}
	if got := eventResult(t, must, nat).Checks; !got.IsEmpty() {
		t.Errorf("must in catch = %s, want empty (exception may precede check)", got.StringIn(secmodel.SecurityManager()))
	}
	may := analyzeOne(t, DefaultConfig(May), "java.lang.TC", "m", src)
	if got := eventResult(t, may, nat).Checks; !got.IsEmpty() {
		t.Errorf("may in catch = %s (handler modeled from try entry)", got.StringIn(secmodel.SecurityManager()))
	}
}

func TestCheckAfterEventDoesNotCount(t *testing.T) {
	src := `
package java.lang;
public class Late {
  SecurityManager sm;
  public void m() {
    op0();
    sm.checkRead("f");
  }
  native void op0();
}
`
	may := analyzeOne(t, DefaultConfig(May), "java.lang.Late", "m", src)
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"}
	if got := eventResult(t, may, nat).Checks; !got.IsEmpty() {
		t.Errorf("check after event counted: %s", got.StringIn(secmodel.SecurityManager()))
	}
	// But it does reach the API return.
	if got := eventResult(t, may, secmodel.ReturnEvent()).Checks; got != setOf(t, "checkRead", 1) {
		t.Errorf("return checks = %s", got.StringIn(secmodel.SecurityManager()))
	}
}

func TestDeepConstantDelegation(t *testing.T) {
	// Constants must flow through two delegation levels (ICP memo keys
	// include the constant binding at each level).
	src := `
package java.lang;
public class Deep {
  SecurityManager sm;
  public void top() {
    mid(null);
  }
  public void mid(Object h) {
    bottom(h);
  }
  void bottom(Object h) {
    if (h != null) {
      sm.checkRead("f");
    }
    op0();
  }
  native void op0();
}
`
	may := analyzeOne(t, DefaultConfig(May), "java.lang.Deep", "top", src)
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"}
	if got := eventResult(t, may, nat).Checks; !got.IsEmpty() {
		t.Errorf("null did not propagate two levels: %s", got.StringIn(secmodel.SecurityManager()))
	}
	// The mid entry itself (unknown h) keeps the check as MAY.
	mayMid := analyzeOne(t, DefaultConfig(May), "java.lang.Deep", "mid", src)
	if got := eventResult(t, mayMid, nat).Checks; got != setOf(t, "checkRead", 1) {
		t.Errorf("mid may = %s", got.StringIn(secmodel.SecurityManager()))
	}
}

func TestDoPrivilegedWithUnresolvableAction(t *testing.T) {
	// Two allocated actions: run() cannot resolve; the analysis must skip
	// the privileged body rather than guess.
	src := `
package java.lang;
public class A1 implements PrivilegedAction {
  public Object run() { op1(); return null; }
  native void op1();
}
public class A2 implements PrivilegedAction {
  public Object run() { op2(); return null; }
  native void op2();
}
public class App {
  public void m(boolean k) {
    PrivilegedAction a = null;
    if (k) { a = new A1(); } else { a = new A2(); }
    AccessController.doPrivileged(a);
  }
}
`
	r := analyzeOne(t, DefaultConfig(May), "java.lang.App", "m", src)
	for ev := range r.Events {
		if ev.Kind == secmodel.NativeCall {
			t.Errorf("event %s leaked from unresolvable privileged action", ev)
		}
	}
}

func TestProtectedEntryPointAnalyzed(t *testing.T) {
	src := `
package java.lang;
public class P {
  SecurityManager sm;
  protected void guard() {
    sm.checkExit(1);
    op0();
  }
  native void op0();
}
`
	p, res := buildProgram(t, src)
	var guard *types.Method
	for _, m := range p.Types.EntryPoints() {
		if m.Name == "guard" {
			guard = m
		}
	}
	if guard == nil {
		t.Fatal("protected method not an entry point")
	}
	a := New(p, res, DefaultConfig(Must))
	r := a.AnalyzeEntry(guard)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"})
	if nat.Checks != setOf(t, "checkExit", 1) {
		t.Errorf("protected entry checks = %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
}

func TestCheckOnOwnClassNotConfused(t *testing.T) {
	// A method named like a check on a non-SecurityManager class is not a
	// security check.
	src := `
package java.lang;
public class Fake {
  public void checkRead(String f) { }
  public void m() {
    checkRead("f");
    op0();
  }
  native void op0();
}
`
	r := analyzeOne(t, DefaultConfig(May), "java.lang.Fake", "m", src)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"})
	if !nat.Checks.IsEmpty() {
		t.Errorf("fake check counted: %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
}

func TestPathsCapOverflowStillSound(t *testing.T) {
	// More conditional checks than PathCap: the path sets collapse to the
	// union but the flat MAY set stays exact.
	src := `
package java.lang;
public class Many {
  SecurityManager sm;
  public void m(int k) {
    if (k > 0) { sm.checkRead("a"); }
    if (k > 1) { sm.checkWrite("a"); }
    if (k > 2) { sm.checkExit(k); }
    if (k > 3) { sm.checkLink("a"); }
    op0();
  }
  native void op0();
}
`
	cfg := DefaultConfig(May)
	r := analyzeOne(t, cfg, "java.lang.Many", "m", src)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"})
	want := setOf(t, "checkRead", 1, "checkWrite", 1, "checkExit", 1, "checkLink", 1)
	if nat.Checks != want {
		t.Errorf("may = %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
	var union policy.CheckSet
	for _, s := range nat.Paths.Sets {
		union = union.Union(s)
	}
	if union != want {
		t.Errorf("paths union = %s, want %s", union.StringIn(secmodel.SecurityManager()), want.StringIn(secmodel.SecurityManager()))
	}
}

func TestGuardCollection(t *testing.T) {
	cfg := DefaultConfig(May)
	cfg.CollectGuards = true
	r := analyzeOne(t, cfg, "java.net.DatagramSocket", "connect", figure1JDK)
	accept := checkID(t, "checkAccept", 2)
	var acceptGuards []string
	for _, o := range r.Origins {
		if o.Check == accept {
			acceptGuards = append(acceptGuards, o.Guards)
		}
	}
	if len(acceptGuards) == 0 {
		t.Fatal("no guard records for checkAccept")
	}
	for _, g := range acceptGuards {
		if g == "" {
			t.Error("checkAccept recorded as unconditional; it is branch-guarded")
		}
	}

	// An unconditional check records an empty guard list.
	r2cfg := DefaultConfig(May)
	r2cfg.CollectGuards = true
	r2 := analyzeOne(t, r2cfg, "java.net.Conn", "open", simpleSrc)
	for _, o := range r2.Origins {
		if o.Guards != "" {
			t.Errorf("unconditional check has guards %q", o.Guards)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	p, res := buildProgram(t, simpleSrc)
	a := New(p, res, DefaultConfig(May))
	for _, m := range p.Types.EntryPoints() {
		a.AnalyzeEntry(m)
	}
	st := a.Stats()
	if st.EntryPoints == 0 || st.MethodAnalyses == 0 || st.CPRuns == 0 {
		t.Errorf("stats degenerate: %+v", st)
	}
}

func TestEventOccurrenceCounting(t *testing.T) {
	src := `
package java.lang;
public class Twice {
  SecurityManager sm;
  public void m(boolean k) {
    if (k) {
      sm.checkRead("a");
      op0();
    } else {
      op0();
    }
  }
  native void op0();
}
`
	r := analyzeOne(t, DefaultConfig(Must), "java.lang.Twice", "m", src)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"})
	if nat.Occurrences != 2 {
		t.Errorf("occurrences = %d", nat.Occurrences)
	}
	// Combining: one occurrence has the check, the other does not → ∩ = ∅.
	if !nat.Checks.IsEmpty() {
		t.Errorf("combined must = %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
	if nat.Checks != policy.Empty {
		t.Errorf("combined must not empty: %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
}
