package analysis

import (
	"testing"

	"policyoracle/internal/ast"
	"policyoracle/internal/callgraph"
	"policyoracle/internal/ir"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/types"
)

// prelude is a minimal java.lang/java.security runtime shared by tests.
const prelude = `
package java.lang;
public class Object { }
public class String { }
public class Exception { }
public class SecurityManager {
  public void checkPermission(Object perm) { }
  public void checkConnect(String host, int port) { }
  public void checkAccept(String host, int port) { }
  public void checkMulticast(Object addr) { }
  public void checkExit(int status) { }
  public void checkLink(String lib) { }
  public void checkRead(String file) { }
  public void checkWrite(String file) { }
  public void checkListen(int port) { }
}
public class System {
  private static SecurityManager security;
  public static SecurityManager getSecurityManager() { return security; }
  public static void exit(int status) {
    SecurityManager sm = getSecurityManager();
    sm.checkExit(status);
    halt0(status);
  }
  static native void halt0(int status);
}
public class AccessController {
  public static Object doPrivileged(PrivilegedAction action) {
    return action.run();
  }
}
public interface PrivilegedAction {
  Object run();
}
`

func buildProgram(t testing.TB, srcs ...string) (*ir.Program, *callgraph.Resolver) {
	t.Helper()
	var diags lang.Diagnostics
	var files []*ast.File
	for _, src := range append([]string{prelude}, srcs...) {
		files = append(files, parser.ParseFile("t.mj", src, &diags))
	}
	tp := types.Build("test", files, &diags)
	p := ir.LowerProgram(tp, &diags)
	if diags.HasErrors() {
		t.Fatalf("errors: %v", diags.Err())
	}
	return p, callgraph.NewResolver(p)
}

func analyzeOne(t testing.TB, cfg Config, class, method string, srcs ...string) *EntryResult {
	t.Helper()
	p, res := buildProgram(t, srcs...)
	a := New(p, res, cfg)
	c := p.Types.Classes[class]
	if c == nil {
		t.Fatalf("class %s not found", class)
	}
	for _, m := range c.Methods {
		if m.Name == method || (method == "<init>" && m.IsCtor) {
			return a.AnalyzeEntry(m)
		}
	}
	t.Fatalf("method %s.%s not found", class, method)
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

func setOf(t testing.TB, pairs ...any) policy.CheckSet {
	t.Helper()
	var s policy.CheckSet
	for i := 0; i < len(pairs); i += 2 {
		s = s.With(checkID(t, pairs[i].(string), pairs[i+1].(int)))
	}
	return s
}

func eventResult(t testing.TB, r *EntryResult, ev secmodel.Event) *EventResult {
	t.Helper()
	er := r.Events[ev]
	if er == nil {
		t.Fatalf("event %s missing from %s; have %v", ev, r.Entry, r.SortedEvents())
	}
	return er
}

const simpleSrc = `
package java.net;
import java.lang.*;
public class Conn {
  SecurityManager sm;
  public void open(String host, int port) {
    sm.checkConnect(host, port);
    connect0(host, port);
  }
  native void connect0(String host, int port);
}
`

func TestUnconditionalCheckMustAndMay(t *testing.T) {
	for _, mode := range []Mode{May, Must} {
		r := analyzeOne(t, DefaultConfig(mode), "java.net.Conn", "open", simpleSrc)
		want := setOf(t, "checkConnect", 2)
		nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "connect0/2"})
		if nat.Checks != want {
			t.Errorf("%s native checks = %s, want %s", mode, nat.Checks.StringIn(secmodel.SecurityManager()), want.StringIn(secmodel.SecurityManager()))
		}
		ret := eventResult(t, r, secmodel.ReturnEvent())
		if ret.Checks != want {
			t.Errorf("%s return checks = %s, want %s", mode, ret.Checks.StringIn(secmodel.SecurityManager()), want.StringIn(secmodel.SecurityManager()))
		}
	}
}

const conditionalSrc = `
package java.net;
import java.lang.*;
public class Conn {
  SecurityManager sm;
  public void open(String host, int port, boolean secure) {
    if (secure) {
      sm.checkConnect(host, port);
    }
    connect0(host, port);
  }
  native void connect0(String host, int port);
}
`

func TestConditionalCheckIsMayNotMust(t *testing.T) {
	may := analyzeOne(t, DefaultConfig(May), "java.net.Conn", "open", conditionalSrc)
	must := analyzeOne(t, DefaultConfig(Must), "java.net.Conn", "open", conditionalSrc)
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "connect0/2"}
	if got := eventResult(t, may, nat).Checks; got != setOf(t, "checkConnect", 2) {
		t.Errorf("may = %s", got.StringIn(secmodel.SecurityManager()))
	}
	if got := eventResult(t, must, nat).Checks; !got.IsEmpty() {
		t.Errorf("must = %s, want empty", got.StringIn(secmodel.SecurityManager()))
	}
}

// figure1JDK reproduces the paper's Figure 1(a): DatagramSocket.connect in
// the JDK performs checkMulticast on one branch and checkConnect +
// checkAccept on the other.
const figure1JDK = `
package java.net;
import java.lang.*;
public class InetAddress {
  public boolean isMulticastAddress() { return false; }
  public String getHostAddress() { return null; }
}
public class DatagramSocketImpl {
  public void connect(InetAddress address, int port) {
    connect0(address, port);
  }
  native void connect0(InetAddress address, int port);
}
public class DatagramSocket {
  private SecurityManager securityManager;
  private DatagramSocketImpl impl;
  private InetAddress connectedAddress;
  private int connectedPort;
  public void connect(InetAddress address, int port) {
    connectInternal(address, port);
  }
  private synchronized void connectInternal(InetAddress address, int port) {
    if (address.isMulticastAddress()) {
      securityManager.checkMulticast(address);
    } else {
      securityManager.checkConnect(address.getHostAddress(), port);
      securityManager.checkAccept(address.getHostAddress(), port);
    }
    impl.connect(address, port);
    connectedAddress = address;
    connectedPort = port;
  }
}
`

func TestFigure1JDKPolicies(t *testing.T) {
	cfg := DefaultConfig(May)
	r := analyzeOne(t, cfg, "java.net.DatagramSocket", "connect", figure1JDK)
	ret := eventResult(t, r, secmodel.ReturnEvent())
	wantMay := setOf(t, "checkMulticast", 1, "checkConnect", 2, "checkAccept", 2)
	if ret.Checks != wantMay {
		t.Errorf("may = %s, want %s", ret.Checks.StringIn(secmodel.SecurityManager()), wantMay.StringIn(secmodel.SecurityManager()))
	}
	// Figure 2's path alternatives: {{checkMulticast}, {checkConnect, checkAccept}}.
	wantPaths := []policy.CheckSet{
		setOf(t, "checkMulticast", 1),
		setOf(t, "checkConnect", 2, "checkAccept", 2),
	}
	if len(ret.Paths.Sets) != 2 {
		t.Fatalf("paths = %s", ret.Paths.StringIn(secmodel.SecurityManager()))
	}
	for _, w := range wantPaths {
		found := false
		for _, g := range ret.Paths.Sets {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("path %s missing from %s", w.StringIn(secmodel.SecurityManager()), ret.Paths.StringIn(secmodel.SecurityManager()))
		}
	}

	must := analyzeOne(t, DefaultConfig(Must), "java.net.DatagramSocket", "connect", figure1JDK)
	if got := eventResult(t, must, secmodel.ReturnEvent()).Checks; !got.IsEmpty() {
		t.Errorf("must = %s, want {} (Figure 2)", got.StringIn(secmodel.SecurityManager()))
	}

	// The native event deep in impl.connect carries the same policy.
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "connect0/2"})
	if nat.Checks != wantMay {
		t.Errorf("native may = %s, want %s", nat.Checks.StringIn(secmodel.SecurityManager()), wantMay.StringIn(secmodel.SecurityManager()))
	}
}

// figure4Harmony reproduces Figure 4: the URL(String) constructor passes a
// constant null handler, so the guarded checkPermission must not leak into
// its policy — but only when interprocedural constant propagation is on.
const figure4Harmony = `
package java.net;
import java.lang.*;
public class URLStreamHandler { }
public class URL {
  private URLStreamHandler strmHandler;
  private SecurityManager securityManager;
  private Object specifyStreamHandlerPermission;
  public URL(String spec) {
    this((URL) null, spec, (URLStreamHandler) null);
  }
  public URL(URL context, String spec, URLStreamHandler handler) {
    if (handler != null) {
      securityManager.checkPermission(specifyStreamHandlerPermission);
      strmHandler = handler;
    }
  }
}
`

func TestFigure4ICPPreventsFalsePositive(t *testing.T) {
	cfg := DefaultConfig(May)
	p, res := buildProgram(t, figure4Harmony)
	a := New(p, res, cfg)
	url := p.Types.Classes["java.net.URL"]
	var oneArg, threeArg *types.Method
	for _, m := range url.Methods {
		if m.IsCtor && len(m.Params) == 1 {
			oneArg = m
		}
		if m.IsCtor && len(m.Params) == 3 {
			threeArg = m
		}
	}
	r1 := a.AnalyzeEntry(oneArg)
	if got := eventResult(t, r1, secmodel.ReturnEvent()).Checks; !got.IsEmpty() {
		t.Errorf("URL(String) with ICP: may = %s, want empty", got.StringIn(secmodel.SecurityManager()))
	}
	r3 := a.AnalyzeEntry(threeArg)
	if got := eventResult(t, r3, secmodel.ReturnEvent()).Checks; got != setOf(t, "checkPermission", 1) {
		t.Errorf("URL(ctx,spec,handler): may = %s", got.StringIn(secmodel.SecurityManager()))
	}

	// Without ICP the one-arg constructor spuriously reports the check.
	cfgNoICP := cfg
	cfgNoICP.ICP = false
	a2 := New(p, res, cfgNoICP)
	r1n := a2.AnalyzeEntry(oneArg)
	if got := eventResult(t, r1n, secmodel.ReturnEvent()).Checks; got.IsEmpty() {
		t.Errorf("URL(String) without ICP: expected spurious checkPermission, got empty")
	}
}

const privilegedSrc = `
package java.lang;
public class LoadAction implements PrivilegedAction {
  public Object run() {
    SecurityManager sm = System.getSecurityManager();
    sm.checkRead("lib");
    load0();
    return null;
  }
  native void load0();
}
public class Runtime {
  private SecurityManager securityManager;
  public void load(String lib) {
    securityManager.checkLink(lib);
    AccessController.doPrivileged(new LoadAction());
  }
}
`

func TestPrivilegedChecksAreNoOps(t *testing.T) {
	r := analyzeOne(t, DefaultConfig(May), "java.lang.Runtime", "load", privilegedSrc)
	// checkRead happens inside doPrivileged: a semantic no-op. Only
	// checkLink protects the native load0.
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "load0/0"})
	want := setOf(t, "checkLink", 1)
	if nat.Checks != want {
		t.Errorf("native checks = %s, want %s", nat.Checks.StringIn(secmodel.SecurityManager()), want.StringIn(secmodel.SecurityManager()))
	}
	ret := eventResult(t, r, secmodel.ReturnEvent())
	if ret.Checks != want {
		t.Errorf("return checks = %s, want %s", ret.Checks.StringIn(secmodel.SecurityManager()), want.StringIn(secmodel.SecurityManager()))
	}
}

const nullGuardSrc = `
package java.lang;
public class Runtime {
  public void exitVM(int status) {
    SecurityManager sm = System.getSecurityManager();
    if (sm != null) {
      sm.checkExit(status);
    }
    halt1(status);
  }
  native void halt1(int status);
}
`

func TestAssumeSecurityManagerFoldsNullGuard(t *testing.T) {
	cfg := DefaultConfig(Must)
	r := analyzeOne(t, cfg, "java.lang.Runtime", "exitVM", nullGuardSrc)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "halt1/1"})
	if nat.Checks != setOf(t, "checkExit", 1) {
		t.Errorf("must with guard folding = %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}

	cfg.AssumeSecurityManager = false
	r2 := analyzeOne(t, cfg, "java.lang.Runtime", "exitVM", nullGuardSrc)
	nat2 := eventResult(t, r2, secmodel.Event{Kind: secmodel.NativeCall, Key: "halt1/1"})
	if !nat2.Checks.IsEmpty() {
		t.Errorf("must without guard folding = %s, want empty", nat2.Checks.StringIn(secmodel.SecurityManager()))
	}
}

const interprocSrc = `
package java.lang;
public class ClassLoader {
  static void loadLibrary(String name) {
    loadLibrary0(name);
  }
  private static void loadLibrary0(String name) {
    nativeLoad(name);
  }
  static native void nativeLoad(String name);
}
public class Runtime {
  private SecurityManager securityManager;
  public void loadLibrary(String libname) {
    securityManager.checkLink(libname);
    ClassLoader.loadLibrary(libname);
  }
}
`

func TestInterproceduralPropagation(t *testing.T) {
	r := analyzeOne(t, DefaultConfig(Must), "java.lang.Runtime", "loadLibrary", interprocSrc)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "nativeLoad/1"})
	if nat.Checks != setOf(t, "checkLink", 1) {
		t.Errorf("native checks = %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
}

func TestMaxDepthZeroIsIntraprocedural(t *testing.T) {
	cfg := DefaultConfig(Must)
	cfg.MaxDepth = 0
	r := analyzeOne(t, cfg, "java.lang.Runtime", "loadLibrary", interprocSrc)
	// The native call is inside a callee, invisible intraprocedurally.
	if _, ok := r.Events[secmodel.Event{Kind: secmodel.NativeCall, Key: "nativeLoad/1"}]; ok {
		t.Error("native event visible at depth 0")
	}
	ret := eventResult(t, r, secmodel.ReturnEvent())
	if ret.Checks != setOf(t, "checkLink", 1) {
		t.Errorf("return checks = %s", ret.Checks.StringIn(secmodel.SecurityManager()))
	}
}

const recursiveSrc = `
package java.lang;
public class Rec {
  SecurityManager sm;
  public void walk(int depth) {
    sm.checkRead("f");
    if (depth > 0) {
      walk(depth - 1);
    }
    read0();
  }
  native void read0();
}
`

func TestRecursionConverges(t *testing.T) {
	r := analyzeOne(t, DefaultConfig(Must), "java.lang.Rec", "walk", recursiveSrc)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "read0/0"})
	if nat.Checks != setOf(t, "checkRead", 1) {
		t.Errorf("native checks = %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
}

const loopSrc = `
package java.lang;
public class Loop {
  SecurityManager sm;
  public void spin(int n) {
    int i = 0;
    while (i < n) {
      sm.checkWrite("x");
      i = i + 1;
    }
    write0();
  }
  native void write0();
}
`

func TestLoopMayVsMust(t *testing.T) {
	may := analyzeOne(t, DefaultConfig(May), "java.lang.Loop", "spin", loopSrc)
	must := analyzeOne(t, DefaultConfig(Must), "java.lang.Loop", "spin", loopSrc)
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "write0/0"}
	if got := eventResult(t, may, nat).Checks; got != setOf(t, "checkWrite", 1) {
		t.Errorf("may = %s", got.StringIn(secmodel.SecurityManager()))
	}
	// The loop may execute zero times: checkWrite is not a must check.
	if got := eventResult(t, must, nat).Checks; !got.IsEmpty() {
		t.Errorf("must = %s, want empty", got.StringIn(secmodel.SecurityManager()))
	}
}

func TestMemoizationEquivalenceAndSavings(t *testing.T) {
	// A diamond of helpers sharing a common callee: memoization must not
	// change results but must reduce method analyses.
	src := `
package java.lang;
public class Diamond {
  SecurityManager sm;
  public void top(boolean b) {
    sm.checkRead("f");
    if (b) { left(); } else { right(); }
  }
  void left() { shared(); }
  void right() { shared(); }
  void shared() { op0(); }
  native void op0();
}
`
	var results []policy.CheckSet
	var analyses []int
	for _, memo := range []MemoMode{MemoGlobal, MemoPerEntry, MemoNone} {
		cfg := DefaultConfig(May)
		cfg.Memo = memo
		p, res := buildProgram(t, src)
		a := New(p, res, cfg)
		c := p.Types.Classes["java.lang.Diamond"]
		var top *types.Method
		for _, m := range c.Methods {
			if m.Name == "top" {
				top = m
			}
		}
		r := a.AnalyzeEntry(top)
		nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"})
		results = append(results, nat.Checks)
		analyses = append(analyses, a.Stats().MethodAnalyses)
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Errorf("results differ across memo modes: %v", results)
	}
	if analyses[0] >= analyses[2] {
		t.Errorf("memoization did not reduce analyses: global=%d none=%d", analyses[0], analyses[2])
	}
}

func TestGlobalMemoSharedAcrossEntries(t *testing.T) {
	src := `
package java.lang;
public class Multi {
  SecurityManager sm;
  public void a() { shared(); }
  public void b() { shared(); }
  void shared() { op0(); }
  native void op0();
}
`
	run := func(memo MemoMode) int {
		cfg := DefaultConfig(May)
		cfg.Memo = memo
		p, res := buildProgram(t, src)
		a := New(p, res, cfg)
		for _, m := range p.Types.Classes["java.lang.Multi"].Methods {
			if m.IsEntryPoint() {
				a.AnalyzeEntry(m)
			}
		}
		return a.Stats().MethodAnalyses
	}
	global, perEntry := run(MemoGlobal), run(MemoPerEntry)
	if global >= perEntry {
		t.Errorf("global memo (%d analyses) should beat per-entry (%d)", global, perEntry)
	}
}

// figure3 reproduces the hypothetical broad-events example: both
// implementations have the same narrow policies, but the private reads of
// data1/data2 differ in their MUST checks.
const figure3A = `
package java.lang;
public class Holder {
  private Object data1;
  private Object data2;
  SecurityManager sm;
  public Object a(boolean condition) {
    if (condition) {
      sm.checkRead("d");
      Object r = data1;
      return r;
    }
    sm.checkRead("d");
    Object s = data2;
    return s;
  }
}
`

func TestBroadEventsFindPrivateReads(t *testing.T) {
	cfg := DefaultConfig(Must)
	cfg.Events = secmodel.BroadEvents
	r := analyzeOne(t, cfg, "java.lang.Holder", "a", figure3A)
	d1 := eventResult(t, r, secmodel.Event{Kind: secmodel.PrivateRead, Key: "data1"})
	if d1.Checks != setOf(t, "checkRead", 1) {
		t.Errorf("data1 must = %s", d1.Checks.StringIn(secmodel.SecurityManager()))
	}
	// Narrow mode must not contain private-read events.
	cfg.Events = secmodel.NarrowEvents
	r2 := analyzeOne(t, cfg, "java.lang.Holder", "a", figure3A)
	if _, ok := r2.Events[secmodel.Event{Kind: secmodel.PrivateRead, Key: "data1"}]; ok {
		t.Error("private-read event present in narrow mode")
	}
}

func TestBroadEventsParamAccess(t *testing.T) {
	src := `
package java.lang;
public class P {
  SecurityManager sm;
  public void use(Object obj) {
    sm.checkWrite("x");
    obj.hashCode();
  }
}
`
	cfg := DefaultConfig(Must)
	cfg.Events = secmodel.BroadEvents
	r := analyzeOne(t, cfg, "java.lang.P", "use", src)
	pa := eventResult(t, r, secmodel.Event{Kind: secmodel.ParamAccess, Key: "p0"})
	if pa.Checks != setOf(t, "checkWrite", 1) {
		t.Errorf("param access must = %s", pa.Checks.StringIn(secmodel.SecurityManager()))
	}
}

func TestOriginsRecorded(t *testing.T) {
	r := analyzeOne(t, DefaultConfig(May), "java.net.DatagramSocket", "connect", figure1JDK)
	if len(r.Origins) == 0 {
		t.Fatal("no origins recorded")
	}
	found := false
	for _, o := range r.Origins {
		if o.Check == checkID(t, "checkAccept", 2) &&
			o.Sig == "java.net.DatagramSocket.connectInternal(InetAddress,int)" {
			found = true
		}
	}
	if !found {
		t.Errorf("checkAccept origin missing: %+v", r.Origins)
	}
}

func TestMultipleReturnsCombine(t *testing.T) {
	src := `
package java.lang;
public class Two {
  SecurityManager sm;
  public int f(boolean b) {
    if (b) {
      sm.checkExit(1);
      return 1;
    }
    sm.checkExit(1);
    sm.checkWrite("w");
    return 2;
  }
}
`
	must := analyzeOne(t, DefaultConfig(Must), "java.lang.Two", "f", src)
	ret := eventResult(t, must, secmodel.ReturnEvent())
	// Occurrence 1 has {checkExit}; occurrence 2 {checkExit, checkWrite};
	// combining with intersection yields {checkExit}.
	if ret.Checks != setOf(t, "checkExit", 1) {
		t.Errorf("combined must = %s", ret.Checks.StringIn(secmodel.SecurityManager()))
	}
	may := analyzeOne(t, DefaultConfig(May), "java.lang.Two", "f", src)
	if got := eventResult(t, may, secmodel.ReturnEvent()).Checks; got != setOf(t, "checkExit", 1, "checkWrite", 1) {
		t.Errorf("combined may = %s", got.StringIn(secmodel.SecurityManager()))
	}
}

func TestNativeEntryPoint(t *testing.T) {
	src := `
package java.lang;
public class N {
  public native void raw();
}
`
	r := analyzeOne(t, DefaultConfig(May), "java.lang.N", "raw", src)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "raw/0"})
	if !nat.Checks.IsEmpty() {
		t.Errorf("native entry checks = %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
}

func TestUnresolvedCallSkipped(t *testing.T) {
	// Two concrete subclasses allocated: the virtual call cannot resolve
	// to a unique target and is skipped (no events from either body).
	src := `
package java.lang;
public class Base {
  public void op() { }
}
public class Sub1 extends Base {
  public void op() { op1(); }
  native void op1();
}
public class Sub2 extends Base {
  public void op() { op2(); }
  native void op2();
}
public class Driver {
  private Base b;
  public void drive(boolean x) {
    Base l = b;
    if (x) { l = new Sub1(); } else { l = new Sub2(); }
    keep(l);
    b.op();
  }
  void keep(Base l) { }
}
`
	r := analyzeOne(t, DefaultConfig(May), "java.lang.Driver", "drive", src)
	for ev := range r.Events {
		if ev.Kind == secmodel.NativeCall {
			t.Errorf("unexpected native event %s from unresolved call", ev)
		}
	}
}

func TestSystemExitCarriesCheckExit(t *testing.T) {
	// Figure 8's mechanism: calling System.exit implies a checkExit.
	src := `
package java.lang;
public class StringCoding {
  public byte[] encode(String cs) {
    System.exit(1);
    return null;
  }
}
`
	r := analyzeOne(t, DefaultConfig(May), "java.lang.StringCoding", "encode", src)
	nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "halt0/1"})
	if nat.Checks != setOf(t, "checkExit", 1) {
		t.Errorf("halt0 checks = %s", nat.Checks.StringIn(secmodel.SecurityManager()))
	}
	ret := eventResult(t, r, secmodel.ReturnEvent())
	if !ret.Checks.Has(checkID(t, "checkExit", 1)) {
		t.Errorf("return checks = %s", ret.Checks.StringIn(secmodel.SecurityManager()))
	}
}
