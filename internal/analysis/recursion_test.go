package analysis

import (
	"strings"
	"testing"

	"policyoracle/internal/secmodel"
)

const mutualRecSrc = `
package java.lang;
public class MR {
  SecurityManager sm;
  public void a(int n) {
    sm.checkWrite("x");
    if (n > 0) {
      b(n - 1);
    }
    op0();
  }
  void b(int n) {
    if (n > 0) {
      a(n - 1);
    }
  }
  native void op0();
}
`

// TestRecursionBoundConsistency: the bounded-traversal alternative of
// Section 4.2 must converge and agree with the cutoff implementation on
// policies whose fixed point is reached within the bound.
func TestRecursionBoundConsistency(t *testing.T) {
	nat := secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"}
	var results []string
	for _, bound := range []int{0, 1, 3} {
		cfg := DefaultConfig(Must)
		cfg.RecursionBound = bound
		r := analyzeOne(t, cfg, "java.lang.MR", "a", mutualRecSrc)
		results = append(results, eventResult(t, r, nat).Checks.StringIn(secmodel.SecurityManager()))
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("bound sweep disagrees: %v", results)
		}
	}
	if results[0] != setOf(t, "checkWrite", 1).StringIn(secmodel.SecurityManager()) {
		t.Errorf("policy = %s", results[0])
	}
}

// TestRecursionBoundExtraTraversals verifies the bound actually re-enters
// recursive methods (more method analyses with a higher bound).
func TestRecursionBoundExtraTraversals(t *testing.T) {
	run := func(bound int) int {
		p, res := buildProgram(t, mutualRecSrc)
		cfg := DefaultConfig(Must)
		cfg.RecursionBound = bound
		cfg.Memo = MemoNone
		a := New(p, res, cfg)
		for _, m := range p.Types.EntryPoints() {
			a.AnalyzeEntry(m)
		}
		return a.Stats().MethodAnalyses
	}
	if base, deep := run(0), run(2); deep <= base {
		t.Errorf("bound 2 (%d analyses) should exceed bound 0 (%d)", deep, base)
	}
}

// memoPollutionSrc has two entry points sharing helper h, which sits on
// the call cycle a→h→a. Analyzing entry a first cuts the cycle at the
// nested a, so h's summary computed there is missing a's op0 event; that
// summary must not be memoized, or entry b (which reaches h outside the
// cycle) silently inherits the truncation.
const memoPollutionSrc = `
package java.lang;
public class MP {
  SecurityManager sm;
  public void a(int n) {
    if (n > 0) {
      h(n - 1);
    }
    op0();
  }
  void h(int n) {
    sm.checkRead("f");
    if (n > 0) {
      a(n - 1);
    }
    op1();
  }
  public void b(int n) {
    h(n);
    op2();
  }
  native void op0();
  native void op1();
  native void op2();
}
`

// TestMemoNotPollutedByRecursionCutoff: under MemoGlobal, every entry
// point's MUST policy must match a MemoNone run — in particular the
// second entry (b), which previously hit a cached helper summary that
// had been computed beneath entry a's recursion cutoff.
func TestMemoNotPollutedByRecursionCutoff(t *testing.T) {
	run := func(memo MemoMode) map[string]*EntryResult {
		p, res := buildProgram(t, memoPollutionSrc)
		cfg := DefaultConfig(Must)
		cfg.Memo = memo
		a := New(p, res, cfg)
		out := make(map[string]*EntryResult)
		for _, m := range p.Types.EntryPoints() { // sorted: a(int) before b(int)
			out[m.Qualified()] = a.AnalyzeEntry(m)
		}
		return out
	}
	got := run(MemoGlobal)
	want := run(MemoNone)
	for sig, w := range want {
		g := got[sig]
		if g == nil {
			t.Fatalf("entry %s missing under MemoGlobal", sig)
		}
		if len(g.Events) != len(w.Events) {
			t.Errorf("%s: MemoGlobal has %d events (%v), MemoNone has %d (%v)",
				sig, len(g.Events), g.SortedEvents(), len(w.Events), w.SortedEvents())
		}
		for ev, wer := range w.Events {
			ger := g.Events[ev]
			if ger == nil {
				t.Errorf("%s: event %s dropped under MemoGlobal", sig, ev)
				continue
			}
			if ger.Checks != wer.Checks {
				t.Errorf("%s/%s: MemoGlobal checks = %s, MemoNone = %s",
					sig, ev, ger.Checks.StringIn(secmodel.SecurityManager()), wer.Checks.StringIn(secmodel.SecurityManager()))
			}
		}
	}
	// The concrete symptom: b must still see a's op0 event, guarded by h's
	// checkRead, exactly as in the unmemoized run.
	var bRes *EntryResult
	for sig, r := range got {
		if strings.Contains(sig, ".b(") {
			bRes = r
		}
	}
	if bRes == nil {
		t.Fatal("entry b not analyzed")
	}
	op0 := eventResult(t, bRes, secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"})
	if op0.Checks != setOf(t, "checkRead", 1) {
		t.Errorf("b's op0 checks = %s, want %s", op0.Checks.StringIn(secmodel.SecurityManager()), setOf(t, "checkRead", 1).StringIn(secmodel.SecurityManager()))
	}
}

// TestSelfRecursionWithCheckAfterCall: events after the recursive call see
// the check regardless of bound.
func TestSelfRecursionWithCheckAfterCall(t *testing.T) {
	src := `
package java.lang;
public class SR {
  SecurityManager sm;
  public void walk(int n) {
    if (n > 0) {
      walk(n - 1);
    }
    sm.checkRead("f");
    op0();
  }
  native void op0();
}
`
	for _, bound := range []int{0, 2} {
		cfg := DefaultConfig(Must)
		cfg.RecursionBound = bound
		r := analyzeOne(t, cfg, "java.lang.SR", "walk", src)
		nat := eventResult(t, r, secmodel.Event{Kind: secmodel.NativeCall, Key: "op0/0"})
		if nat.Checks != setOf(t, "checkRead", 1) {
			t.Errorf("bound %d: checks = %s", bound, nat.Checks.StringIn(secmodel.SecurityManager()))
		}
	}
}
