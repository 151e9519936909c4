package oracle

import (
	"context"
	"errors"
	"strings"
	"testing"

	"policyoracle/internal/analysis"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/telemetry"
)

const runtimeMJ = `
package java.lang;
public class Object { }
public class String { }
public class SecurityManager {
  public void checkRead(String file) { }
  public void checkWrite(String file) { }
}
`

const libMJ = `
package api;
import java.lang.*;
public class Store {
  private SecurityManager sm;
  public void put(String key) {
    sm.checkWrite(key);
    write0(key);
  }
  public String get(String key) {
    sm.checkRead(key);
    return read0(key);
  }
  public int size() { return 0; }
  native void write0(String key);
  native String read0(String key);
}
`

func loadTestLib(t testing.TB, name string, srcs map[string]string) *Library {
	t.Helper()
	l, err := LoadLibrary(name, srcs)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLoadAndExtract(t *testing.T) {
	l := loadTestLib(t, "a", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
	l.Extract(DefaultOptions())
	if l.Policies == nil {
		t.Fatal("no policies")
	}
	if got := len(l.EntryPoints()); got != 5 {
		t.Errorf("entry points = %d", got)
	}
	if got := l.Policies.EntriesWithChecks(); got != 2 {
		t.Errorf("entries with checks = %d", got)
	}
	ep := l.Policies.Entries["api.Store.put(String)"]
	if ep == nil {
		t.Fatal("put policy missing")
	}
	ret := ep.Events[secmodel.ReturnEvent()]
	if ret == nil || ret.Must.StringIn(secmodel.SecurityManager()) != "{checkWrite}" {
		t.Errorf("put return policy = %+v", ret)
	}
	if l.MayTime <= 0 || l.MustTime <= 0 {
		t.Error("timings not recorded")
	}
}

func TestLoadErrorOnBadSource(t *testing.T) {
	_, err := LoadLibrary("bad", map[string]string{"x.mj": "class { nonsense"})
	if err == nil {
		t.Fatal("expected load error")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error lacks library name: %v", err)
	}
}

func TestDiffErrorsWithoutExtract(t *testing.T) {
	a := loadTestLib(t, "a", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
	b := loadTestLib(t, "b", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
	if _, err := Diff(a, b); !errors.Is(err, ErrNotExtracted) {
		t.Errorf("Diff on un-extracted libraries: err = %v, want ErrNotExtracted", err)
	}
	a.Extract(DefaultOptions())
	if _, err := Diff(a, b); !errors.Is(err, ErrNotExtracted) || !strings.Contains(err.Error(), "b") {
		t.Errorf("Diff with one side extracted: err = %v, want ErrNotExtracted naming b", err)
	}
}

func TestCompareExtractsIfNeeded(t *testing.T) {
	srcs := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ}
	a := loadTestLib(t, "a", srcs)
	b := loadTestLib(t, "b", srcs)
	a.Extract(DefaultOptions()) // pre-extracted side must not be redone
	preExtracted := a.Policies
	rep, err := Compare(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diffs) != 0 {
		t.Errorf("identical libraries differ: %s", rep)
	}
	if a.Policies != preExtracted {
		t.Error("Compare re-extracted an already-extracted library")
	}
	if b.Policies == nil {
		t.Error("Compare did not extract the missing side")
	}
}

func TestExtractContextCancelled(t *testing.T) {
	l := loadTestLib(t, "a", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.ExtractContext(ctx, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("ExtractContext on cancelled ctx: err = %v", err)
	}
	if l.Policies != nil {
		t.Error("cancelled extraction published a partial policy set")
	}
}

// TestTelemetryDoesNotPerturbExtraction asserts the tentpole invariant:
// extraction with a live metrics registry produces byte-identical
// policies to extraction without one, and the instruments record the
// analyzer's actual work.
func TestTelemetryDoesNotPerturbExtraction(t *testing.T) {
	srcs := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ}
	plain := loadTestLib(t, "lib", srcs)
	plain.Extract(DefaultOptions())
	want, err := plain.Policies.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	instrumented := loadTestLib(t, "lib", srcs)
	opts := DefaultOptions()
	opts.Telemetry = telemetry.NewExtractMetrics(reg)
	instrumented.Extract(opts)
	got, err := instrumented.Policies.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("telemetry-instrumented extraction is not byte-identical")
	}

	if n := opts.Telemetry.Extractions.With(secmodel.DefaultDomainID).Value(); n != 1 {
		t.Errorf("extractions counter = %v, want 1", n)
	}
	entries := float64(len(instrumented.EntryPoints()))
	for _, mode := range []string{"may", "must"} {
		if n := opts.Telemetry.EntryPoints.With(mode, secmodel.DefaultDomainID).Value(); n != entries {
			t.Errorf("entry-point counter[%s] = %v, want %v", mode, n, entries)
		}
		if n := opts.Telemetry.EntryDuration.With(mode, secmodel.DefaultDomainID).Count(); n != entries {
			t.Errorf("entry-duration samples[%s] = %v, want %v", mode, n, entries)
		}
		if n := opts.Telemetry.ModeDuration.With(mode, secmodel.DefaultDomainID).Count(); n != 1 {
			t.Errorf("mode-duration samples[%s] = %v, want 1", mode, n)
		}
	}
	if got := int(opts.Telemetry.MethodAnalyses.With("may", secmodel.DefaultDomainID).Value()); got != instrumented.MayStats.MethodAnalyses {
		t.Errorf("method-analyses counter = %d, want %d", got, instrumented.MayStats.MethodAnalyses)
	}
}

func TestMatchingEntries(t *testing.T) {
	a := loadTestLib(t, "a", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
	b := loadTestLib(t, "b", map[string]string{"rt.mj": runtimeMJ})
	if got := MatchingEntries(a, b); got != 2 { // the SecurityManager checks
		t.Errorf("matching = %d", got)
	}
	if got := MatchingEntries(a, a); got != len(a.EntryPoints()) {
		t.Errorf("self-match = %d", got)
	}
}

func TestExtractMustOnlyMode(t *testing.T) {
	l := loadTestLib(t, "a", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ})
	opts := DefaultOptions()
	opts.Modes = []analysis.Mode{analysis.Must}
	l.Extract(opts)
	ep := l.Policies.Entries["api.Store.put(String)"]
	ret := ep.Events[secmodel.ReturnEvent()]
	if ret.Must.StringIn(secmodel.SecurityManager()) != "{checkWrite}" {
		t.Errorf("must = %s", ret.Must.StringIn(secmodel.SecurityManager()))
	}
	// Must-only extraction mirrors must into may for display.
	if ret.May.StringIn(secmodel.SecurityManager()) != "{checkWrite}" {
		t.Errorf("may mirror = %s", ret.May.StringIn(secmodel.SecurityManager()))
	}
}

func TestCountNCLoC(t *testing.T) {
	src := `
// comment only
package p; // trailing

/* block
   comment */
class C {
  /* inline */ int f;
}
`
	if got := CountNCLoC(src); got != 4 {
		t.Errorf("NCLoC = %d, want 4 (package, class, field, brace)", got)
	}
	if CountNCLoC("") != 0 {
		t.Error("empty source has lines")
	}
	if CountNCLoC("a /* x */ b") != 1 {
		t.Error("inline block comment handling wrong")
	}
}

func TestDiffIdenticalLibraries(t *testing.T) {
	srcs := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ}
	a := loadTestLib(t, "a", srcs)
	b := loadTestLib(t, "b", srcs)
	a.Extract(DefaultOptions())
	b.Extract(DefaultOptions())
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diffs) != 0 {
		t.Errorf("identical libraries differ: %s", rep)
	}
}
