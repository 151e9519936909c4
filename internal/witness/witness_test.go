package witness

import (
	"errors"
	"strings"
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

func mustDiff(t testing.TB, a, b *oracle.Library) *diff.Report {
	t.Helper()
	rep, err := oracle.Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func confirm(t testing.TB, a, b *oracle.Library, g *diff.Group) []Result {
	t.Helper()
	rs, err := Confirm(a, b, g)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func extract(t testing.TB, name string) *oracle.Library {
	t.Helper()
	l, err := oracle.LoadLibrary(name, corpus.Sources(name))
	if err != nil {
		t.Fatal(err)
	}
	l.Extract(oracle.DefaultOptions())
	return l
}

// TestWitnessesHandwrittenVulnerabilities runs the full loop: diff the
// corpora, then dynamically confirm the vulnerability groups the static
// oracle reported.
func TestWitnessesHandwrittenVulnerabilities(t *testing.T) {
	libs := map[string]*oracle.Library{}
	for _, name := range corpus.Libraries() {
		libs[name] = extract(t, name)
	}
	confirmedIssues := map[string]bool{}
	for _, pair := range corpus.Pairs() {
		a, b := libs[pair[0]], libs[pair[1]]
		rep := mustDiff(t, a, b)
		for _, g := range rep.Groups {
			is := corpus.ClassifyGroup(g, pair, false)
			if is == nil || is.Kind != corpus.Vulnerability {
				continue
			}
			for _, r := range confirm(t, a, b, g) {
				if r.Confirmed {
					if r.VulnerableLib != is.Responsible {
						t.Errorf("%s: witness blames %s, ground truth %s (%s)",
							is.ID, r.VulnerableLib, is.Responsible, r)
					} else {
						confirmedIssues[is.ID] = true
					}
				}
			}
		}
	}
	// The dynamically confirmable hand-written vulnerabilities: figure 1
	// (checkAccept), figure 7 (Socket.connect), figure 5 (checkRead on
	// loadLibrary), privileged property check, figure 6 (openConnection).
	for _, want := range []string{
		"fig1-datagram-checkaccept",
		"fig7-socket-connect",
		"fig5-loadlibrary-checkread",
		"privileged-property-check",
		"fig6-openconnection-checkconnect",
	} {
		if !confirmedIssues[want] {
			t.Errorf("vulnerability %s not dynamically confirmed", want)
		}
	}
}

func TestFalsePositivesNotConfirmedAsVulnerabilities(t *testing.T) {
	// The Security.getProperty check-mismatch (checkPermission vs
	// checkSecurityAccess) "confirms" in both directions — each library
	// enforces a different permission — so the witness must blame each
	// side depending on the denied check, never consistently one library.
	jdk, harmony := extract(t, corpus.JDK), extract(t, corpus.Harmony)
	rep := mustDiff(t, jdk, harmony)
	for _, g := range rep.Groups {
		isGetProp := false
		for _, e := range g.Entries {
			if strings.Contains(e, "Security.getProperty") {
				isGetProp = true
			}
		}
		if !isGetProp {
			continue
		}
		blamed := map[string]bool{}
		for _, r := range confirm(t, jdk, harmony, g) {
			if r.Confirmed {
				blamed[r.VulnerableLib] = true
			}
		}
		if len(blamed) == 1 {
			t.Errorf("swapped-check FP consistently blamed %v — would look like a real hole", blamed)
		}
	}
}

func TestConfirmWithMissingEntry(t *testing.T) {
	jdk, harmony := extract(t, corpus.JDK), extract(t, corpus.Harmony)
	g := &diff.Group{
		DiffChecks: policy.Empty.With(mustCheck(t, "checkRead", 1)),
		Entries:    []string{"no.such.Entry.m()"},
	}
	rs := confirm(t, jdk, harmony, g)
	if len(rs) != 1 || rs[0].Confirmed {
		t.Errorf("missing entry should yield an unconfirmed result: %+v", rs)
	}
	if !strings.Contains(rs[0].String(), "not confirmed") {
		t.Errorf("render = %q", rs[0].String())
	}
}

// TestConfirmRequiresExtractedLibraries: the witness reads the check
// domain from the extracted policies, so unextracted libraries are an
// error rather than a run under some default domain.
func TestConfirmRequiresExtractedLibraries(t *testing.T) {
	jdk := extract(t, corpus.JDK)
	raw, err := oracle.LoadLibrary(corpus.Harmony, corpus.Sources(corpus.Harmony))
	if err != nil {
		t.Fatal(err)
	}
	g := &diff.Group{DiffChecks: policy.Empty.With(mustCheck(t, "checkRead", 1)), Entries: []string{"A.m()"}}
	if _, err := Confirm(jdk, raw, g); !errors.Is(err, oracle.ErrNotExtracted) {
		t.Errorf("Confirm over an unextracted library: err = %v, want ErrNotExtracted", err)
	}
}

func mustCheck(t *testing.T, name string, arity int) secmodel.CheckID {
	t.Helper()
	id, ok := secmodel.SecurityManager().CheckByName(name, arity)
	if !ok {
		t.Fatalf("unknown check %s/%d", name, arity)
	}
	return id
}
