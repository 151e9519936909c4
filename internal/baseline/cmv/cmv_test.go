package cmv

import (
	"strings"
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

func extract(t testing.TB, name string, srcs map[string]string) *oracle.Library {
	t.Helper()
	l, err := oracle.LoadLibrary(name, srcs)
	if err != nil {
		t.Fatal(err)
	}
	l.Extract(oracle.DefaultOptions())
	return l
}

func req(t testing.TB, check string, arity int, entry, event string) Requirement {
	t.Helper()
	id, ok := secmodel.SecurityManager().CheckByName(check, arity)
	if !ok {
		t.Fatalf("unknown check %s/%d", check, arity)
	}
	return Requirement{Check: id, EntrySubstr: entry, EventSubstr: event}
}

// TestCMVFalsePositiveOnFigure1: the manual policy "checkConnect must
// dominate DatagramSocket.connect" flags the CORRECT JDK implementation,
// because the multicast branch legitimately performs checkMulticast
// instead — the paper's core criticism of must-dominance verification.
func TestCMVFalsePositiveOnFigure1(t *testing.T) {
	l := extract(t, "jdk", corpus.JDKSources())
	reqs := []Requirement{req(t, "checkConnect", 2, "DatagramSocket.connect", "native:connect0")}
	vs := Verify(l.Policies, reqs)
	if len(vs) == 0 {
		t.Fatal("CMV did not flag the correct JDK implementation — expected the MAY-policy false positive")
	}
	for _, v := range vs {
		if !v.MayHolds {
			t.Errorf("violation should be a some-paths-only false positive: %s", v)
		}
	}
}

// TestCMVFindsRealMissingCheckWhenPolicyIsComplete: given a (laboriously
// hand-written) correct requirement, CMV does find Classpath's missing
// Socket.connect check — the approach works only as well as its manual
// policy.
func TestCMVFindsSeededBugWithCorrectPolicy(t *testing.T) {
	l := extract(t, "classpath", corpus.ClasspathSources())
	reqs := []Requirement{req(t, "checkConnect", 2, "Socket.connect", "native:socketConnect")}
	vs := Verify(l.Policies, reqs)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Entry, "java.net.Socket.connect") && !v.MayHolds {
			found = true
		}
	}
	if !found {
		t.Errorf("CMV missed Classpath's Socket.connect hole: %v", vs)
	}
}

func TestCMVIncompletePolicyMissesBug(t *testing.T) {
	// The manual policy omits the rare checkAccept requirement entirely —
	// Harmony's Figure 1 bug is invisible to CMV.
	l := extract(t, "harmony", corpus.HarmonySources())
	reqs := []Requirement{req(t, "checkConnect", 2, "DatagramSocket.connect", "native:connect0")}
	vs := Verify(l.Policies, reqs)
	for _, v := range vs {
		if secmodel.SecurityManager().CheckName(v.Req.Check) == "checkAccept" {
			t.Errorf("impossible: policy had no checkAccept requirement: %s", v)
		}
	}
	// All reported violations are the MAY-policy kind, not the real bug.
	for _, v := range vs {
		if !v.MayHolds {
			t.Errorf("unexpected hard violation (policy doesn't cover the real bug): %s", v)
		}
	}
}

func TestCMVSatisfiedRequirementSilent(t *testing.T) {
	l := extract(t, "jdk", corpus.JDKSources())
	// JDK's Socket.connect has an unconditional checkConnect: no violation.
	reqs := []Requirement{req(t, "checkConnect", 2, "java.net.Socket.connect", "native:socketConnect")}
	if vs := Verify(l.Policies, reqs); len(vs) != 0 {
		t.Errorf("unexpected violations: %v", vs)
	}
}

func TestCMVEmptyPolicy(t *testing.T) {
	l := extract(t, "jdk", corpus.JDKSources())
	if vs := Verify(l.Policies, nil); len(vs) != 0 {
		t.Errorf("empty policy produced violations: %v", vs)
	}
}

func TestStringRenderings(t *testing.T) {
	r := req(t, "checkConnect", 2, "Socket.connect", "native:socketConnect")
	if s := r.String(); !strings.Contains(s, "checkConnect") || !strings.Contains(s, "must dominate") {
		t.Errorf("requirement string = %q", s)
	}
	l := extract(t, "jdk", corpus.JDKSources())
	vs := Verify(l.Policies, []Requirement{req(t, "checkConnect", 2, "DatagramSocket.connect", "native:connect0")})
	if len(vs) == 0 {
		t.Fatal("no violations to render")
	}
	s := vs[0].String()
	if !strings.Contains(s, "lacks checkConnect") || !strings.Contains(s, "on some paths only") {
		t.Errorf("violation string = %q", s)
	}
}

func TestHardViolationString(t *testing.T) {
	l := extract(t, "classpath", corpus.ClasspathSources())
	vs := Verify(l.Policies, []Requirement{req(t, "checkConnect", 2, "java.net.Socket.connect", "native:socketConnect")})
	found := false
	for _, v := range vs {
		if strings.Contains(v.String(), "missing entirely") {
			found = true
		}
	}
	if !found {
		t.Errorf("no hard violation rendered: %v", vs)
	}
}
