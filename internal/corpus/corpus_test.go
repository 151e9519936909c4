package corpus

import (
	"testing"

	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
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

func load(t testing.TB, lib string) *oracle.Library {
	t.Helper()
	l, err := oracle.LoadLibrary(lib, Sources(lib))
	if err != nil {
		t.Fatalf("loading %s: %v", lib, err)
	}
	return l
}

func extractAll(t testing.TB, opts oracle.Options) map[string]*oracle.Library {
	t.Helper()
	libs := make(map[string]*oracle.Library)
	for _, name := range Libraries() {
		l := load(t, name)
		l.Extract(opts)
		libs[name] = l
	}
	return libs
}

func TestCorporaLoadCleanly(t *testing.T) {
	for _, name := range Libraries() {
		l := load(t, name)
		if got := len(l.EntryPoints()); got < 40 {
			t.Errorf("%s: only %d entry points", name, got)
		}
		if l.NCLoC < 200 {
			t.Errorf("%s: only %d NCLoC", name, l.NCLoC)
		}
		// No unresolved-name warnings: the hand-written corpus must be
		// fully resolvable.
		for _, d := range l.Diags.All() {
			t.Errorf("%s: %s", name, d)
		}
	}
}

func TestEntryPointsMatchAcrossLibraries(t *testing.T) {
	libs := map[string]*oracle.Library{}
	for _, name := range Libraries() {
		libs[name] = load(t, name)
	}
	for _, pair := range Pairs() {
		n := oracle.MatchingEntries(libs[pair[0]], libs[pair[1]])
		if n < 40 {
			t.Errorf("%s vs %s: only %d matching entries", pair[0], pair[1], n)
		}
	}
}

// TestAllKnownIssuesDetected runs the full oracle over all three pairs and
// verifies that every narrow-mode ground-truth issue is reported and that
// nothing else is.
func TestAllKnownIssuesDetected(t *testing.T) {
	libs := extractAll(t, oracle.DefaultOptions())
	found := map[string]bool{}
	for _, pair := range Pairs() {
		rep := mustDiff(t, libs[pair[0]], libs[pair[1]])
		for _, g := range rep.Groups {
			is := ClassifyGroup(g, pair, false)
			if is == nil {
				t.Errorf("%s vs %s: unlabeled difference: %s checks %s entries %v",
					pair[0], pair[1], g.Case, g.DiffChecks.StringIn(secmodel.SecurityManager()), g.Entries)
				continue
			}
			found[is.ID] = true
		}
	}
	for _, is := range KnownIssues() {
		if is.BroadOnly {
			if found[is.ID] {
				t.Errorf("broad-only issue %s detected in narrow mode", is.ID)
			}
			continue
		}
		if !found[is.ID] {
			t.Errorf("known issue %s (%s, %s) not detected", is.ID, is.Kind, is.Figure)
		}
	}
}

func TestFigure3RequiresBroadEvents(t *testing.T) {
	opts := oracle.DefaultOptions()
	opts.Events = secmodel.BroadEvents
	libs := extractAll(t, opts)
	pair := [2]string{JDK, Harmony}
	rep := mustDiff(t, libs[JDK], libs[Harmony])
	found := false
	for _, g := range rep.Groups {
		if is := ClassifyGroup(g, pair, true); is != nil && is.ID == "fig3-bag-private-read" {
			found = true
		}
	}
	if !found {
		t.Error("Figure 3 private-read difference not detected with broad events")
	}
}

func TestBroadEventsInflatePolicyCounts(t *testing.T) {
	narrow := extractAll(t, oracle.DefaultOptions())
	opts := oracle.DefaultOptions()
	opts.Events = secmodel.BroadEvents
	broad := extractAll(t, opts)
	for _, name := range Libraries() {
		n := narrow[name].Policies.CountPolicies()
		b := broad[name].Policies.CountPolicies()
		if b <= n {
			t.Errorf("%s: broad events should add policies (narrow=%d broad=%d)", name, n, b)
		}
	}
}

// TestICPEliminatesURLFalsePositive verifies the Figure 4 mechanism at the
// report level: without ICP, URL(String) is spuriously reported against
// Classpath; with ICP it is not.
func TestICPEliminatesURLFalsePositive(t *testing.T) {
	hasURLCtorDiff := func(rep *diff.Report) bool {
		for _, g := range rep.Groups {
			for _, e := range g.Entries {
				if e == "java.net.URL.<init>(String)" {
					return true
				}
			}
		}
		return false
	}

	withICP := extractAll(t, oracle.DefaultOptions())
	repICP := mustDiff(t, withICP[JDK], withICP[Classpath])
	if hasURLCtorDiff(repICP) {
		t.Error("URL(String) reported with ICP on (Figure 4 false positive)")
	}

	opts := oracle.DefaultOptions()
	opts.ICP = false
	noICP := extractAll(t, opts)
	repNo := mustDiff(t, noICP[JDK], noICP[Classpath])
	if !hasURLCtorDiff(repNo) {
		t.Error("URL(String) not reported with ICP off — the ICP row would be empty")
	}
}

func TestMustMayDifferenceCategorized(t *testing.T) {
	libs := extractAll(t, oracle.DefaultOptions())
	rep := mustDiff(t, libs[JDK], libs[Harmony])
	found := false
	for _, g := range rep.Groups {
		for _, e := range g.Entries {
			if e == "java.io.FileStream.open(String)" {
				found = true
				if g.Case != diff.CaseMustMayMismatch {
					t.Errorf("FileStream.open case = %s, want must-may-mismatch", g.Case)
				}
				if g.Category != diff.MustMay {
					t.Errorf("FileStream.open category = %s", g.Category)
				}
			}
		}
	}
	if !found {
		t.Error("FileStream.open difference not reported")
	}
}

func TestRootCauseGrouping(t *testing.T) {
	libs := extractAll(t, oracle.DefaultOptions())
	rep := mustDiff(t, libs[JDK], libs[Harmony])
	// connect and reconnect share the connectInternal/connectCheck root:
	// they must be one group with two manifestations.
	for _, g := range rep.Groups {
		hasConnect, hasReconnect := false, false
		for _, e := range g.Entries {
			if e == "java.net.DatagramSocket.connect(InetAddress,int)" {
				hasConnect = true
			}
			if e == "java.net.DatagramSocket.reconnect(InetAddress,int)" {
				hasReconnect = true
			}
		}
		if hasConnect != hasReconnect {
			t.Errorf("connect/reconnect split across groups: %v", g.Entries)
		}
		if hasConnect && g.Manifestations() != 2 {
			t.Errorf("DatagramSocket group manifestations = %d, want 2", g.Manifestations())
		}
	}
}

func TestFigure2PathPolicies(t *testing.T) {
	libs := extractAll(t, oracle.DefaultOptions())
	ep := libs[JDK].Policies.Entries["java.net.DatagramSocket.connect(InetAddress,int)"]
	if ep == nil {
		t.Fatal("DatagramSocket.connect policy missing")
	}
	ret := ep.Events[secmodel.ReturnEvent()]
	if ret == nil {
		t.Fatal("return event missing")
	}
	if len(ret.Paths.Sets) != 2 {
		t.Errorf("JDK path alternatives = %s, want the two of Figure 2", ret.Paths.StringIn(secmodel.SecurityManager()))
	}
	if !ret.Must.IsEmpty() {
		t.Errorf("JDK must = %s, want {} per Figure 2", ret.Must.StringIn(secmodel.SecurityManager()))
	}
}

func TestSymmetricComparison(t *testing.T) {
	libs := extractAll(t, oracle.DefaultOptions())
	ab := mustDiff(t, libs[JDK], libs[Harmony])
	ba := mustDiff(t, libs[Harmony], libs[JDK])
	if len(ab.Groups) != len(ba.Groups) {
		t.Errorf("asymmetric group counts: %d vs %d", len(ab.Groups), len(ba.Groups))
	}
	if ab.MatchingEntries != ba.MatchingEntries {
		t.Errorf("asymmetric matching entries: %d vs %d", ab.MatchingEntries, ba.MatchingEntries)
	}
}

func TestResolutionRateHigh(t *testing.T) {
	libs := extractAll(t, oracle.DefaultOptions())
	for name, l := range libs {
		rate := l.Resolver.ResolutionRate()
		if rate < 0.9 {
			t.Errorf("%s: resolution rate %.2f, want >= 0.90 (paper: 97%%)", name, rate)
		}
	}
}
