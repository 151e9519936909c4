package mining

import (
	"strings"
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

func mustNew(t testing.TB, pp *policy.ProgramPolicies, cfg Config) *Miner {
	t.Helper()
	m, err := New(pp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func extract(t testing.TB, name string, srcs map[string]string) *oracle.Library {
	t.Helper()
	l, err := oracle.LoadLibrary(name, srcs)
	if err != nil {
		t.Fatal(err)
	}
	l.Extract(oracle.DefaultOptions())
	return l
}

// TestMinerMissesRarePattern reproduces the paper's Section 2 argument:
// Harmony's missing checkAccept is part of a pattern that occurs once in
// the library, below any reasonable support threshold, so the miner is
// silent — while the oracle reports it (see corpus tests).
func TestMinerMissesRarePattern(t *testing.T) {
	l := extract(t, "harmony", corpus.HarmonySources())
	m := mustNew(t, l.Policies, DefaultConfig())
	accept, _ := secmodel.SecurityManager().CheckByName("checkAccept", 2)
	for _, v := range m.FindViolations() {
		if strings.Contains(v.Entry, "DatagramSocket.connect") && v.Rule.B == accept {
			t.Errorf("miner unexpectedly found the rare-pattern bug: %s", v)
		}
	}
}

// TestMinerFlagsCorrectImplementation: in the JDK, the rare checkAccept
// pattern deviates from the common checkConnect-alone pattern, so with a
// low threshold the miner can flag the CORRECT implementation — the
// paper's "may even wrongly flag the JDK" scenario requires the common
// pattern to dominate, which the generated corpus provides.
func TestMinerThresholdTradeoff(t *testing.T) {
	c := gen.Generate(gen.Small())
	l := extract(t, "jdk", c.Sources["jdk"])

	strict := mustNew(t, l.Policies, Config{MinSupport: 5, MinConfidence: 0.95}).FindViolations()
	loose := mustNew(t, l.Policies, Config{MinSupport: 2, MinConfidence: 0.55}).FindViolations()
	if len(loose) < len(strict) {
		t.Errorf("lowering thresholds should not reduce violations: strict=%d loose=%d",
			len(strict), len(loose))
	}
	if len(loose) == len(strict) {
		t.Logf("note: thresholds did not differentiate on this corpus (strict=%d loose=%d)",
			len(strict), len(loose))
	}
}

// TestMinerSingleImplementationOnly: the miner sees one implementation and
// cannot, even in principle, detect a bug replicated consistently within
// it — only cross-implementation differencing can. Verify the miner's
// violation set on Harmony misses at least one seeded oracle-detected
// vulnerability.
func TestMinerVsOracleOnSeededCorpus(t *testing.T) {
	c := gen.Generate(gen.Small())
	libs := map[string]*oracle.Library{}
	for name, srcs := range c.Sources {
		libs[name] = extract(t, name, srcs)
	}

	// Oracle-detected: every seeded issue (validated in gen's own tests).
	// Miner: run per implementation, union violations.
	minerHits := map[string]bool{}
	for _, l := range libs {
		m := mustNew(t, l.Policies, DefaultConfig())
		for _, v := range m.FindViolations() {
			minerHits[v.Entry] = true
		}
	}
	missed := 0
	for _, is := range c.Issues {
		found := false
		for e := range minerHits {
			if is.MatchesEntry(e) {
				found = true
			}
		}
		if !found {
			missed++
		}
	}
	if missed == 0 {
		t.Error("miner found every seeded issue — the corpus no longer exercises rare patterns")
	}
	t.Logf("miner missed %d of %d seeded issues; flagged %d entries total",
		missed, len(c.Issues), len(minerHits))
}

func TestMinedRulesAreDeterministic(t *testing.T) {
	l := extract(t, "jdk", corpus.JDKSources())
	a := mustNew(t, l.Policies, Config{MinSupport: 1, MinConfidence: 0.5}).Mine()
	b := mustNew(t, l.Policies, Config{MinSupport: 1, MinConfidence: 0.5}).Mine()
	if len(a) != len(b) {
		t.Fatalf("rule counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("rule %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestMinedRulesNameChecksInPoliciesDomain: rules mined from crypto
// policies name CryptoGuard checks, not the SecurityManager checks that
// share their IDs.
func TestMinedRulesNameChecksInPoliciesDomain(t *testing.T) {
	c := gen.Generate(gen.CryptoSmall())
	l, err := oracle.LoadLibrary("jdk", c.Sources["jdk"])
	if err != nil {
		t.Fatal(err)
	}
	opts := oracle.DefaultOptions()
	opts.Domain = secmodel.CryptoAPI()
	l.Extract(opts)
	crypto := map[string]bool{}
	dom := secmodel.CryptoAPI()
	for i := 0; i < dom.NumChecks(); i++ {
		crypto[dom.CheckName(secmodel.CheckID(i))] = true
	}
	implies := 0
	for _, r := range mustNew(t, l.Policies, Config{MinSupport: 1, MinConfidence: 0.1}).Mine() {
		if r.Kind != CheckImplies {
			continue
		}
		implies++
		f := strings.Fields(r.String())
		if !crypto[f[0]] || !crypto[f[2]] {
			t.Errorf("rule %q names a check outside the crypto domain", r)
		}
	}
	if implies == 0 {
		t.Fatal("no check-implies rule mined from the crypto corpus")
	}
}

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"java.net.Socket.connect(SocketAddress,int)": "java.net",
		"gen.p01.Api007.op5(String,int)":             "gen.p01",
		"Top.m()":                                    "",
		"malformed":                                  "",
	}
	for sig, want := range cases {
		if got := packageOf(sig); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sig, got, want)
		}
	}
}
