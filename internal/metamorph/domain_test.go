package metamorph_test

import (
	"strings"
	"testing"

	"policyoracle/internal/campaign"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

// cryptoCampaignParams is campaignParams retargeted at the crypto-API
// misuse domain: same skeleton shape, CryptoGuard check pool, no
// privileged blocks.
func cryptoCampaignParams() gen.Params {
	p := campaignParams()
	p.Domain = secmodel.CryptoDomainID
	p.PrivWrap = 0
	return p
}

func cryptoOracleOptions() oracle.Options {
	opts := oracle.DefaultOptions()
	opts.Domain = secmodel.CryptoAPI()
	return opts
}

// TestMetamorphicCryptoCampaign runs the 25-round campaign over the
// crypto-domain corpus: every invariant (a)-(e) — clean diff, MUST ⊆
// MAY, parallel = serial, export round-trip, incremental splice — must
// hold domain-generically, with extraction, diffing, and the snapshot
// machinery all running under the crypto domain.
func TestMetamorphicCryptoCampaign(t *testing.T) {
	c := gen.Generate(cryptoCampaignParams())
	opts := cryptoOracleOptions()
	res := runCampaign(t, "jdk", c.Sources["jdk"], campaign.Options{
		Seed:      2525,
		Rounds:    25,
		Mutations: 8,
		Oracle:    &opts,
	})
	t.Logf("crypto: %d rounds over %d entries in %v, rewrites %v",
		res.Rounds, res.Entries, res.Elapsed.Round(1e6), res.Applied)
}

// TestMetamorphicCryptoGroundTruthSurvival mirrors
// TestMetamorphicGroundTruthSurvival for the crypto domain: after
// independently mutating all three implementations, every seeded misuse
// (dropped IV-freshness, swapped cipher-mode checks, weakened key-size
// MUSTs, ...) must still be reported and nothing spurious may appear.
func TestMetamorphicCryptoGroundTruthSurvival(t *testing.T) {
	c := gen.Generate(gen.CryptoSmall())
	opts := cryptoOracleOptions()
	libs := map[string]*oracle.Library{}
	for i, lib := range []string{"jdk", "harmony", "classpath"} {
		mutated, applied, err := metamorph.MutateSources(c.Sources[lib], int64(300+i), 20)
		if err != nil {
			t.Fatalf("mutating %s: %v", lib, err)
		}
		if len(applied) == 0 {
			t.Fatalf("no mutations applied to %s", lib)
		}
		l, err := oracle.LoadLibrary(lib, mutated)
		if err != nil {
			t.Fatalf("loading mutated %s (after %v): %v", lib, applied, err)
		}
		l.Extract(opts)
		libs[lib] = l
		t.Logf("%s mutated by %v", lib, applied)
	}
	for _, pair := range c.Pairs() {
		rep, err := oracle.Diff(libs[pair[0]], libs[pair[1]])
		if err != nil {
			t.Fatal(err)
		}
		if rep.Domain != secmodel.CryptoDomainID {
			t.Errorf("%v: report domain = %q, want %q", pair, rep.Domain, secmodel.CryptoDomainID)
		}
		for _, problem := range c.VerifyReport(pair, rep) {
			t.Error(problem)
		}
	}
}

// TestGuardClassFrozen pins that the bundle freezes every registered
// domain's guard class, not just the static SecurityManager set: a
// mutator renaming or restructuring CryptoGuard would silently change
// check identities instead of program structure.
func TestGuardClassFrozen(t *testing.T) {
	c := gen.Generate(gen.CryptoSmall())
	b, err := metamorph.ParseBundle(c.Sources["jdk"])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range b.Files {
		if f.Path != "java/security/cryptoguard.mj" {
			continue
		}
		found = true
		if !f.Frozen {
			t.Error("CryptoGuard prelude file is mutable; guard classes must be frozen")
		}
	}
	if !found {
		t.Fatal("crypto corpus bundle has no CryptoGuard prelude file")
	}
}

// TestCryptoViolationDetailsNameCryptoChecks: violation details render
// check sets in the policies' domain. Crypto checkHostnameVerified and
// checkIvFresh have IDs 4 and 5, which the SecurityManager table names
// checkConnect/2 and checkConnect/3; rendered there, two distinct
// MUST ⊄ MAY violations read alike and triage merges them into one
// crasher.
func TestCryptoViolationDetailsNameCryptoChecks(t *testing.T) {
	srcs := gen.Generate(gen.CryptoSmall()).Sources["jdk"]
	opts := cryptoOracleOptions()
	fingerprints := map[string]string{}
	for _, c := range []secmodel.CheckDesc{{Name: "checkHostnameVerified", Arity: 2}, {Name: "checkIvFresh", Arity: 1}} {
		id, ok := secmodel.CryptoAPI().CheckByName(c.Name, c.Arity)
		if !ok {
			t.Fatalf("no crypto check %s/%d", c.Name, c.Arity)
		}
		lib, err := oracle.LoadLibrary("jdk", srcs)
		if err != nil {
			t.Fatal(err)
		}
		lib.Extract(opts)
		// Break MUST ⊆ MAY at the first event the invariant walks.
		ep := lib.Policies.Entries[lib.Policies.SortedEntries()[0]]
		evp := ep.Events[ep.SortedEvents()[0]]
		evp.May = evp.May.Minus(policy.Empty.With(id))
		evp.Must = evp.Must.With(id)

		vs := metamorph.CheckExtracted(lib, lib, srcs, opts, metamorph.MutantChecks{})
		if len(vs) != 1 || vs[0].Invariant != "must-subset-may" {
			t.Fatalf("%s: violations = %v, want one must-subset-may", c.Name, vs)
		}
		if want := "MUST has {" + c.Name + "} beyond MAY"; !strings.Contains(vs[0].Detail, want) {
			t.Errorf("detail %q does not contain %q", vs[0].Detail, want)
		}
		fingerprints[campaign.Fingerprint(vs[0])] = c.Name
	}
	if len(fingerprints) != 2 {
		t.Errorf("distinct crypto violations share a crasher fingerprint: %v", fingerprints)
	}
}
