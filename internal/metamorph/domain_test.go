package metamorph_test

import (
	"testing"

	"policyoracle/internal/campaign"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
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
