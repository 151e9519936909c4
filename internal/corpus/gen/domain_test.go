package gen

import (
	"strings"
	"testing"

	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

// cryptoOptions is DefaultOptions retargeted at the crypto domain.
func cryptoOptions() oracle.Options {
	opts := oracle.DefaultOptions()
	opts.Domain = secmodel.CryptoAPI()
	return opts
}

// TestDefaultDomainAliases pins that Params.Domain "" and the explicit
// default ID generate byte-identical corpora — the same equivalence the
// rest of the stack (options wire, fingerprints, server requests) keeps.
func TestDefaultDomainAliases(t *testing.T) {
	p := Small()
	a := Generate(p)
	p.Domain = secmodel.DefaultDomainID
	b := Generate(p)
	if a.Domain != b.Domain || a.Domain != secmodel.DefaultDomainID {
		t.Fatalf("resolved domains differ: %q vs %q", a.Domain, b.Domain)
	}
	for lib := range a.Sources {
		for f, src := range a.Sources[lib] {
			if b.Sources[lib][f] != src {
				t.Fatalf("default-domain aliases diverge at %s/%s", lib, f)
			}
		}
	}
}

// TestCryptoCorpusShape checks the crypto corpus carries only deviations
// that exist in the domain: no PrivWrap issues (no privileged blocks),
// every seeded check drawn from the CryptoGuard table, and the sources
// free of SecurityManager checks.
func TestCryptoCorpusShape(t *testing.T) {
	c := Generate(CryptoSmall())
	if c.Domain != secmodel.CryptoDomainID {
		t.Fatalf("corpus domain = %q, want %q", c.Domain, secmodel.CryptoDomainID)
	}
	dom := secmodel.CryptoAPI()
	known := map[string]bool{}
	for i := 0; i < dom.NumChecks(); i++ {
		known[dom.CheckName(secmodel.CheckID(i))] = true
	}
	if len(c.Issues) == 0 {
		t.Fatal("no issues seeded in crypto corpus")
	}
	for _, is := range c.Issues {
		if is.Kind == PrivWrap {
			t.Errorf("issue %s: PrivWrap seeded in a domain without privileged blocks", is.ID)
		}
		if !known[is.Check] {
			t.Errorf("issue %s: check %s not in the crypto table", is.ID, is.Check)
		}
	}
	for lib, files := range c.Sources {
		for f, src := range files {
			if strings.HasPrefix(f, "java/") {
				continue // the shared prelude declares SecurityManager and doPrivileged
			}
			if strings.Contains(src, "securityManager.") {
				t.Errorf("%s/%s: SecurityManager check in crypto corpus", lib, f)
			}
			if strings.Contains(src, "doPrivileged") {
				t.Errorf("%s/%s: privileged block in crypto corpus", lib, f)
			}
		}
	}
}

// TestCryptoCorpusLoads mirrors TestGeneratedCorpusLoads for the crypto
// domain: every generated implementation must parse and build cleanly.
func TestCryptoCorpusLoads(t *testing.T) {
	_, libs := loadCorpus(t, CryptoSmall())
	for name, l := range libs {
		if l.Diags.HasErrors() {
			t.Errorf("%s: %v", name, l.Diags.Err())
		}
		for _, d := range l.Diags.All() {
			t.Errorf("%s: unexpected diagnostic %s", name, d)
		}
	}
}

// TestCryptoCorpusVerifyReport is the crypto-domain acceptance check: the
// oracle extracting under the crypto domain must report 100% of the
// seeded misuse deviations (dropped IV-freshness checks, swapped cipher
// modes, weakened key-size MUSTs, ...) with zero false positives, as
// judged by the corpus's own VerifyReport hook.
func TestCryptoCorpusVerifyReport(t *testing.T) {
	c, libs := loadCorpus(t, CryptoSmall())
	opts := cryptoOptions()
	for _, l := range libs {
		l.Extract(opts)
	}
	for _, pair := range c.Pairs() {
		rep := mustDiff(t, libs[pair[0]], libs[pair[1]])
		if rep.Domain != secmodel.CryptoDomainID {
			t.Errorf("%v: report domain = %q, want %q", pair, rep.Domain, secmodel.CryptoDomainID)
		}
		for _, problem := range c.VerifyReport(pair, rep) {
			t.Error(problem)
		}
	}
}

// TestCryptoCorpusInertUnderDefaultDomain extracts the crypto corpus
// under the DEFAULT domain: CryptoGuard calls are plain code there, so
// the libraries' policies must carry no checks at all and the seeded
// misuses must vanish — the domain really is what defines the checks.
func TestCryptoCorpusInertUnderDefaultDomain(t *testing.T) {
	c, libs := loadCorpus(t, CryptoSmall())
	for _, l := range libs {
		l.Extract(oracle.DefaultOptions())
	}
	pair := c.Pairs()[0]
	rep := mustDiff(t, libs[pair[0]], libs[pair[1]])
	for _, g := range rep.Groups {
		for i := range c.Issues {
			is := &c.Issues[i]
			if is.Responsible != pair[0] && is.Responsible != pair[1] {
				continue
			}
			for _, e := range g.Entries {
				if is.MatchesEntry(e) {
					t.Errorf("%v: crypto issue %s reported under the default domain at %s",
						pair, is.ID, e)
				}
			}
		}
	}
}
