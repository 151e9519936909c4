package store

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"policyoracle/internal/corpus"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

// cryptoStoreLibMJ is a minimal crypto-domain API for store tests.
const cryptoStoreLibMJ = `
package capi;
import java.lang.*;
import java.security.*;
public class Cipher {
  private CryptoGuard guard;
  public void encrypt(String iv) {
    guard.checkIvFresh(iv);
    encrypt0(iv);
  }
  native void encrypt0(String iv);
}
`

func cryptoStoreSources() map[string]string {
	srcs := corpus.CryptoRuntimeSources()
	srcs["capi/cipher.mj"] = cryptoStoreLibMJ
	return srcs
}

// TestStoreCrossDomainCollision uploads the same name and sources under
// two domains: the store must mint distinct fingerprints, keep both
// bundles, and serve each domain's own policy blob — content addressing
// is per (sources, options, domain), never per sources alone.
func TestStoreCrossDomainCollision(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	srcs := cryptoStoreSources()
	fpDef, _, err := s.Put("lib", srcs, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fpCrypto, created, err := s.Put("lib", srcs, OptionsWire{Domain: secmodel.CryptoDomainID})
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("crypto upload of identical sources reused the default-domain bundle")
	}
	if fpDef == fpCrypto {
		t.Fatalf("default and crypto bundles share a fingerprint: %s", fpDef)
	}
	for fp, want := range map[string]string{fpDef: "", fpCrypto: secmodel.CryptoDomainID} {
		blob, err := s.Policies(fp)
		if err != nil {
			t.Fatal(err)
		}
		var hdr struct {
			Domain string `json:"domain"`
		}
		if err := json.Unmarshal(blob, &hdr); err != nil {
			t.Fatal(err)
		}
		if hdr.Domain != want {
			t.Errorf("policies of %s carry domain %q, want %q", fp, hdr.Domain, want)
		}
	}
}

// TestStoreDiffDomainMismatch diffs the same sources extracted under two
// domains: the store must refuse with the typed oracle.ErrDomainMismatch
// rather than produce a report comparing unrelated check tables.
func TestStoreDiffDomainMismatch(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	srcs := cryptoStoreSources()
	fpDef, _, err := s.Put("a", srcs, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fpCrypto, _, err := s.Put("b", srcs, OptionsWire{Domain: secmodel.CryptoDomainID})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DiffWire(context.Background(), fpDef, fpCrypto); !errors.Is(err, oracle.ErrDomainMismatch) {
		t.Fatalf("cross-domain diff: err = %v, want oracle.ErrDomainMismatch", err)
	}
	// Two crypto-domain bundles diff fine.
	fpCrypto2, _, err := s.Put("c", srcs, OptionsWire{Domain: secmodel.CryptoDomainID})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.DiffWire(context.Background(), fpCrypto, fpCrypto2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Domain != secmodel.CryptoDomainID {
		t.Errorf("crypto diff report domain = %q, want %q", r.Domain, secmodel.CryptoDomainID)
	}
}

// TestStoreUnknownDomainRejected pins that a Put naming an unregistered
// domain fails with secmodel.ErrUnknownDomain before any bundle is
// persisted.
func TestStoreUnknownDomainRejected(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	_, _, err := s.Put("lib", testSources(), OptionsWire{Domain: "no-such-domain"})
	if !errors.Is(err, secmodel.ErrUnknownDomain) {
		t.Fatalf("Put with unknown domain: err = %v, want secmodel.ErrUnknownDomain", err)
	}
	if got := s.Stats().Bundles; got != 0 {
		t.Errorf("Bundles = %d after rejected upload, want 0", got)
	}
}
