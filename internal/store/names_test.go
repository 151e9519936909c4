package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// The name index is the reconcile controller's registry, so a torn write
// (partial JSON left behind by a crash mid-write, impossible under
// WriteAtomic but possible with older stores or external tampering) must
// not erase it: readNames rebuilds from the bundles directory instead of
// starting empty.
func TestNamesTornWriteRecoversFromBundles(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	fpA, _, err := s.Put("liba", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fpB, _, err := s.Put("libb", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: truncate names.json mid-token.
	data, err := os.ReadFile(s.namesPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.namesPath(), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	names := s.Names()
	if names["liba"] != fpA || names["libb"] != fpB {
		t.Errorf("Names after torn write = %v, want liba→%s libb→%s", names, fpA, fpB)
	}
	// The rebuilt index was persisted, so the next read parses cleanly.
	raw, err := os.ReadFile(s.namesPath())
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]string
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("rebuilt index does not parse: %v\n%s", err, raw)
	}
	if parsed["liba"] != fpA || parsed["libb"] != fpB {
		t.Errorf("persisted rebuilt index = %v", parsed)
	}
}

// A torn index must also not be lossy across a write: advancing one
// library's fingerprint after corruption preserves every other entry.
func TestSetLatestFingerprintAfterTornWriteKeepsOtherNames(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	fpA, _, err := s.Put("liba", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("libb", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}, OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.namesPath(), []byte(`{"liba":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Re-uploading libb's content routes through setLatestFingerprint.
	fpB2, _, err := s.Put("libb", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	names := s.Names()
	if names["liba"] != fpA {
		t.Errorf("liba lost after torn write + rewrite: %v", names)
	}
	if names["libb"] != fpB2 {
		t.Errorf("libb = %q, want %q", names["libb"], fpB2)
	}
}

// A torn deps sidecar (the incremental seed) must never fail an update:
// the store falls back to a full extraction and rewrites a valid sidecar.
func TestTornDepsSidecarFallsBackToFullExtraction(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	ctx := context.Background()
	res1, err := s.Update(ctx, "api", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the sidecar mid-write.
	side, err := os.ReadFile(s.depsPath(res1.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.depsPath(res1.Fingerprint), side[:len(side)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn sidecar comes from a crash, so the update runs in a new
	// process: its summary cache is cold and every entry is analyzed.
	s = openTestStore(t, dir)
	res2, err := s.Update(ctx, "api", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}, OptionsWire{})
	if err != nil {
		t.Fatalf("update over torn sidecar: %v", err)
	}
	if res2.Incremental {
		t.Errorf("update seeded from a torn sidecar: %+v", res2)
	}
	if res2.Reanalyzed != res2.Entries || res2.Entries == 0 {
		t.Errorf("full-extraction fallback stats: %+v", res2)
	}
	// The new revision's sidecar is whole again.
	if _, err := os.ReadFile(s.depsPath(res2.Fingerprint)); err != nil {
		t.Errorf("new sidecar missing: %v", err)
	}
}

// An update whose extraction options differ from the previous revision's
// cannot reuse its policies (the option key no longer matches the
// sidecar): the store must fall back to a full re-extraction, never
// splice entries analyzed under different options.
func TestOptionKeyMismatchForcesFullReextract(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	ctx := context.Background()
	if _, err := s.Update(ctx, "api", testSources(), OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Update(ctx, "api",
		map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2},
		OptionsWire{NoICP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental {
		t.Errorf("update spliced policies across an option-key change: %+v", res)
	}
	if res.Reanalyzed != res.Entries || res.Reused != 0 || res.Entries == 0 {
		t.Errorf("full re-extract stats: %+v", res)
	}
}

// Concurrent updates of one name serialize: every update completes, the
// index ends at some completed revision, and a subsequent writer wins it
// deterministically.
func TestConcurrentUpdatesSameNameSerialize(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	ctx := context.Background()

	const writers = 4
	fps := make([]string, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each writer uploads a distinct revision (a comment makes the
			// fingerprint unique without changing semantics).
			src := map[string]string{
				"rt.mj":  runtimeMJ,
				"lib.mj": fmt.Sprintf("// rev %d\n%s", i, libMJ),
			}
			res, err := s.Update(ctx, "api", src, OptionsWire{})
			if err != nil {
				errs[i] = err
				return
			}
			fps[i] = res.Fingerprint
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	latest := s.Names()["api"]
	found := false
	for _, fp := range fps {
		if fp == latest {
			found = true
		}
	}
	if !found {
		t.Errorf("index fingerprint %q is not any writer's revision %v", latest, fps)
	}
	// The indexed revision's policies are persisted and readable.
	if _, err := s.Policies(latest); err != nil {
		t.Errorf("latest revision unreadable: %v", err)
	}

	// Last writer wins once the storm settles.
	res, err := s.Update(ctx, "api", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Names()["api"]; got != res.Fingerprint {
		t.Errorf("final index %q, want last writer %q", got, res.Fingerprint)
	}
	// And the index file itself parses (no torn interleaving).
	raw, err := os.ReadFile(s.namesPath())
	if err != nil || !strings.Contains(string(raw), res.Fingerprint) {
		t.Errorf("index file: err=%v raw=%s", err, raw)
	}
}
