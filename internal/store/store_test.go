package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
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
  native void write0(String key);
  native String read0(String key);
}
`

// libMJv2 drops the write check, so diffing v1 against v2 reports it.
const libMJv2 = `
package api;
import java.lang.*;
public class Store {
  private SecurityManager sm;
  public void put(String key) {
    write0(key);
  }
  public String get(String key) {
    sm.checkRead(key);
    return read0(key);
  }
  native void write0(String key);
  native String read0(String key);
}
`

func testSources() map[string]string {
	return map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJ}
}

func v2Sources() map[string]string {
	return map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
}

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutIsContentAddressedAndIdempotent(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fp, created, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if !created || !oracle.IsFingerprint(fp) {
		t.Fatalf("first Put: created=%v fp=%q", created, fp)
	}
	fp2, created2, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if created2 || fp2 != fp {
		t.Errorf("re-upload: created=%v fp=%q, want existing %q", created2, fp2, fp)
	}
	if got := s.Stats().Bundles; got != 1 {
		t.Errorf("Bundles = %d, want 1", got)
	}
	b, err := s.Bundle(fp)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "a" || b.Fingerprint != fp || len(b.Sources) != 2 {
		t.Errorf("bundle round-trip: %+v", b)
	}
}

func TestPutRejectsBadInput(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	if _, _, err := s.Put("", testSources(), OptionsWire{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, _, err := s.Put("a", nil, OptionsWire{}); err == nil {
		t.Error("empty sources accepted")
	}
	if _, _, err := s.Put("a", testSources(), OptionsWire{Events: "bogus"}); err == nil {
		t.Error("bad options accepted")
	}
	if _, _, err := s.Put("a", map[string]string{"x.mj": "class { nonsense"}, OptionsWire{}); err == nil {
		t.Error("non-loading bundle accepted")
	}
}

// A warm cache serves the persisted bytes without re-extraction: the
// second in-process request hits the LRU, and a fresh Store over the
// same directory hits the disk blob — zero extractions either way.
func TestCacheHitSkipsExtraction(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Extractions != 1 || st.Misses != 1 {
		t.Fatalf("cold read: %+v", st)
	}
	// The blob is exactly what an in-process export produces.
	lib, err := oracle.LoadLibrary("a", testSources())
	if err != nil {
		t.Fatal(err)
	}
	lib.Extract(oracle.DefaultOptions())
	want, err := lib.Policies.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("stored blob differs from in-process ExportJSON:\n%s\nvs\n%s", blob, want)
	}

	again, err := s.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Extractions != 1 || st.MemHits != 1 {
		t.Errorf("warm read: %+v", st)
	}
	if !bytes.Equal(again, blob) {
		t.Error("LRU returned different bytes")
	}

	cold := openTestStore(t, dir)
	fromDisk, err := cold.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Extractions != 0 || st.DiskHits != 1 {
		t.Errorf("disk read: %+v", st)
	}
	if !bytes.Equal(fromDisk, blob) {
		t.Error("disk blob differs from extracted blob")
	}
}

// A corrupted persisted blob is detected on read and re-extracted.
func TestCorruptBlobIsReExtracted(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.policyPath(fp), []byte(`{"library":`), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := openTestStore(t, dir)
	got, err := cold.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.CorruptBlobs != 1 || st.Extractions != 1 || st.DiskHits != 0 {
		t.Errorf("after corruption: %+v", st)
	}
	if !bytes.Equal(got, want) {
		t.Error("re-extracted blob differs from original")
	}
	// The healed blob persisted: a third store reads it straight back.
	healed := openTestStore(t, dir)
	if _, err := healed.Policies(fp); err != nil {
		t.Fatal(err)
	}
	if st := healed.Stats(); st.DiskHits != 1 || st.Extractions != 0 {
		t.Errorf("after healing: %+v", st)
	}
}

// Concurrent requests for one fingerprint extract exactly once; the rest
// coalesce onto the in-flight extraction. The stubbed extractor sleeps so
// all requests genuinely overlap (run under -race in CI).
func TestConcurrentRequestsExtractOnce(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	inner := s.extract
	s.extract = func(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (*oracle.Library, *oracle.IncrementalStats, error) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond)
		return inner(ctx, b, lib, prev)
	}
	const n = 16
	blobs := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blobs[i], errs[i] = s.Policies(fp)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(blobs[i], blobs[0]) {
			t.Fatalf("request %d saw different bytes", i)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("extractor ran %d times, want 1", got)
	}
	st := s.Stats()
	if st.Extractions != 1 {
		t.Errorf("Extractions = %d, want 1", st.Extractions)
	}
	if st.Coalesced+st.MemHits != n-1 {
		t.Errorf("coalesced=%d memHits=%d, want %d combined", st.Coalesced, st.MemHits, n-1)
	}
}

func TestDiffReportsSeededDifference(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fpA, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fpB, _, err := s.Put("b", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if fpA == fpB {
		t.Fatal("distinct bundles collided")
	}
	rep, err := s.DiffContext(context.Background(), fpA, fpB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LibA != "a" || rep.LibB != "b" {
		t.Errorf("report libraries = %s, %s", rep.LibA, rep.LibB)
	}
	if len(rep.Groups) == 0 {
		t.Fatal("seeded missing checkWrite not reported")
	}
	found := false
	for _, g := range rep.Groups {
		if strings.Contains(g.DiffChecks.StringIn(secmodel.SecurityManager()), "checkWrite") && g.MissingIn == "b" {
			found = true
		}
	}
	if !found {
		t.Errorf("no group reports checkWrite missing in b: %s", rep)
	}
	if got := s.Stats().Diffs; got != 1 {
		t.Errorf("Diffs = %d, want 1", got)
	}
}

func TestUnknownAndMalformedFingerprints(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	ghost := oracle.Fingerprint("ghost", map[string]string{"f": "x"}, oracle.DefaultOptions())
	if _, err := s.Policies(ghost); err == nil || !strings.Contains(err.Error(), "no bundle") {
		t.Errorf("unknown fingerprint error = %v", err)
	}
	for _, bad := range []string{"", "po1-zz", "../../etc/passwd"} {
		if _, err := s.Policies(bad); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("Policies(%q) error = %v", bad, err)
		}
		if _, err := s.Bundle(bad); err == nil {
			t.Errorf("Bundle(%q) accepted", bad)
		}
	}
}

// Eviction falls back to the persisted blob, never to re-extraction.
func TestLRUEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CacheEntries: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fpA, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fpB, _, err := s.Put("b", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Policies(fpA); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Policies(fpB); err != nil { // evicts fpA
		t.Fatal(err)
	}
	s.mu.Lock()
	got := s.cache.len()
	s.mu.Unlock()
	if got != 1 {
		t.Errorf("%d blobs resident, want 1", got)
	}
	if _, err := s.Policies(fpA); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Extractions != 2 || st.DiskHits != 1 {
		t.Errorf("after eviction: %+v", st)
	}
	// fpB's insert evicted fpA; fpA's disk-hit re-insert evicted fpB.
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", st.Evictions)
	}
}

// A caller that abandons its read gets ctx.Err() immediately, and as the
// last waiter it cancels the in-flight extraction. A later request must
// start a fresh extraction, not inherit the cancelled result.
func TestPoliciesContextCancellation(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	inner := s.extract
	entered := make(chan struct{})
	sawCancel := make(chan struct{})
	s.extract = func(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (*oracle.Library, *oracle.IncrementalStats, error) {
		close(entered)
		select {
		case <-ctx.Done():
			close(sawCancel)
			return nil, nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return inner(ctx, b, lib, prev)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.PoliciesContext(ctx, fp)
		errCh <- err
	}()
	<-entered
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned read error = %v, want context.Canceled", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("extraction context was never cancelled")
	}
	s.extract = inner
	if _, err := s.Policies(fp); err != nil {
		t.Fatalf("fresh read after abandonment: %v", err)
	}
}

// A cancelled coalesced waiter leaves without disturbing the extraction
// the remaining waiter depends on.
func TestCoalescedWaiterCancellation(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	inner := s.extract
	entered := make(chan struct{})
	release := make(chan struct{})
	s.extract = func(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (*oracle.Library, *oracle.IncrementalStats, error) {
		close(entered)
		<-release
		return inner(ctx, b, lib, prev)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Policies(fp)
		done <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PoliciesContext(ctx, fp); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled coalesced read error = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
	st := s.Stats()
	if st.Extractions != 1 || st.Coalesced != 1 {
		t.Errorf("after coalesced cancellation: %+v", st)
	}
}

// A store opened with a registry reports its cache, extraction, and
// per-mode analysis series on the shared scrape surface, and Stats reads
// the same counts.
func TestStoreMetrics(t *testing.T) {
	reg := telemetry.New()
	s, err := Open(Config{Dir: t.TempDir(), Parallel: 1, CacheEntries: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	fpA, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fpB, _, err := s.Put("b", map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DiffContext(context.Background(), fpA, fpB); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Policies(fpA); err != nil { // evicted by fpB: disk hit
		t.Fatal(err)
	}
	if got := s.Stats().Decodes; got != 2 {
		t.Errorf("Stats.Decodes = %d, want 2", got)
	}
	text := reg.Text()
	for _, want := range []string{
		"polorad_store_bundles_created_total 2",
		"polorad_store_cache_misses_total 2",
		"polorad_store_extractions_total 2",
		"polorad_store_diffs_total 1",
		`polorad_store_cache_hits_total{tier="disk"} 1`,
		"polorad_store_cache_evictions_total 2",
		"polorad_store_cached_blobs 1",
		// Diff decodes both extracted blobs; the disk hit of fpA verifies
		// its digest and decodes nothing.
		"polorad_store_policy_decodes_total 2",
		"polorad_store_report_hits_total 0",
		"polorad_store_extract_queue_wait_seconds_count 2",
		"polorad_store_extract_duration_seconds_count 2",
		`policyoracle_extractions_total{domain="securitymanager"} 2`,
		`policyoracle_extract_mode_duration_seconds_count{mode="may",domain="securitymanager"} 2`,
		`policyoracle_extract_mode_duration_seconds_count{mode="must",domain="securitymanager"} 2`,
		`policyoracle_analysis_entry_points_total{mode="may",domain="securitymanager"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape misses %q", want)
		}
	}

	// A memory hit, and a report miss then hit.
	if _, err := s.Policies(fpA); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.DiffWire(context.Background(), fpA, fpA); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemHits == 0 || st.ReportHits != 1 {
		t.Fatalf("the extra reads missed their counters: %+v", st)
	}
	text = reg.Text()
	for series, n := range map[string]uint64{
		`polorad_store_cache_hits_total{tier="mem"}`:     st.MemHits,
		`polorad_store_cache_hits_total{tier="disk"}`:    st.DiskHits,
		`polorad_store_cache_hits_total{tier="backend"}`: st.BackendHits,
		"polorad_store_cache_misses_total":               st.Misses,
		"polorad_store_coalesced_requests_total":         st.Coalesced,
		"polorad_store_extractions_total":                st.Extractions,
		"polorad_store_corrupt_blobs_total":              st.CorruptBlobs,
		"polorad_store_bundles_created_total":            st.Bundles,
		"polorad_store_diffs_total":                      st.Diffs,
		"polorad_store_report_hits_total":                st.ReportHits,
		"polorad_store_cache_evictions_total":            st.Evictions,
		"polorad_store_policy_decodes_total":             st.Decodes,
	} {
		if want := fmt.Sprintf("\n%s %d\n", series, n); !strings.Contains(text, want) {
			t.Errorf("Stats has %s %d, which the scrape does not show", series, n)
		}
	}
}

// The blob round-trips through the policy wire format losslessly enough
// for differencing: import of the stored bytes is re-exportable to the
// identical bytes.
func TestBlobRoundTripStability(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := policy.ImportJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := pp.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Errorf("wire format not a fixed point:\n%s\nvs\n%s", blob, again)
	}
}
