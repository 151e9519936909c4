package store

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/telemetry"
)

// A store opened with a negative cache capacity keeps no blobs in
// memory: repeat reads come from disk and nothing is ever evicted.
func TestCacheDisabled(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Parallel: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Error("disabled cache returned different bytes")
	}
	st := s.Stats()
	if st.MemHits != 0 || st.DiskHits != 1 || st.Evictions != 0 {
		t.Errorf("stats with cache disabled: %+v", st)
	}
	s.mu.Lock()
	n := s.cache.len()
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("%d blobs resident with cache disabled", n)
	}
}

// The queue-wait histogram records one sample per extraction slot
// granted — the flight leader's — not one per coalesced caller.
func TestQueueWaitRecordedByLeaderOnly(t *testing.T) {
	reg := telemetry.New()
	s, err := Open(Config{Dir: t.TempDir(), Parallel: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	inner := s.extract
	s.extract = func(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (*oracle.Library, *oracle.IncrementalStats, error) {
		time.Sleep(50 * time.Millisecond) // let every reader coalesce
		return inner(ctx, b, lib, prev)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Policies(fp)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.tm.QueueWait.Count(); got != 1 {
		t.Errorf("queue-wait samples = %v, want 1 (leader only)", got)
	}
	if text := reg.Text(); !strings.Contains(text, "polorad_store_extract_queue_wait_seconds_count 1") {
		t.Error("scrape does not show exactly one queue-wait sample")
	}
}

// When an in-flight result and a caller's cancellation race, the result
// wins: the Policies wrapper on context.Background pins its waiter
// refcount on this, and a losing context caller must not decrement a
// refcount the completion path already settled.
func TestWaitPrefersCompletedResult(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	c := &flightCall{done: make(chan struct{}), cancel: func() {}, waiters: 1}
	c.ref.blob = []byte("blob")
	close(c.done)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // both c.done and ctx.Done() are ready
	ref, err := s.wait(ctx, "deadbeef", c)
	if err != nil || string(ref.blob) != "blob" {
		t.Errorf("wait with done+cancelled = (%q, %v), want the result", ref.blob, err)
	}
	if c.waiters != 1 {
		t.Errorf("result path changed the refcount: waiters = %d", c.waiters)
	}
}

// Context-carrying and background waiters mix on one in-flight
// extraction: a cancelled context waiter leaves without disturbing the
// others, the survivors all see identical bytes, and the flight table
// drains once the extraction completes.
func TestMixedContextAndBackgroundWaiters(t *testing.T) {
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

	// Leader on a background context.
	leaderDone := make(chan error, 1)
	var leaderBlob []byte
	go func() {
		var err error
		leaderBlob, err = s.Policies(fp)
		leaderDone <- err
	}()
	<-entered

	// waitForWaiters blocks until n callers hold references on the
	// in-flight call, so the coalesced joins demonstrably overlap the
	// extraction instead of racing past its completion.
	waitForWaiters := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.mu.Lock()
			w := 0
			if c := s.flight[fp]; c != nil {
				w = c.waiters
			}
			s.mu.Unlock()
			if w >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("flight waiters = %d, want %d", w, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One background waiter and one live context waiter coalesce.
	bgDone := make(chan error, 1)
	var bgBlob []byte
	go func() {
		var err error
		bgBlob, err = s.Policies(fp)
		bgDone <- err
	}()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	liveDone := make(chan error, 1)
	var liveBlob []byte
	go func() {
		var err error
		liveBlob, err = s.PoliciesContext(live, fp)
		liveDone <- err
	}()

	waitForWaiters(3) // leader + background + live

	// A third waiter joins and abandons while the extraction is running.
	doomed, cancelDoomed := context.WithCancel(context.Background())
	cancelDoomed()
	if _, err := s.PoliciesContext(doomed, fp); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}

	close(release)
	for _, ch := range []chan error{leaderDone, bgDone, liveDone} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(leaderBlob, bgBlob) || !bytes.Equal(leaderBlob, liveBlob) {
		t.Error("waiters saw different bytes")
	}
	s.mu.Lock()
	inflight := len(s.flight)
	s.mu.Unlock()
	if inflight != 0 {
		t.Errorf("flight table still holds %d calls after completion", inflight)
	}
	if st := s.Stats(); st.Extractions != 1 || st.Coalesced != 3 {
		t.Errorf("after mixed waiters: %+v", st)
	}
}

// TestUpdateIncrementalFlow walks the delta-aware path end to end:
// upload v1, update to v2 (incremental, seeded from v1's sidecar), and
// assert the persisted blob is byte-identical to a cold extraction.
func TestUpdateIncrementalFlow(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	ctx := context.Background()

	res1, err := s.Update(ctx, "a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Created || res1.Incremental {
		t.Fatalf("first update: %+v, want created full extraction", res1)
	}
	if res1.Entries == 0 || res1.Reanalyzed != res1.Entries || res1.Reused != 0 {
		t.Errorf("first update stats: %+v", res1)
	}
	if _, err := os.Stat(s.depsPath(res1.Fingerprint)); err != nil {
		t.Errorf("no incremental sidecar after update: %v", err)
	}

	v2 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
	res2, err := s.Update(ctx, "a", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Created || !res2.Incremental {
		t.Fatalf("second update: %+v, want created incremental extraction", res2)
	}
	if res2.Reused == 0 || res2.Reanalyzed == 0 || res2.Reused+res2.Reanalyzed != res2.Entries {
		t.Errorf("second update stats: %+v", res2)
	}

	// The spliced blob matches what a cold store would extract from
	// scratch for the same bundle.
	blob, err := s.Policies(res2.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	cold := openTestStore(t, t.TempDir())
	coldFP, _, err := cold.Put("a", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if coldFP != res2.Fingerprint {
		t.Fatalf("fingerprint drift: %s vs %s", coldFP, res2.Fingerprint)
	}
	want, err := cold.Policies(coldFP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("incremental blob differs from cold extraction:\n%s\nvs\n%s", blob, want)
	}

	// Re-sending the same content is a no-op: everything reused, nothing
	// created, no extraction.
	before := s.Stats().Extractions
	res3, err := s.Update(ctx, "a", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Created || res3.Fingerprint != res2.Fingerprint {
		t.Errorf("idempotent update: %+v", res3)
	}
	if res3.Reused != res3.Entries || res3.Reanalyzed != 0 {
		t.Errorf("idempotent update stats: %+v", res3)
	}
	if after := s.Stats().Extractions; after != before {
		t.Errorf("idempotent update extracted (%d -> %d)", before, after)
	}
}

// Updates survive across store restarts: the names index and sidecar
// persist, so a fresh Open still seeds incrementally from the previous
// fingerprint.
func TestUpdateIncrementalAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if _, err := s.Update(context.Background(), "a", testSources(), OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	reopened := openTestStore(t, dir)
	v2 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
	res, err := reopened.Update(context.Background(), "a", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental {
		t.Errorf("update after reopen was not incremental: %+v", res)
	}
}

// A missing or corrupt sidecar degrades to a full extraction, never an
// error — losing incremental state costs time, not correctness.
func TestUpdateFallsBackWithoutSidecar(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	res1, err := s.Update(context.Background(), "a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.depsPath(res1.Fingerprint)); err != nil {
		t.Fatal(err)
	}
	// A lost sidecar comes with a restart, so the update runs in a new
	// process: its summary cache is cold and every entry is analyzed.
	s = openTestStore(t, dir)
	v2 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
	res2, err := s.Update(context.Background(), "a", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Incremental {
		t.Errorf("update without a sidecar claimed to be incremental: %+v", res2)
	}
	if res2.Reanalyzed != res2.Entries {
		t.Errorf("fallback stats: %+v", res2)
	}
	if _, err := s.Policies(res2.Fingerprint); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRejectsBadInput(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	cases := []struct {
		name    string
		sources map[string]string
		w       OptionsWire
	}{
		{"", testSources(), OptionsWire{}},
		{"a", nil, OptionsWire{}},
		{"a", testSources(), OptionsWire{Events: "bogus"}},
		{"a", map[string]string{"x.mj": "class { nonsense"}, OptionsWire{}},
	}
	for _, c := range cases {
		if _, err := s.Update(context.Background(), c.name, c.sources, c.w); !errors.Is(err, ErrInvalid) {
			t.Errorf("Update(%q, %d sources): err = %v, want ErrInvalid", c.name, len(c.sources), err)
		}
	}
}

// The Policies read path also writes the sidecar, so a library first
// seen via Put + Policies still updates incrementally afterwards.
func TestPutThenPoliciesSeedsLaterUpdate(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fp, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Policies(fp); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.depsPath(fp)); err != nil {
		t.Errorf("Policies extraction wrote no sidecar: %v", err)
	}
	if got, ok := s.latestFingerprint("a"); !ok || got != fp {
		t.Errorf("latestFingerprint = (%q, %v), want %q", got, ok, fp)
	}
	v2 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
	res, err := s.Update(context.Background(), "a", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental {
		t.Errorf("update seeded from Put+Policies was not incremental: %+v", res)
	}
}

// Incremental telemetry reaches the shared scrape surface through the
// store's extract metrics.
func TestUpdateMetrics(t *testing.T) {
	reg := telemetry.New()
	s, err := Open(Config{Dir: t.TempDir(), Parallel: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(context.Background(), "a", testSources(), OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	v2 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
	res, err := s.Update(context.Background(), "a", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental {
		t.Fatalf("second update not incremental: %+v", res)
	}
	text := reg.Text()
	for _, want := range []string{
		"polora_incremental_reused_total",
		"polora_incremental_reanalyzed_total",
		"polora_incremental_hash_total",
		"polora_incremental_depset_size_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape misses %q", want)
		}
	}
	if got := s.xm.IncrementalReused.Value(); got != float64(res.Reused) {
		t.Errorf("reused counter = %v, want %d", got, res.Reused)
	}
}

// PUT's reanalyzed is the number of entries the analyzers ran, also when
// the process-wide summary cache splices entries: (a) a seeded update
// whose new content the cache already holds under another name, and (b)
// an update without a sidecar while the cache is warm.
func TestUpdateReportsMeasuredReanalysis(t *testing.T) {
	reg := telemetry.New()
	s, err := Open(Config{Dir: t.TempDir(), Parallel: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v2 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
	update := func(label, name string, sources map[string]string, incremental bool) *UpdateResult {
		t.Helper()
		before := s.xm.EntryPoints.With("may", secmodel.DefaultDomainID).Value()
		res, err := s.Update(ctx, name, sources, OptionsWire{})
		if err != nil {
			t.Fatal(err)
		}
		ran := s.xm.EntryPoints.With("may", secmodel.DefaultDomainID).Value() - before
		if float64(res.Reanalyzed) != ran {
			t.Errorf("%s: reanalyzed = %d, but the analyzers ran %v entries", label, res.Reanalyzed, ran)
		}
		if res.Entries == 0 || res.Reused+res.Reanalyzed != res.Entries || res.Incremental != incremental {
			t.Errorf("%s: %+v, want incremental=%v and reused+reanalyzed == entries", label, res, incremental)
		}
		return res
	}

	update("first upload", "a", testSources(), false)
	fork := update("v2 under another name", "fork", v2, false)
	update("(a) seeded, new content cached", "a", v2, true)

	if err := os.Remove(s.depsPath(fork.Fingerprint)); err != nil {
		t.Fatal(err)
	}
	update("(b) no sidecar, warm cache", "fork", testSources(), false)
}

// A PUT runs the frontend once: Update extracts on the library its
// upload validation loaded. An invalid revision is still rejected before
// anything is written, and a cold read of a bundle that was only
// uploaded loads it from bundles/.
func TestUpdateLoadsFrontendOnce(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	var loaded, extractedOn []*oracle.Library
	load, extract := s.load, s.extract
	s.load = func(name string, sources map[string]string) (*oracle.Library, error) {
		lib, err := load(name, sources)
		loaded = append(loaded, lib)
		return lib, err
	}
	s.extract = func(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (*oracle.Library, *oracle.IncrementalStats, error) {
		extractedOn = append(extractedOn, lib)
		return extract(ctx, b, lib, prev)
	}
	ctx := context.Background()
	v2 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
	for i, sources := range []map[string]string{testSources(), v2} {
		loaded, extractedOn = nil, nil
		res, err := s.Update(ctx, "a", sources, OptionsWire{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Incremental != (i == 1) {
			t.Errorf("update %d: incremental = %v", i, res.Incremental)
		}
		if len(loaded) != 1 || len(extractedOn) != 1 || extractedOn[0] != loaded[0] {
			t.Errorf("update %d: %d frontend loads, extracted on %v; want one load, extracted on the library it loaded",
				i, len(loaded), extractedOn)
		}
	}

	before := storeFiles(t, s.dir)
	loaded, extractedOn = nil, nil
	if _, err := s.Update(ctx, "a", map[string]string{"x.mj": "class { nonsense"}, OptionsWire{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid revision: err = %v, want ErrInvalid", err)
	}
	if len(extractedOn) != 0 {
		t.Error("an invalid revision reached extraction")
	}
	if after := storeFiles(t, s.dir); !maps.Equal(before, after) {
		t.Error("rejecting an invalid revision changed the store's files")
	}

	loaded, extractedOn = nil, nil
	fp, _, err := s.Put("b", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	bundle := s.bundlePath(fp)
	data, err := os.ReadFile(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(bundle); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Policies(fp); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cold read without the bundle file: err = %v, want ErrNotFound", err)
	}
	if err := os.WriteFile(bundle, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Policies(fp); err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || len(extractedOn) != 1 || extractedOn[0] != nil {
		t.Errorf("upload then cold read: %d frontend loads, extracted on %v; want Put's load plus the cold read's own", len(loaded), extractedOn)
	}
}

// storeFiles maps every file under dir to its content.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// BenchmarkStoreUpdate measures one PUT of a single-step metamorphic
// edit of the gen.Small jdk, seeded from the unedited revision: load,
// hash, incremental extraction and the fsync'd writes of the bundle, the
// blob and the sidecar, each after its digest, and the name index.
// Between iterations, with the timer stopped, the edit's files are
// removed, the name index is pointed back at the unedited revision and
// the process-wide summary cache is emptied, so every iteration
// re-analyzes what the first one did.
func BenchmarkStoreUpdate(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir(), Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := gen.Generate(gen.Small()).Sources["jdk"]
	var edit map[string]string
	for seed := int64(1); edit == nil; seed++ {
		src, applied, err := metamorph.MutateSources(base, seed, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(applied) > 0 {
			edit = src
		}
	}
	ctx := context.Background()
	prev, err := s.Update(ctx, "jdk", base, OptionsWire{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res *UpdateResult
	for i := 0; i < b.N; i++ {
		if res, err = s.Update(ctx, "jdk", edit, OptionsWire{}); err != nil {
			b.Fatal(err)
		}
		if !res.Created || !res.Incremental {
			b.Fatalf("update was not a seeded extraction of new content: %+v", res)
		}
		b.StopTimer()
		for _, path := range []string{s.bundlePath(res.Fingerprint), s.policyPath(res.Fingerprint), s.digestPath(res.Fingerprint), s.depsPath(res.Fingerprint), s.depsDigestPath(res.Fingerprint)} {
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.setLatestFingerprint("jdk", prev.Fingerprint); err != nil {
			b.Fatal(err)
		}
		s.sums = oracle.NewSummaryCache(0)
		b.StartTimer()
	}
	b.ReportMetric(float64(res.Reanalyzed), "reanalyzed")
}
