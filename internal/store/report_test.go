package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
)

// freshDiff is the report DiffWire must serve for two blobs: a fresh
// ImportJSON of each, Compare and EncodeJSON, with the report's sorted
// root keys and manifestation count.
func freshDiff(t *testing.T, a, b []byte) Report {
	t.Helper()
	pa, err := policy.ImportJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := policy.ImportJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	rep := diff.Compare(pa, pb)
	r := Report{Domain: rep.Domain, Manifestations: rep.TotalManifestations(), RootKeys: []string{}}
	if r.Wire, err = rep.EncodeJSON(); err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.Groups {
		r.RootKeys = append(r.RootKeys, g.RootKey)
	}
	sort.Strings(r.RootKeys)
	return r
}

func resident(s *Store, fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.cache.items[fp]
	return ok
}

// checkReportBound fails unless the cached reports' bytes (wire bytes and
// root keys) add up to the cache's count and stay within the bytes of the
// resident blobs.
func checkReportBound(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := 0
	for el := s.reports.order.Front(); el != nil; el = el.Next() {
		r := el.Value.(*lruEntry[reportKey, Report]).val
		sum += len(r.Wire)
		for _, k := range r.RootKeys {
			sum += len(k)
		}
	}
	blobs := 0
	for el := s.cache.order.Front(); el != nil; el = el.Next() {
		blobs += len(el.Value.(*lruEntry[string, blobRef]).val.blob)
	}
	if sum != s.reports.bytes || blobs != s.cache.bytes {
		t.Fatalf("byte counts drifted: reports %d counted as %d, blobs %d counted as %d",
			sum, s.reports.bytes, blobs, s.cache.bytes)
	}
	if sum > blobs {
		t.Fatalf("cached reports hold %d bytes, resident blobs %d", sum, blobs)
	}
}

// putFour stores four fingerprints, alternating the two test-library
// revisions, and returns them with their blobs.
func putFour(t *testing.T, s *Store) ([]string, [][]byte) {
	t.Helper()
	fps := make([]string, 4)
	blobs := make([][]byte, 4)
	for i := range fps {
		srcs := testSources()
		if i%2 == 1 {
			srcs = v2Sources()
		}
		var err error
		if fps[i], _, err = s.Put(fmt.Sprintf("lib%d", i), srcs, OptionsWire{}); err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = s.Policies(fps[i]); err != nil {
			t.Fatal(err)
		}
	}
	return fps, blobs
}

// Concurrent DiffWire calls over four fingerprints behind a two-entry
// cache mix report hits, misses over resident blobs, and misses over
// blobs read back from disk. Every one must serve the report a fresh
// decode, compare and encode of the two blobs produces: its bytes, root
// keys and manifestation count.
func TestConcurrentDiffWireIsTheDiff(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CacheEntries: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fps, blobs := putFour(t, s)
	n := len(fps)
	want := map[[2]int]Report{}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want[[2]int{a, b}] = freshDiff(t, blobs[a], blobs[b])
		}
	}
	diffPair := func(a, b int) error {
		got, err := s.DiffWire(context.Background(), fps[a], fps[b])
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want[[2]int{a, b}]) || got.Domain != "" {
			return fmt.Errorf("DiffWire lib%d lib%d (domain %q) differs from the fresh diff", a, b, got.Domain)
		}
		return nil
	}

	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := (w + r) % n
				if err := diffPair(a, (a+1+r%(n-1))%n); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.DiskHits == 0 || st.Evictions == 0 {
		t.Errorf("cache never churned: %+v", st)
	}
	if st.Diffs != workers*rounds {
		t.Errorf("Diffs = %d, want every one of the %d served", st.Diffs, workers*rounds)
	}
	checkReportBound(t, s)

	// A repeat of the last pair is a report hit that decodes nothing.
	if err := diffPair(0, 1); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := diffPair(0, 1); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.ReportHits != before.ReportHits+1 || after.Decodes != before.Decodes {
		t.Errorf("repeated diff: report hits %d -> %d, decodes %d -> %d; want one hit and no decode",
			before.ReportHits, after.ReportHits, before.Decodes, after.Decodes)
	}
}

// Concurrent DiffWire calls and direct runs of its miss path (compare
// and encode) over four fingerprints behind a two-entry cache keep
// evicting and re-reading blobs from disk, and DiffWire mixes report hits
// with misses. Every report must match the one computed from fresh
// imports of the two blobs.
func TestConcurrentDiffsMatchFreshImports(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CacheEntries: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fps, blobs := putFour(t, s)
	n := len(fps)
	want := map[[2]int][]byte{}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want[[2]int{a, b}] = freshDiff(t, blobs[a], blobs[b]).Wire
		}
	}
	ctx := context.Background()
	diffPair := func(a, b int, wire bool) error {
		var got []byte
		if wire {
			r, err := s.DiffWire(ctx, fps[a], fps[b])
			if err != nil {
				return err
			}
			got = r.Wire
		} else {
			rep, err := compareRead(ctx, s, fps[a], fps[b])
			if err != nil {
				return err
			}
			if got, err = rep.EncodeJSON(); err != nil {
				return err
			}
		}
		if !bytes.Equal(got, want[[2]int{a, b}]) {
			return fmt.Errorf("diff lib%d lib%d (DiffWire %v) differs from the fresh-import reference", a, b, wire)
		}
		return nil
	}

	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := (w + r) % n
				if err := diffPair(a, (a+1+r%(n-1))%n, (w+r)%2 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.DiskHits == 0 || st.Evictions == 0 || st.ReportHits == 0 {
		t.Errorf("cache never churned or never hit: %+v", st)
	}
	checkReportBound(t, s)
}

// A blob is decoded only to compute a diff, and the set is not kept: a
// DiffWire decodes both blobs on a report miss and nothing on a hit, and
// its miss path decodes both however often the pair was diffed.
func TestDiffDecodes(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fps, _ := putFour(t, s)
	ctx := context.Background()
	miss := func() error { _, err := compareRead(ctx, s, fps[0], fps[1]); return err }
	diffWire := func() error { _, err := s.DiffWire(ctx, fps[0], fps[1]); return err }
	steps := []struct {
		name    string
		diff    func() error
		decodes uint64
	}{
		{"miss path", miss, 2},
		{"repeated miss path", miss, 2},
		{"first DiffWire", diffWire, 2},
		{"repeated DiffWire", diffWire, 0},
		{"repeated DiffWire", diffWire, 0},
		{"miss path of a cached report's pair", miss, 2},
	}
	if st := s.Stats(); st.Decodes != 0 {
		t.Fatalf("extraction decoded %d blobs, want none", st.Decodes)
	}
	for _, step := range steps {
		before := s.Stats().Decodes
		if err := step.diff(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Decodes - before; got != step.decodes {
			t.Errorf("%s: %d decodes, want %d", step.name, got, step.decodes)
		}
	}
	if st := s.Stats(); st.ReportHits != 2 || st.Diffs != uint64(len(steps)) {
		t.Errorf("after %d diffs: %+v, want 2 report hits", len(steps), st)
	}
}

// A report is keyed by the content of the blobs it compares, not by
// their fingerprints: once a fingerprint's blob and digest are replaced
// by another valid blob, its diffs serve the report of the new content,
// although the old report is still cached.
func TestReportCacheFollowsBlobContent(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CacheEntries: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fps, blobs := putFour(t, s)
	ctx := context.Background()
	old, err := s.DiffWire(ctx, fps[0], fps[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, freshDiff(t, blobs[0], blobs[1])) {
		t.Fatal("first diff differs from the fresh diff")
	}
	// lib1 now holds lib2's content, under lib1's address. Reading lib2
	// and lib0 evicts lib1's entry, so its next read is from disk.
	if err := s.persistBlob(fps[1], refOf(blobs[2])); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 0} {
		if _, err := s.Policies(fps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if resident(s, fps[1]) {
		t.Fatal("lib1 is still resident")
	}
	s.mu.Lock()
	_, cached := s.reports.items[reportKey{refOf(blobs[0]).sum, refOf(blobs[1]).sum}]
	s.mu.Unlock()
	if !cached {
		t.Fatal("the old report was evicted, so the test shows nothing")
	}
	got, err := s.DiffWire(ctx, fps[0], fps[1])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Wire, old.Wire) || !reflect.DeepEqual(got, freshDiff(t, blobs[0], blobs[2])) {
		t.Error("after replacing lib1's blob, DiffWire did not serve the diff of the new content")
	}
	if st := s.Stats(); st.ReportHits != 0 || st.CorruptBlobs != 0 {
		t.Errorf("after replacing a blob and its digest: %+v, want no report hit and no corruption", st)
	}
}

// Errors are never cached: a domain mismatch fails the same way every
// time, counts no diff, and leaves the report cache empty.
func TestReportCacheSkipsErrors(t *testing.T) {
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
	for i := 0; i < 2; i++ {
		if _, err := s.DiffWire(context.Background(), fpDef, fpCrypto); !errors.Is(err, oracle.ErrDomainMismatch) {
			t.Fatalf("cross-domain DiffWire %d: err = %v, want oracle.ErrDomainMismatch", i, err)
		}
	}
	s.mu.Lock()
	cached := s.reports.len()
	s.mu.Unlock()
	if st := s.Stats(); cached != 0 || st.ReportHits != 0 || st.Diffs != 0 {
		t.Errorf("after two failed diffs: %d reports cached, %+v", cached, st)
	}
	// Two crypto-domain fingerprints diff, and the report carries the
	// domain the server asserts against.
	fpCrypto2, _, err := s.Put("c", srcs, OptionsWire{Domain: secmodel.CryptoDomainID})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r, err := s.DiffWire(context.Background(), fpCrypto, fpCrypto2); err != nil || r.Domain != secmodel.CryptoDomainID {
			t.Fatalf("crypto DiffWire %d: domain %q, err %v", i, r.Domain, err)
		}
	}
	if st := s.Stats(); st.ReportHits != 1 {
		t.Errorf("ReportHits = %d, want 1", st.ReportHits)
	}
}

// With the blob cache off, no report is cached: every diff decodes both
// blobs again, and serves the same bytes.
func TestReportCacheOffWithoutBlobCache(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CacheEntries: -1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fps, blobs := putFour(t, s)
	want := freshDiff(t, blobs[0], blobs[1])
	before := s.Stats().Decodes
	for i := 0; i < 3; i++ {
		got, err := s.DiffWire(context.Background(), fps[0], fps[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("DiffWire differs from the fresh diff")
		}
	}
	s.mu.Lock()
	cached := s.reports.len()
	s.mu.Unlock()
	st := s.Stats()
	if cached != 0 || st.ReportHits != 0 || st.Decodes-before != 6 {
		t.Errorf("cache off: %d reports cached, %d report hits, %d decodes; want 0, 0, 6",
			cached, st.ReportHits, st.Decodes-before)
	}
}

// The cached reports never outweigh the resident blobs: not as reports
// are added, nor as blob evictions shrink the budget.
func TestReportCacheBoundedByResidentBlobs(t *testing.T) {
	for _, entries := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("entries=%d", entries), func(t *testing.T) {
			s, err := Open(Config{Dir: t.TempDir(), CacheEntries: entries, Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			fps, _ := putFour(t, s)
			ctx := context.Background()
			for round := 0; round < 3; round++ {
				for a := range fps {
					for b := range fps {
						for i := 0; i < 2; i++ {
							if _, err := s.DiffWire(ctx, fps[a], fps[b]); err != nil {
								t.Fatal(err)
							}
							checkReportBound(t, s)
						}
					}
					if _, err := s.Policies(fps[(a+round)%len(fps)]); err != nil {
						t.Fatal(err)
					}
					checkReportBound(t, s)
				}
			}
			if s.Stats().ReportHits == 0 {
				t.Error("no report was ever served from the cache")
			}
		})
	}
}

// compareRead runs DiffWire's miss path on two fingerprints, bypassing the
// report cache: it reads both blobs and compares them.
func compareRead(ctx context.Context, s *Store, fpA, fpB string) (*diff.Report, error) {
	a, err := s.read(ctx, fpA)
	if err != nil {
		return nil, err
	}
	b, err := s.read(ctx, fpB)
	if err != nil {
		return nil, err
	}
	return s.compare(fpA, fpB, a, b)
}

// BenchmarkStoreWarmDiff measures a report-cache miss: DiffWire's miss
// path (compare) on two resident fingerprints of the generated small
// corpus, which decodes both blobs and runs one Compare. It is what a
// diff of two new blobs pays before encoding, a reconcile of a pair whose
// blobs changed among them. Run with -benchmem.
func BenchmarkStoreWarmDiff(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir(), Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	c := gen.Generate(gen.Small())
	fpA, _, err := s.Put("jdk", c.Sources["jdk"], OptionsWire{})
	if err != nil {
		b.Fatal(err)
	}
	fpB, _, err := s.Put("harmony", c.Sources["harmony"], OptionsWire{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := compareRead(ctx, s, fpA, fpB); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchReport, err = compareRead(ctx, s, fpA, fpB); err != nil {
			b.Fatal(err)
		}
	}
}

var benchReport *diff.Report

// BenchmarkStoreDiffWire measures a repeated diff: DiffWire of two
// resident fingerprints of the generated small corpus, whose report is
// cached. Run with -benchmem: allocs/op is the figure that regresses if a
// repeated diff starts decoding, comparing or encoding again.
func BenchmarkStoreDiffWire(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir(), Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	c := gen.Generate(gen.Small())
	fpA, _, err := s.Put("jdk", c.Sources["jdk"], OptionsWire{})
	if err != nil {
		b.Fatal(err)
	}
	fpB, _, err := s.Put("harmony", c.Sources["harmony"], OptionsWire{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.DiffWire(ctx, fpA, fpB); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchWire, err = s.DiffWire(ctx, fpA, fpB); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.ReportHits != uint64(b.N) {
		b.Fatalf("%d report hits in %d iterations", st.ReportHits, b.N)
	}
}

var benchWire Report
