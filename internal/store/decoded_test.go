package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/policy"
)

func v2Sources() map[string]string {
	return map[string]string{"rt.mj": runtimeMJ, "lib.mj": libMJv2}
}

// retained reports whether fp is resident with a decoded set, without
// touching its LRU position.
func retained(s *Store, fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.cache.items[fp]
	return ok && el.Value.(*lruEntry).set != nil
}

func resident(s *Store, fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.cache.items[fp]
	return ok
}

// An LRU entry keeps its decoded set once its blob has been decoded a
// second time: warm diffs of resident fingerprints then decode nothing,
// while a fingerprint read once keeps only its bytes. Re-adding an entry
// or evicting it drops the set, and a disabled cache never keeps one.
func TestDecodedSetRetainedOnReuse(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CacheEntries: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fpA, _, err := s.Put("a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fpB, _, err := s.Put("b", v2Sources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fpC, _, err := s.Put("c", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up: the first diff extracts both blobs and decodes each once,
	// the second decodes each again and retains the sets.
	for i := 0; i < 2; i++ {
		if _, err := s.Diff(fpA, fpB); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Decodes != 4 || !retained(s, fpA) || !retained(s, fpB) {
		t.Fatalf("after warm-up: decodes=%d retained a=%v b=%v, want 4, true, true",
			st.Decodes, retained(s, fpA), retained(s, fpB))
	}
	before := s.Stats().Decodes
	for i := 0; i < 5; i++ {
		if _, err := s.Diff(fpA, fpB); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Diff(fpB, fpA); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Stats().Decodes - before; n != 0 {
		t.Errorf("warm diffs of resident fingerprints decoded %d times, want 0", n)
	}

	// An Update that re-adds fpA (its blob was lost, so it re-extracts)
	// drops the set decoded from the old bytes.
	if err := os.Remove(s.policyPath(fpA)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(context.Background(), "a", testSources(), OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	if !resident(s, fpA) || retained(s, fpA) {
		t.Errorf("after Update re-added a: resident=%v retained=%v, want true, false",
			resident(s, fpA), retained(s, fpA))
	}

	// fpC is read once: it evicts fpB (least recently used) and keeps no set.
	if _, err := s.PolicySet(fpC); err != nil {
		t.Fatal(err)
	}
	if retained(s, fpC) {
		t.Error("a fingerprint read once retained its decoded set")
	}
	if resident(s, fpB) {
		t.Fatal("b was not evicted")
	}
	// Read back from disk, fpB is a fresh entry. Its digest verified it
	// without a decode, so the next reader's decode is the first and the
	// one after retains.
	before = s.Stats().Decodes
	if _, err := s.Policies(fpB); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Decodes - before; n != 0 || retained(s, fpB) {
		t.Errorf("disk read of b: %d decodes, retained=%v; want 0, false", n, retained(s, fpB))
	}
	for i := 0; i < 2; i++ {
		if _, err := s.PolicySet(fpB); err != nil {
			t.Fatal(err)
		}
		if retained(s, fpB) != (i == 1) {
			t.Errorf("decode %d of b's resident blob: retained=%v", i+1, retained(s, fpB))
		}
	}

	// -cache 0: every read is a verified disk read, and every diff decodes
	// both sets because nothing is retained.
	off, err := Open(Config{Dir: dir, CacheEntries: -1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := off.Diff(fpA, fpB); err != nil {
			t.Fatal(err)
		}
	}
	if st := off.Stats(); st.Decodes != 6 || st.DiskHits != 6 || off.CachedEntries() != 0 {
		t.Errorf("disabled cache: decodes=%d diskHits=%d cached=%d, want 6, 6, 0",
			st.Decodes, st.DiskHits, off.CachedEntries())
	}
}

// Concurrent diffs share decoded sets: four fingerprints behind a
// two-entry cache keep being evicted and re-read from disk, so readers
// mix retained sets, validated disk sets and fresh decodes. Every report
// must match the one computed from fresh imports, and afterwards every
// retained set must still export to its entry's exact blob — a reader
// that mutated a shared set would fail one check or the other.
func TestConcurrentDiffsShareDecodedSets(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), CacheEntries: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	fps := make([]string, n)
	blobs := make([][]byte, n)
	for i := range fps {
		srcs := testSources()
		if i%2 == 1 {
			srcs = v2Sources()
		}
		if fps[i], _, err = s.Put(fmt.Sprintf("lib%d", i), srcs, OptionsWire{}); err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = s.Policies(fps[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := map[[2]int][]byte{}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			pa, err := policy.ImportJSON(blobs[a])
			if err != nil {
				t.Fatal(err)
			}
			pb, err := policy.ImportJSON(blobs[b])
			if err != nil {
				t.Fatal(err)
			}
			if want[[2]int{a, b}], err = diff.Compare(pa, pb).EncodeJSON(); err != nil {
				t.Fatal(err)
			}
		}
	}
	diffPair := func(a, b int) error {
		rep, err := s.Diff(fps[a], fps[b])
		if err != nil {
			return err
		}
		got, err := rep.EncodeJSON()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want[[2]int{a, b}]) {
			return fmt.Errorf("diff lib%d lib%d differs from the fresh-import reference", a, b)
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
	if st := s.Stats(); st.DiskHits == 0 || st.Evictions == 0 {
		t.Errorf("cache never churned: %+v", st)
	}
	// Settle lib0 and lib1 into the cache with retained sets, so the
	// audit below always has sets to check.
	for i := 0; i < 3; i++ {
		if err := diffPair(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !retained(s, fps[0]) || !retained(s, fps[1]) {
		t.Fatal("repeated diffs of resident fingerprints retained no sets")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for fp, el := range s.cache.items {
		e := el.Value.(*lruEntry)
		if e.set == nil {
			continue
		}
		got, err := e.set.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, e.blob) {
			t.Errorf("retained set of %s no longer exports to its blob", fp)
		}
	}
}

// BenchmarkStoreWarmDiff measures the warm diff path: DiffContext of two
// resident fingerprints of the generated small corpus, whose decoded sets
// the cache has retained. Run with -benchmem: allocs/op is the figure
// that regresses if warm diffs start decoding blobs again.
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
	for i := 0; i < 2; i++ {
		if _, err := s.DiffContext(ctx, fpA, fpB); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchReport, err = s.DiffContext(ctx, fpA, fpB); err != nil {
			b.Fatal(err)
		}
	}
}

var benchReport *diff.Report
