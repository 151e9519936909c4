package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"strings"
	"sync"
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
)

// editChain returns base followed by n revisions, each one
// metamorph.MutateSources step away from the one before it and none
// repeating earlier content.
func editChain(t testing.TB, base map[string]string, seed int64, n int) []map[string]string {
	t.Helper()
	chain := []map[string]string{base}
	seen := map[string]bool{oracle.Fingerprint("", base, oracle.DefaultOptions()): true}
	for draw := int64(0); len(chain) <= n; draw++ {
		if draw > int64(64*n) {
			t.Fatalf("seed %d: %d revisions in %d draws", seed, len(chain)-1, draw)
		}
		src, applied, err := metamorph.MutateSources(chain[len(chain)-1], seed*1_000_003+draw, 1)
		if err != nil {
			t.Fatal(err)
		}
		if k := oracle.Fingerprint("", src, oracle.DefaultOptions()); len(applied) > 0 && !seen[k] {
			seen[k] = true
			chain = append(chain, src)
		}
	}
	return chain
}

// changedFiles counts the files of b that are new or differ from a's.
func changedFiles(a, b map[string]string) int {
	n := 0
	for path, src := range b {
		if old, ok := a[path]; !ok || old != src {
			n++
		}
	}
	return n
}

// coldExport is what `polora export` writes for a library: a cold load's
// extraction, exported.
func coldExport(t *testing.T, name string, sources map[string]string) []byte {
	t.Helper()
	lib, err := oracle.LoadLibrary(name, sources)
	if err != nil {
		t.Fatal(err)
	}
	lib.Extract(oracle.DefaultOptions())
	blob, err := lib.Policies.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// countParses wraps s's load seam so that each load appends how many
// files it parsed: those whose AST is not one of the parse results it
// was offered.
func countParses(s *Store) *[]int {
	parses := new([]int)
	load := s.load
	s.load = func(name string, sources map[string]string, prev []oracle.ParsedFile) (*oracle.Library, error) {
		lib, err := load(name, sources, prev)
		if err == nil {
			offered := map[any]bool{}
			for _, pf := range prev {
				offered[pf.AST] = true
			}
			n := 0
			for _, pf := range lib.Parsed {
				if !offered[pf.AST] {
					n++
				}
			}
			*parses = append(*parses, n)
		}
		return lib, err
	}
	return parses
}

// seedsOf wraps s's extract seam so that each extraction appends the
// previous revision it was seeded from (nil for none).
func seedsOf(s *Store) *[]*oracle.Library {
	seeds := new([]*oracle.Library)
	extract := s.extract
	s.extract = func(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (*oracle.Library, *oracle.IncrementalStats, error) {
		*seeds = append(*seeds, prev)
		return extract(ctx, b, lib, prev)
	}
	return seeds
}

// record returns name's revision record.
func (s *Store) record(name string) (revision, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revisions.peek(name)
}

// A chain of edits PUT through one long-lived store, which parses and
// seeds through its revision records, writes exactly what a store
// reopened before every PUT writes, which seeds from disk: the same
// blobs, sidecars and results, and every blob is a cold export.
func TestUpdateChainMatchesReopenedStore(t *testing.T) {
	base := gen.Generate(gen.Small()).Sources["jdk"]
	ctx := context.Background()
	for _, seed := range []int64{1, 7919} {
		chain := editChain(t, base, seed, 25)
		live := openTestStore(t, t.TempDir())
		parses := countParses(live)
		reopenedDir := t.TempDir()
		oneFile := 0
		for i, src := range chain {
			got, err := live.Update(ctx, "jdk", src, OptionsWire{})
			if err != nil {
				t.Fatal(err)
			}
			reopened := openTestStore(t, reopenedDir)
			want, err := reopened.Update(ctx, "jdk", src, OptionsWire{})
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want || got.Incremental != (i > 0) {
				t.Fatalf("seed %d revision %d: live store %+v, reopened store %+v", seed, i, got, want)
			}
			for _, path := range []func(string) string{live.policyPath, live.depsPath} {
				a, errA := os.ReadFile(path(got.Fingerprint))
				b, errB := os.ReadFile(strings.Replace(path(got.Fingerprint), live.dir, reopenedDir, 1))
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Fatalf("seed %d revision %d: %s differs between the stores (%v, %v)", seed, i, path(got.Fingerprint), errA, errB)
				}
			}
			blob, err := os.ReadFile(live.policyPath(got.Fingerprint))
			if err != nil || !bytes.Equal(blob, coldExport(t, "jdk", src)) {
				t.Fatalf("seed %d revision %d: blob differs from a cold export (%v)", seed, i, err)
			}
			want1 := len(src)
			if i > 0 {
				want1 = changedFiles(chain[i-1], src)
			}
			if last := (*parses)[len(*parses)-1]; last != want1 {
				t.Errorf("seed %d revision %d: parsed %d files, want the %d changed", seed, i, last, want1)
			}
			if i > 0 && want1 == 1 {
				oneFile++
			}
		}
		if oneFile == 0 {
			t.Errorf("seed %d: no revision changed exactly one file", seed)
		}
	}
}

// A revision whose changed file does not parse is rejected with a cold
// load's error and writes nothing, and it leaves the record as it was:
// the next good revision still parses only its changed files and seeds
// from the record.
func TestUpdateParseErrorKeepsTheRecord(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	parses, seeds := countParses(s), seedsOf(s)
	ctx := context.Background()
	chain := editChain(t, gen.Generate(gen.Small()).Sources["jdk"], 1, 1)
	if _, err := s.Update(ctx, "jdk", chain[0], OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	rec, ok := s.record("jdk")
	if !ok || rec.seed == nil {
		t.Fatal("a PUT kept no record")
	}

	bad := maps.Clone(chain[1])
	for path, src := range bad {
		if chain[0][path] != src {
			bad[path] = src + "\nclass {"
		}
	}
	_, coldErr := oracle.LoadLibrary("jdk", bad)
	before := storeFiles(t, s.dir)
	_, err := s.Update(ctx, "jdk", bad, OptionsWire{})
	if !errors.Is(err, ErrInvalid) || coldErr == nil || !strings.HasSuffix(err.Error(), coldErr.Error()) {
		t.Fatalf("broken revision: err = %v, want ErrInvalid with a cold load's error %v", err, coldErr)
	}
	if after := storeFiles(t, s.dir); !maps.Equal(before, after) {
		t.Error("rejecting a broken revision changed the store's files")
	}
	if after, _ := s.record("jdk"); after.fp != rec.fp || after.seed != rec.seed {
		t.Error("rejecting a broken revision changed the record")
	}

	*parses, *seeds = nil, nil
	res, err := s.Update(ctx, "jdk", chain[1], OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if want := changedFiles(chain[0], chain[1]); len(*parses) != 1 || (*parses)[0] != want {
		t.Errorf("the next good revision parsed %v files, want %d", *parses, want)
	}
	if len(*seeds) != 1 || (*seeds)[0] != rec.seed || !res.Incremental {
		t.Errorf("the next good revision (%+v) was not seeded from the record", res)
	}
}

// The record seeds only the revision the name index points at. A Put of
// the name between two PUTs moves the index, so the next PUT seeds from
// disk; the record still spares it the parse of unchanged files.
func TestUpdateAfterPutSeedsFromDisk(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	parses, seeds := countParses(s), seedsOf(s)
	ctx := context.Background()
	chain := editChain(t, gen.Generate(gen.Small()).Sources["jdk"], 7919, 2)
	if _, err := s.Update(ctx, "jdk", chain[0], OptionsWire{}); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.record("jdk")
	fp, _, err := s.Put("jdk", chain[1], OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Policies(fp); err != nil {
		t.Fatal(err)
	}
	*parses, *seeds = nil, nil
	res, err := s.Update(ctx, "jdk", chain[2], OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if len(*seeds) != 1 || (*seeds)[0] == nil || (*seeds)[0] == rec.seed || !res.Incremental {
		t.Errorf("PUT after a Put moved the index: %+v, seeded from the record: %v; want a disk seed", res, len(*seeds) == 1 && (*seeds)[0] == rec.seed)
	}
	if want := changedFiles(chain[0], chain[2]); len(*parses) != 1 || (*parses)[0] != want {
		t.Errorf("parsed %v files, want the %d that differ from the record's revision", *parses, want)
	}
	blob, err := s.Policies(res.Fingerprint)
	if err != nil || !bytes.Equal(blob, coldExport(t, "jdk", chain[2])) {
		t.Errorf("blob differs from a cold export (%v)", err)
	}
}

// Records are bounded like blobs: at most CacheEntries names, the least
// recently updated evicted first, and none when the cache is disabled.
func TestRevisionRecordsBounded(t *testing.T) {
	ctx := context.Background()
	s, err := Open(Config{Dir: t.TempDir(), Parallel: 1, CacheEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "a", "c"} {
		if _, err := s.Update(ctx, name, testSources(), OptionsWire{}); err != nil {
			t.Fatal(err)
		}
	}
	_, hasA := s.record("a")
	_, hasB := s.record("b")
	_, hasC := s.record("c")
	if !hasA || hasB || !hasC || s.revisions.len() != 2 {
		t.Errorf("records after updating a, b, a, c with room for two: a=%v b=%v c=%v", hasA, hasB, hasC)
	}

	off, err := Open(Config{Dir: t.TempDir(), Parallel: 1, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	parses, seeds := countParses(off), seedsOf(off)
	for _, src := range []map[string]string{testSources(), v2Sources()} {
		if _, err := off.Update(ctx, "a", src, OptionsWire{}); err != nil {
			t.Fatal(err)
		}
	}
	if off.revisions.len() != 0 {
		t.Errorf("%d records kept with the cache disabled", off.revisions.len())
	}
	if len(*parses) != 2 || (*parses)[1] != len(v2Sources()) || len(*seeds) != 2 || (*seeds)[1] == nil {
		t.Errorf("with records off the second PUT parsed %v files and was seeded by %v; want every file and a disk seed", *parses, *seeds)
	}
}

// Concurrent PUTs, of two names and of one name, each write a cold
// export, and every name's record ends at its index's revision.
func TestConcurrentUpdatesKeepRecords(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	ctx := context.Background()
	chain := editChain(t, gen.Generate(gen.Small()).Sources["jdk"], 1, 3)
	type put struct {
		name string
		src  map[string]string
		res  *UpdateResult
		err  error
	}
	var puts []*put
	var wg sync.WaitGroup
	for w, name := range []string{"a", "b", "c", "c"} {
		mine := make([]*put, 0, len(chain))
		for i := range chain {
			// The two writers of c send their revisions in opposite orders.
			src := chain[i]
			if w == 3 {
				src = chain[len(chain)-1-i]
			}
			mine = append(mine, &put{name: name, src: src})
		}
		puts = append(puts, mine...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range mine {
				p.res, p.err = s.Update(ctx, p.name, p.src, OptionsWire{})
			}
		}()
	}
	wg.Wait()
	colds := map[string][]byte{}
	for _, p := range puts {
		if p.err != nil {
			t.Fatal(p.err)
		}
		key := oracle.Fingerprint(p.name, p.src, oracle.DefaultOptions())
		if colds[key] == nil {
			colds[key] = coldExport(t, p.name, p.src)
		}
		if blob, err := s.Policies(p.res.Fingerprint); err != nil || !bytes.Equal(blob, colds[key]) {
			t.Errorf("%s: blob of %s differs from a cold export (%v)", p.name, p.res.Fingerprint, err)
		}
	}
	for name, fp := range s.Names() {
		if rec, ok := s.record(name); !ok || rec.fp != fp {
			t.Errorf("%s: record at %q, index at %s", name, rec.fp, fp)
		}
	}
}

// Bundles and the name index are written without reflection;
// json.MarshalIndent stays the reference, over every library of both
// corpora and every option field.
func TestBundleAndNamesMatchMarshalIndent(t *testing.T) {
	depth := 3
	options := []OptionsWire{{}, {Domain: "cryptoapi", Events: "broad", NoICP: true, NoAssumeSM: true, MaxDepth: &depth, Modes: []string{"must", "may"}}}
	names := map[string]string{}
	for _, p := range []gen.Params{gen.Small(), gen.CryptoSmall()} {
		c := gen.Generate(p)
		for name, src := range c.Sources {
			for _, w := range options {
				b := &Bundle{Fingerprint: "po1-" + name, Name: name + "<&>", Options: w, Sources: src}
				want, err := json.MarshalIndent(b, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b.encode(), want) {
					t.Errorf("%s %+v: bundle differs from json.MarshalIndent", name, w)
				}
			}
			names[name+c.Domain] = "po1-" + name
		}
	}
	for _, m := range []map[string]string{{}, names} {
		want, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeNames(m); !bytes.Equal(got, want) {
			t.Errorf("name index %v: %s, want %s", m, got, want)
		}
	}
}
