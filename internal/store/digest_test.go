package store

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
)

// flipRead0 flips one bit of a test-library blob: "read0 becomes "read1
// in the get entry's event key. The result still decodes, so only the
// digest tells it from the extraction.
func flipRead0(t *testing.T, blob []byte) []byte {
	t.Helper()
	flipped := bytes.Replace(blob, []byte(`"read0`), []byte(`"read1`), 1)
	if bytes.Equal(flipped, blob) {
		t.Fatal(`blob has no "read0 event key`)
	}
	if _, err := policy.ImportJSON(flipped); err != nil {
		t.Fatalf("flipped blob no longer decodes: %v", err)
	}
	return flipped
}

// exportBytes is what `polora export` writes for the test library's
// sources: an in-process extraction's ExportJSON.
func exportBytes(t *testing.T, sources map[string]string) []byte {
	t.Helper()
	lib, err := oracle.LoadLibrary("a", sources)
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

// An incremental update copies the policy of every entry it does not
// re-analyze from the previous revision's blob. A corrupted previous blob
// that still decodes must therefore not seed: the update runs a full
// extraction, and its blob is the one a cold extraction writes.
func TestCorruptSeedIsNotSpliced(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	ctx := context.Background()
	res1, err := s.Update(ctx, "a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	path := s.policyPath(res1.Fingerprint)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipRead0(t, blob), 0o644); err != nil {
		t.Fatal(err)
	}
	// A new process, whose summary cache is cold: only the seed could
	// splice entries.
	s = openTestStore(t, dir)
	res2, err := s.Update(ctx, "a", v2Sources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Incremental || res2.Reanalyzed != res2.Entries {
		t.Errorf("update over a corrupted previous blob: %+v, want a full extraction", res2)
	}
	got, err := os.ReadFile(s.policyPath(res2.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if want := exportBytes(t, v2Sources()); !bytes.Equal(got, want) {
		t.Errorf("blob seeded from a corrupted revision differs from a cold extraction:\n%s\nvs\n%s", got, want)
	}
	if st := s.Stats(); st.CorruptBlobs != 1 {
		t.Errorf("CorruptBlobs = %d, want 1", st.CorruptBlobs)
	}
}

// The bit-flip sweep: all eight bits of every 97th byte of a gen.Small
// jdk blob. A decode accepts about a quarter of these mutants; the digest
// must reject every one, and without decoding any.
func TestDigestRejectsEveryBitFlip(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	fp, _, err := s.Put("jdk", gen.Generate(gen.Small()).Sources["jdk"], OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.readBlob(fp); !ok {
		t.Fatal("the unmodified blob failed its check")
	}
	// Each mutant flips its bit in place on disk, as bit rot would.
	f, err := os.OpenFile(s.policyPath(fp), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	poke := func(i int, b byte) {
		t.Helper()
		if _, err := f.WriteAt([]byte{b}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for i := 0; i < len(blob); i += 97 {
		for bit := 0; bit < 8; bit++ {
			poke(i, blob[i]^1<<bit)
			if _, ok := s.readBlob(fp); ok {
				t.Fatalf("byte %d bit %d: flipped blob passed the disk-read check", i, bit)
			}
			n++
		}
		poke(i, blob[i])
	}
	if st := s.Stats(); st.CorruptBlobs != uint64(n) || st.Decodes != 0 {
		t.Errorf("%d mutants: CorruptBlobs = %d, Decodes = %d; want %d, 0", n, st.CorruptBlobs, st.Decodes, n)
	}
	t.Logf("%d mutants of a %d-byte blob, all rejected", n, len(blob))
}

// Each state a torn write, a crash between the digest write and the blob
// write, or bit rot can leave reopens to a served blob that is what
// `polora export` writes: a verified one, or a re-extracted one.
func TestDigestCrashWindows(t *testing.T) {
	want := exportBytes(t, testSources())
	cases := []struct {
		name string
		// damage changes the store's files for fp.
		damage func(t *testing.T, s *Store, fp string)
		// want is the reopened store's counters after one read.
		diskHits, misses, corrupt, decodes uint64
	}{
		{"intact", func(*testing.T, *Store, string) {}, 1, 0, 0, 0},
		{"flipped blob", func(t *testing.T, s *Store, fp string) {
			blob, err := os.ReadFile(s.policyPath(fp))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.policyPath(fp), flipRead0(t, blob), 0o644); err != nil {
				t.Fatal(err)
			}
		}, 0, 1, 1, 0},
		{"digest without blob", func(t *testing.T, s *Store, fp string) {
			if err := os.Remove(s.policyPath(fp)); err != nil {
				t.Fatal(err)
			}
		}, 0, 1, 0, 0},
		{"blob without digest", func(t *testing.T, s *Store, fp string) {
			if err := os.Remove(s.digestPath(fp)); err != nil {
				t.Fatal(err)
			}
		}, 0, 1, 0, 0},
		{"truncated digest", func(t *testing.T, s *Store, fp string) {
			line, err := os.ReadFile(s.digestPath(fp))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.digestPath(fp), line[:len(line)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}, 0, 1, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir)
			fp, _, err := s.Put("a", testSources(), OptionsWire{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Policies(fp); err != nil {
				t.Fatal(err)
			}
			c.damage(t, s, fp)
			s = openTestStore(t, dir)
			got, err := s.Policies(fp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("served blob differs from polora export's bytes")
			}
			st := s.Stats()
			if st.DiskHits != c.diskHits || st.Misses != c.misses || st.Extractions != c.misses ||
				st.CorruptBlobs != c.corrupt || st.Decodes != c.decodes {
				t.Errorf("after one read: %+v, want diskHits=%d misses=extractions=%d corruptBlobs=%d decodes=%d",
					st, c.diskHits, c.misses, c.corrupt, c.decodes)
			}
			// A re-extraction healed the blob and its digest: the next
			// process reads it back verified.
			if c.misses > 0 {
				healed := openTestStore(t, dir)
				if _, err := healed.Policies(fp); err != nil {
					t.Fatal(err)
				}
				if st := healed.Stats(); st.DiskHits != 1 || st.Decodes != 0 {
					t.Errorf("after healing: %+v, want one verified disk hit", st)
				}
			}
		})
	}
}

// A blob with no digest file beside it counts as absent. It never seeds an
// incremental update, and a read re-extracts it from its bundle and
// persists it with its digest, counted as a miss, not as corrupt: nothing
// unverified is served. A reopened store then reads it as a verified disk
// hit that decodes nothing.
func TestUndigestedBlobNeverSeeds(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	ctx := context.Background()
	res1, err := s.Update(ctx, "a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	fp := res1.Fingerprint
	want, err := os.ReadFile(s.policyPath(fp))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.digestPath(fp)); err != nil {
		t.Fatal(err)
	}

	s = openTestStore(t, dir)
	res2, err := s.Update(ctx, "a", v2Sources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Incremental {
		t.Errorf("a digest-less blob seeded an update: %+v", res2)
	}
	before := s.Stats()
	got, err := s.Policies(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the re-extracted blob differs from the one first persisted")
	}
	st := s.Stats()
	if st.Misses-before.Misses != 1 || st.Extractions-before.Extractions != 1 ||
		st.DiskHits != 0 || st.Decodes != 0 || st.CorruptBlobs != 0 {
		t.Errorf("read of a digest-less blob: %+v, want one miss re-extracted, no disk hit, decode or corruption", st)
	}
	if _, err := os.Stat(s.digestPath(fp)); err != nil {
		t.Errorf("the re-extracted blob was not persisted with its digest: %v", err)
	}

	s = openTestStore(t, dir)
	if got, err = s.Policies(fp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the reopened store serves other bytes")
	}
	if st := s.Stats(); st.DiskHits != 1 || st.Misses != 0 || st.Decodes != 0 || st.Extractions != 0 {
		t.Errorf("reopened read: %+v, want one verified disk hit and no decode", st)
	}
}

// A sidecar is verified against its digest like a blob: all eight bits of
// every 5th byte of the test library's sidecar are flipped in turn, and
// each mutant must fail the check, so the next revision's extraction runs
// in full and its blob is the cold extraction's.
func TestSidecarBitFlipsNeverChangeTheBlob(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	ctx := context.Background()
	res1, err := s.Update(ctx, "a", testSources(), OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	sidePath := s.depsPath(res1.Fingerprint)
	side, err := os.ReadFile(sidePath)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := OptionsWire{}.ToOracle()
	if err != nil {
		t.Fatal(err)
	}
	next := &Bundle{
		Fingerprint: oracle.Fingerprint("a", v2Sources(), opts),
		Name:        "a",
		Sources:     v2Sources(),
	}
	want := exportBytes(t, v2Sources())
	mutant := bytes.Clone(side)
	n := 0
	for i := 0; i < len(mutant); i += 5 {
		for bit := 0; bit < 8; bit++ {
			mutant[i] ^= 1 << bit
			if err := os.WriteFile(sidePath, mutant, 0o644); err != nil {
				t.Fatal(err)
			}
			prev := s.loadIncrementalSeed(res1.Fingerprint)
			s.sums = oracle.NewSummaryCache(0) // only the seed may splice
			lib, st, err := s.extract(ctx, next, nil, prev)
			if err != nil {
				t.Fatalf("byte %d bit %d: %v", i, bit, err)
			}
			got, err := lib.Policies.ExportJSON()
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil || !st.Full || !bytes.Equal(got, want) {
				t.Fatalf("byte %d bit %d (%q): seeded=%v full=%v, blob equals the cold extraction's: %v; want a full extraction and the cold blob",
					i, bit, side[max(0, i-20):min(len(side), i+20)], prev != nil, st.Full, bytes.Equal(got, want))
			}
			mutant[i] ^= 1 << bit
			n++
		}
	}
	// The unmodified sidecar still seeds.
	if err := os.WriteFile(sidePath, side, 0o644); err != nil {
		t.Fatal(err)
	}
	if s.loadIncrementalSeed(res1.Fingerprint) == nil {
		t.Fatal("the unmodified sidecar does not seed")
	}
	t.Logf("%d sidecar mutants, every one rejected", n)
}

// helperMJ's get reaches its checkRead through helper0 and calls helper1
// too: two package-private helpers whose names are one bit apart.
const helperMJ = `
package api;
import java.lang.*;
public class Store {
  private SecurityManager sm;
  public void put(String key) {
    sm.checkWrite(key);
    write0(key);
  }
  public String get(String key) {
    helper1(key);
    return helper0(key);
  }
  String helper0(String key) {
    sm.checkRead(key);
    return read0(key);
  }
  void helper1(String key) { }
  native void write0(String key);
  native String read0(String key);
}
`

// A one-bit flip in a sidecar can turn an entry's dependency into another
// method's name. Flipping helper0 to helper1 in get's dependencies unpins
// get from helper0, so a revision whose helper0 drops its checkRead would
// splice get's stale policy, check and all, into the new blob: the stored
// policy would hide the dropped check. The flipped sidecar must fail its
// digest check, and the update must write the cold extraction's blob.
func TestFlippedSidecarDependencyNeverSeeds(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	ctx := context.Background()
	v1 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": helperMJ}
	v2 := map[string]string{"rt.mj": runtimeMJ, "lib.mj": strings.Replace(helperMJ,
		"    sm.checkRead(key);\n    return read0(key);", "    return read0(key);", 1)}
	if v2["lib.mj"] == helperMJ {
		t.Fatal("v2 did not drop helper0's check")
	}
	res1, err := s.Update(ctx, "a", v1, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	sidePath := s.depsPath(res1.Fingerprint)
	side, err := os.ReadFile(sidePath)
	if err != nil {
		t.Fatal(err)
	}
	deps := bytes.Index(side, []byte(`"api.Store.get(String)": [`))
	dep := bytes.Index(side[max(deps, 0):], []byte(`"api.Store.helper0(String)"`))
	if deps < 0 || dep < 0 {
		t.Fatalf("sidecar lists no helper0 among get's dependencies:\n%s", side)
	}
	side[deps+dep+len(`"api.Store.helper`)] ^= 1 // helper0 -> helper1
	if err := os.WriteFile(sidePath, side, 0o644); err != nil {
		t.Fatal(err)
	}
	// A new process, whose summary cache is cold: only the seed could
	// splice entries.
	s = openTestStore(t, dir)
	res2, err := s.Update(ctx, "a", v2, OptionsWire{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.policyPath(res2.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if want := exportBytes(t, v2); !bytes.Equal(got, want) {
		t.Errorf("update %+v over a flipped sidecar wrote a blob that differs from a cold extraction:\n%s\nvs\n%s", res2, got, want)
	}
	if res2.Incremental || res2.Reanalyzed != res2.Entries {
		t.Errorf("update over a flipped sidecar: %+v, want a full extraction", res2)
	}
}
