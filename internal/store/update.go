package store

import (
	"context"
	"errors"
	"os"
	"sync"

	"policyoracle/internal/oracle"
)

// ErrInvalid marks request-validation failures (empty name or sources,
// unknown options, a bundle that does not load) so the server can map
// them to 400s without string matching.
var ErrInvalid = errors.New("invalid request")

// UpdateResult describes one delta-aware library update.
type UpdateResult struct {
	Fingerprint string `json:"fingerprint"`
	// Created is false when the exact bundle content was already stored.
	Created bool `json:"created"`
	// Incremental is true when the library's previous extraction seeded
	// this one. Entries counts its entry points either way; Reanalyzed of
	// them went through the analyzers, and the other Reused = Entries -
	// Reanalyzed were spliced, from the previous revision or from another
	// library already extracted in this process. An already-extracted
	// bundle reports all entries as reused.
	Incremental bool `json:"incremental"`
	Entries     int  `json:"entries"`
	Reused      int  `json:"reused"`
	Reanalyzed  int  `json:"reanalyzed"`
}

// Update is the delta-aware counterpart of Put + Policies: it
// fingerprints and persists the new bundle, then extracts its policies
// eagerly, seeding an incremental extraction from the library's previous
// fingerprint — re-analyzing only entry points whose dependency set
// changed. The persisted blob is byte-identical to what a cold Policies
// extraction of the same fingerprint would produce.
//
// Update keeps a revision record of each name's last successful PUT, so
// the next PUT of that name pays for its edit, not for the library: its
// load reuses the parse of every unchanged file, and when the name index
// still points at the record's fingerprint it seeds from the record's
// in-memory extraction. Otherwise — after a restart, an eviction, or a
// Put that moved the index — it seeds from the previous fingerprint's
// persisted blob and sidecar when both verify. Either seed yields the
// same bytes.
func (s *Store) Update(ctx context.Context, name string, sources map[string]string, w OptionsWire) (*UpdateResult, error) {
	// Serialize updates per library name: two concurrent PUTs of one name
	// must not both seed from the same "previous" revision and then race
	// their index writes. Under the lock each update reads the latest
	// index state and the name's record, extracts, and advances the index
	// (and, once it succeeds, the record) before the next one starts, so
	// the index always ends at the last writer's fingerprint.
	s.nameLock(name).Lock()
	defer s.nameLock(name).Unlock()

	prevFP, _ := s.latestFingerprint(name) // before Put moves the index
	s.mu.Lock()
	rec, _ := s.revisions.peek(name)
	s.mu.Unlock()
	fp, created, lib, err := s.put(name, sources, w, rec.parsed)
	if err != nil {
		return nil, err
	}
	res := &UpdateResult{Fingerprint: fp, Created: created}
	if ref, ok := s.readBlob(fp); ok {
		// Content already extracted: nothing to re-analyze, and no
		// extraction in memory to seed the next revision.
		if pp, err := s.decode(ref.blob); err == nil {
			s.mu.Lock()
			s.keepRevision(name, revision{fp: fp, parsed: lib.Parsed})
			s.mu.Unlock()
			res.Entries = len(pp.Entries)
			res.Reused = res.Entries
			return res, nil
		}
	}
	var prev *oracle.Library
	if prevFP != "" && prevFP != fp {
		if prev = rec.seed; prev == nil || rec.fp != prevFP {
			prev = s.loadIncrementalSeed(prevFP)
		}
	}
	b := &Bundle{Fingerprint: fp, Name: name, Options: w, Sources: sources}
	ref, lib, st, err := s.extractAndPersist(ctx, b, lib, prev)
	if err != nil {
		return nil, err
	}
	seed := lib.SeedView()
	s.mu.Lock()
	s.cacheBlob(fp, ref)
	s.keepRevision(name, revision{fp: fp, parsed: lib.Parsed, seed: seed})
	s.mu.Unlock()
	res.Incremental = !st.Full
	res.Entries, res.Reused, res.Reanalyzed = st.Entries, st.Reused, st.Reanalyzed
	return res, nil
}

// revision is Update's record of one library name's last successful PUT:
// its fingerprint, the parse results of its files, and the program-less
// view of its extraction (nil when that PUT found its content already
// extracted). For the 68 KB gen.Small jdk library a record holds 1.22 MB
// live, about 18 bytes per byte of source, the source text included:
// 0.79 MB of parse results and 0.43 MB of seed view. The extracted
// library it is taken from holds 2.37 MB.
type revision struct {
	fp     string
	parsed []oracle.ParsedFile
	seed   *oracle.Library
}

// keepRevision makes rev name's record, evicting the least recently
// updated names' records past the capacity. A disabled cache keeps none.
// Called with s.mu held.
func (s *Store) keepRevision(name string, rev revision) {
	if s.capacity <= 0 {
		return
	}
	s.revisions.put(name, rev, 0)
	for s.revisions.len() > s.capacity {
		s.revisions.evictOldest()
	}
}

// nameLock returns the mutex serializing updates of one library name.
// Locks are never deleted; the map is bounded by the number of distinct
// library names the process has updated.
func (s *Store) nameLock(name string) *sync.Mutex {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	mu, ok := s.updateLocks[name]
	if !ok {
		mu = &sync.Mutex{}
		s.updateLocks[name] = mu
	}
	return mu
}

// loadIncrementalSeed reconstructs the previous extraction (policies +
// hashes + dependency sets) from a fingerprint's persisted blob and
// sidecar. Nil when either is missing or corrupt — the update then falls
// back to a full extraction. Both must verify against their digests: an
// incremental extraction copies the policies of every entry it does not
// re-analyze from the seed blob, and it trusts the sidecar's dependency
// sets to say which entries a change reaches, so a seed that merely
// decodes could carry a stale or corrupted policy into the new revision.
// A blob or sidecar with no digest file never seeds.
func (s *Store) loadIncrementalSeed(prevFP string) *oracle.Library {
	side, err := os.ReadFile(s.depsPath(prevFP))
	if err != nil {
		return nil
	}
	if _, err := verify(side, s.depsDigestPath(prevFP)); err != nil {
		s.log.Warn("store: unverified incremental sidecar", "fingerprint", prevFP, "err", err)
		return nil
	}
	snap, err := oracle.DecodeSnapshot(side)
	if err != nil {
		s.log.Warn("store: corrupt incremental sidecar", "fingerprint", prevFP, "err", err)
		return nil
	}
	ref, ok := s.readBlob(prevFP)
	if !ok {
		return nil
	}
	snap.Policies = ref.blob
	lib, err := snap.ToLibrary()
	if err != nil {
		s.log.Warn("store: incremental seed unusable", "fingerprint", prevFP, "err", err)
		return nil
	}
	return lib
}
