package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
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
	// this one; Entries/Reused/Reanalyzed count its entry points either
	// way (an already-extracted bundle reports all entries as reused).
	Incremental bool `json:"incremental"`
	Entries     int  `json:"entries"`
	Reused      int  `json:"reused"`
	Reanalyzed  int  `json:"reanalyzed"`
}

// Update is the delta-aware counterpart of Put + Policies: it
// fingerprints and persists the new bundle, then extracts its policies
// eagerly, seeding an incremental extraction from the library's previous
// fingerprint when its policy blob and incremental sidecar are available
// — re-analyzing only entry points whose dependency set changed. The
// persisted blob is byte-identical to what a cold Policies extraction of
// the same fingerprint would produce.
func (s *Store) Update(ctx context.Context, name string, sources map[string]string, w OptionsWire) (*UpdateResult, error) {
	// Serialize updates per library name: two concurrent PUTs of one name
	// must not both seed from the same "previous" revision and then race
	// their index writes. Under the lock each update reads the latest
	// index state, extracts, and advances the index before the next one
	// starts, so the index always ends at the last writer's fingerprint.
	s.nameLock(name).Lock()
	defer s.nameLock(name).Unlock()

	prevFP, _ := s.latestFingerprint(name) // before Put moves the index
	fp, created, err := s.Put(name, sources, w)
	if err != nil {
		return nil, err
	}
	res := &UpdateResult{Fingerprint: fp, Created: created}
	if blob, err := os.ReadFile(s.policyPath(fp)); err == nil {
		if pp, err := policy.ImportJSON(blob); err == nil {
			// Content already extracted: nothing to re-analyze.
			res.Entries = len(pp.Entries)
			res.Reused = res.Entries
			return res, nil
		}
	}
	var prev *oracle.Library
	if prevFP != "" && prevFP != fp {
		prev = s.loadIncrementalSeed(prevFP)
	}
	if err := s.extractUpdate(ctx, fp, name, sources, w, prev, res); err != nil {
		return nil, err
	}
	return res, nil
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
// back to a full extraction.
func (s *Store) loadIncrementalSeed(prevFP string) *oracle.Library {
	side, err := os.ReadFile(s.depsPath(prevFP))
	if err != nil {
		return nil
	}
	snap, err := oracle.DecodeSnapshot(side)
	if err != nil {
		s.log.Warn("store: corrupt incremental sidecar", "fingerprint", prevFP, "err", err)
		return nil
	}
	blob, err := os.ReadFile(s.policyPath(prevFP))
	if err != nil {
		return nil
	}
	snap.Policies = blob
	lib, err := snap.ToLibrary()
	if err != nil {
		s.log.Warn("store: incremental seed unusable", "fingerprint", prevFP, "err", err)
		return nil
	}
	return lib
}

// extractUpdate extracts fp's policies under the extraction semaphore,
// incrementally from prev when possible, and persists blob + sidecar.
func (s *Store) extractUpdate(ctx context.Context, fp, name string, sources map[string]string, w OptionsWire, prev *oracle.Library, res *UpdateResult) error {
	opts, err := w.ToOracle()
	if err != nil {
		return fmt.Errorf("store: %w: %w", ErrInvalid, err)
	}
	opts.Parallel = s.parallel
	opts.Telemetry = s.xm
	opts.Summaries = s.sums
	// Same reasoning as extractBundle: the store serves wire-format bytes
	// and seeds from wire-format snapshots, so display data is never
	// collected server-side (and must not be, or the option keys would
	// never match the sidecar's).
	opts.CollectPaths, opts.CollectGuards = false, false

	queued := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.tm.QueueWait.ObserveDuration(time.Since(queued))
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.sem }()
	if err := ctx.Err(); err != nil {
		return err
	}
	s.extractions.Add(1)
	s.tm.Extractions.Inc()
	s.log.Info("store: update extraction start", "fingerprint", fp, "library", name,
		"incremental", prev != nil)
	start := time.Now()
	var lib *oracle.Library
	if prev != nil {
		var st *oracle.IncrementalStats
		lib, st, err = oracle.ExtractIncrementalContext(ctx, prev, sources, opts)
		if err == nil {
			res.Incremental = !st.Full
			res.Entries, res.Reused, res.Reanalyzed = st.Entries, st.Reused, st.Reanalyzed
		}
	} else {
		lib, err = oracle.LoadLibrary(name, sources)
		if err == nil {
			err = lib.ExtractContext(ctx, opts)
		}
		if err == nil {
			res.Entries = len(lib.Policies.Entries)
			res.Reanalyzed = res.Entries
		}
	}
	elapsed := time.Since(start)
	s.tm.ExtractDuration.ObserveDuration(elapsed)
	if err != nil {
		s.tm.ExtractFailures.Inc()
		s.log.Warn("store: update extraction failed", "fingerprint", fp, "library", name,
			"duration", elapsed, "err", err)
		return fmt.Errorf("store: bundle %s: %w", fp, err)
	}
	blob, err := lib.Policies.ExportJSON()
	if err != nil {
		return fmt.Errorf("store: bundle %s: %w", fp, err)
	}
	if err := WriteAtomic(s.policyPath(fp), blob); err != nil {
		return fmt.Errorf("store: persisting policies: %w", err)
	}
	s.writeIncrementalState(lib, fp)
	s.mu.Lock()
	s.noteEvictions(s.cache.add(fp, blob))
	s.mu.Unlock()
	s.log.Info("store: update extraction done", "fingerprint", fp, "library", name,
		"duration", elapsed, "entries", res.Entries, "reused", res.Reused,
		"reanalyzed", res.Reanalyzed)
	return nil
}
