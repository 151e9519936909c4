package oracle

import (
	"sync"

	"policyoracle/internal/policy"
)

// SummaryCache is a cache of per-entry extraction results and the one
// rule that decides when a result may be reused: an entry-point policy
// depends only on the extraction options and the IR of the methods its
// analysis visited, so when a target library presents an entry whose
// entire dependency cone hashes identically to a cached extraction, the
// cached policy is byte-identical to what a fresh analysis would produce
// and can be spliced in without running the analyzer.
//
// Extraction asks two caches in turn: the private seed
// ExtractIncremental fills with exactly the previous revision's entries,
// then the process-wide, cross-library Options.Summaries. Forks and
// vendored copies of one API implementation share most method bodies
// verbatim, which is exactly the situation the paper's
// multi-implementation oracle creates: every library of a comparison is
// loaded into one process and extracted under one option set.
//
// A SummaryCache is safe for concurrent use and is opt-in: a nil
// *SummaryCache disables caching (DefaultOptions leaves it nil).
type SummaryCache struct {
	mu      sync.RWMutex
	entries map[cacheKey]*cachedEntry
	cap     int
	hits    uint64
	misses  uint64
}

// cacheKey identifies one cached entry extraction: the canonical option
// key (same notion as Library.ExtractedOpts) and the entry signature.
type cacheKey struct {
	opts string
	sig  string
}

// depPin records the IR content hash one dependency had when the entry
// was analyzed. A cached entry is valid for a target library iff every
// pin matches the target's own method hashes.
type depPin struct {
	sig  string
	hash string
}

// cachedEntry is one cached per-entry result. The EntryPolicy is shared
// by every library the entry is spliced into and must never be mutated —
// the same immutability contract incremental extraction relies on when
// splicing policies across library versions.
type cachedEntry struct {
	pins []depPin
	deps []string
	ep   *policy.EntryPolicy
}

// DefaultSummaryCacheCap bounds the number of cached entries. The bound
// exists to keep long-running daemons from growing without limit;
// typical comparisons hold a few thousand entries.
const DefaultSummaryCacheCap = 16384

// NewSummaryCache returns an empty cache. maxEntries <= 0 uses
// DefaultSummaryCacheCap.
func NewSummaryCache(maxEntries int) *SummaryCache {
	if maxEntries <= 0 {
		maxEntries = DefaultSummaryCacheCap
	}
	return &SummaryCache{
		entries: make(map[cacheKey]*cachedEntry),
		cap:     maxEntries,
	}
}

// seedFrom returns a private cache holding exactly prev's entries under
// the option key, pinned to hashes, the method hashes prev was extracted
// under, and sized so that seeding never flushes it. Private, because a
// shared cache could flush the previous revision in the middle of an
// update.
func seedFrom(prev *Library, hashes map[string]string, key string) *SummaryCache {
	c := NewSummaryCache(len(prev.Policies.Entries))
	for sig, ep := range prev.Policies.Entries {
		c.insert(key, sig, prev.EntryDeps[sig], hashes, ep)
	}
	return c
}

// lookup returns the cached policy and dependency list for (optsKey, sig)
// when every dependency pin matches hashes, the target library's own
// method-hash table.
func (c *SummaryCache) lookup(optsKey, sig string, hashes map[string]string) (*policy.EntryPolicy, []string, bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.RLock()
	e := c.entries[cacheKey{opts: optsKey, sig: sig}]
	c.mu.RUnlock()
	if e != nil {
		valid := true
		for _, p := range e.pins {
			if h, ok := hashes[p.sig]; !ok || h != p.hash {
				valid = false
				break
			}
		}
		if valid {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return e.ep, e.deps, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, nil, false
}

// insert stores one extracted entry, pinning the hash of every
// dependency. When the cache is full it is flushed wholesale: entries
// invalidate together (a new library version changes many hashes at
// once), so coarse eviction keeps the bookkeeping off the extraction
// path.
func (c *SummaryCache) insert(optsKey, sig string, deps []string, hashes map[string]string, ep *policy.EntryPolicy) {
	if c == nil || len(deps) == 0 {
		// An entry with no recorded dependencies (a snapshot can lack
		// them) has nothing to validate against; never splice it.
		return
	}
	pins := make([]depPin, 0, len(deps))
	for _, d := range deps {
		h, ok := hashes[d]
		if !ok {
			// A dependency without a hash (should not happen) can never
			// be validated; don't cache rather than risk unsound reuse.
			return
		}
		pins = append(pins, depPin{sig: d, hash: h})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.cap {
		c.entries = make(map[cacheKey]*cachedEntry)
	}
	c.entries[cacheKey{opts: optsKey, sig: sig}] = &cachedEntry{pins: pins, deps: deps, ep: ep}
}

// Len returns the number of cached entries.
func (c *SummaryCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Stats returns the cumulative hit and miss counts.
func (c *SummaryCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}
