// Package store is polorad's content-addressed policy store. A library
// bundle (name + MJ sources + semantic extraction options) is addressed
// by its oracle.Fingerprint; the policy set extracted from it persists as
// a policy-wire-format JSON blob (the same bytes `polora export` writes)
// under the store directory, with an in-memory LRU in front and
// single-flight deduplication so concurrent requests for one fingerprint
// extract at most once.
//
// Layout under the store directory:
//
//	bundles/<fingerprint>.json    uploaded bundle (name, options, sources)
//	policies/<fingerprint>.json   extracted policies, policy wire format
//	deps/<fingerprint>.json       incremental sidecar (oracle.Snapshot sans
//	                              policies): method hashes + entry deps
//	names.json                    library name → latest fingerprint
//
// The sidecar and name index power delta-aware updates (Update): a new
// bundle for a known library seeds an incremental extraction from the
// previous fingerprint's policies and sidecar, re-analyzing only entry
// points whose dependency set changed. The sidecar is best-effort —
// losing it costs a full extraction, never correctness. The name index
// is not: the reconcile controller treats it as the registry of watched
// libraries, so writes go through fsync + atomic rename, index-write
// failures are returned to the caller, and a corrupt index is rebuilt
// from the bundles directory instead of being discarded.
//
// Blobs read back from disk are validated by re-importing them; a
// corrupted blob is discarded and re-extracted from its bundle, so the
// store self-heals from partial writes or bit rot.
//
// Reads take a context: a caller that goes away (client disconnect,
// server drain) stops waiting immediately, and when the last waiter on
// an in-flight extraction leaves, the extraction itself is cancelled.
package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"policyoracle/internal/diff"
	"policyoracle/internal/oracle"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/telemetry"
)

// ErrNotFound reports a fingerprint with no uploaded bundle.
var ErrNotFound = errors.New("store: no bundle with this fingerprint")

// ErrMalformed reports an address that is not a well-formed fingerprint.
var ErrMalformed = errors.New("store: malformed fingerprint")

// Bundle is the persisted form of an uploaded library.
type Bundle struct {
	Fingerprint string            `json:"fingerprint"`
	Name        string            `json:"name"`
	Options     OptionsWire       `json:"options"`
	Sources     map[string]string `json:"sources"`
}

// Config configures a Store.
type Config struct {
	// Dir is the store directory, created if absent.
	Dir string
	// CacheEntries caps the in-memory blob LRU: 0 means the default of
	// 128, and a negative value disables the in-memory cache entirely
	// (every read is served from disk or extraction).
	CacheEntries int
	// Parallel is the oracle worker count per extraction
	// (oracle.Options.Parallel; <= 0 means GOMAXPROCS).
	Parallel int
	// MaxInflight bounds concurrent extractions across all fingerprints
	// (default 2). Single-flight already collapses same-fingerprint
	// requests; this bounds distinct ones.
	MaxInflight int
	// SummaryCacheEntries caps the cross-library summary cache shared by
	// every extraction this store performs: entry policies whose full
	// dependency cone hashes identically across bundles (forks, vendored
	// copies, re-uploads under new options) are spliced instead of
	// re-analyzed. 0 uses oracle.DefaultSummaryCacheCap; a negative value
	// disables the cache.
	SummaryCacheEntries int
	// Backends are consulted in order on a mem+disk miss, before local
	// extraction: the pluggable remote tiers of a distributed store
	// (peer replicas today; an object store tomorrow). A blob served by
	// a backend is validated and persisted locally, so later reads of
	// the fingerprint are disk hits. Empty means extraction is the only
	// fallback, the single-node behavior.
	Backends []Backend
	// Registry receives the store's and the extractor's metrics. Nil
	// disables instrumentation (the instruments become no-ops).
	Registry *telemetry.Registry
	// Logger receives structured store events (extraction start/finish,
	// corruption, eviction pressure). Nil discards them.
	Logger *slog.Logger
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// MemHits served from the LRU, DiskHits from a validated persisted
	// blob, Misses required extraction.
	MemHits  uint64 `json:"memHits"`
	DiskHits uint64 `json:"diskHits"`
	Misses   uint64 `json:"misses"`
	// Coalesced requests waited on an identical in-flight request
	// instead of doing their own work.
	Coalesced uint64 `json:"coalesced"`
	// Extractions performed (== Misses unless extraction failed early).
	Extractions uint64 `json:"extractions"`
	// CorruptBlobs found on disk and re-extracted.
	CorruptBlobs uint64 `json:"corruptBlobs"`
	// Bundles uploaded (newly created, not re-uploads).
	Bundles uint64 `json:"bundles"`
	// Diffs computed.
	Diffs uint64 `json:"diffs"`
	// Evictions dropped a blob from the in-memory LRU.
	Evictions uint64 `json:"evictions"`
	// BackendHits served a blob from a configured backend (for a peer
	// backend: fetched from another replica instead of extracting).
	BackendHits uint64 `json:"backendHits"`
}

// Store is a content-addressed policy store. It is safe for concurrent
// use.
type Store struct {
	dir      string
	parallel int
	sem      chan struct{} // bounds concurrent extractions
	backends []Backend
	tm       *telemetry.StoreMetrics
	xm       *telemetry.ExtractMetrics
	sums     *oracle.SummaryCache // nil when disabled
	log      *slog.Logger

	mu     sync.Mutex
	cache  *blobLRU
	flight map[string]*flightCall

	// namesMu serializes read-modify-write cycles on names.json; it is
	// separate from mu so index writes never block cache reads.
	namesMu sync.Mutex

	// updateMu guards updateLocks, the per-library-name mutexes that
	// serialize Update so concurrent PUTs of one name cannot interleave
	// their read-previous/extract/advance-index sequences.
	updateMu    sync.Mutex
	updateLocks map[string]*sync.Mutex

	memHits, diskHits, misses, coalesced atomic.Uint64
	extractions, corruptBlobs            atomic.Uint64
	bundles, diffs, evictions            atomic.Uint64
	backendHits                          atomic.Uint64

	// extract produces the policy blob for a bundle; tests may stub it.
	extract func(context.Context, *Bundle) ([]byte, error)
}

// flightCall is one in-flight load-or-extract. Waiters are refcounted:
// each caller waiting on done holds one reference, and when the last
// waiter abandons the call (its context was cancelled), it cancels the
// extraction context so the worker stops too.
type flightCall struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int // guarded by Store.mu
	blob    []byte
	err     error
}

// Open creates (if needed) and opens a store directory.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: empty directory")
	}
	for _, sub := range []string{"bundles", "policies", "deps", "campaigns"} {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 128
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	s := &Store{
		dir:         cfg.Dir,
		parallel:    cfg.Parallel,
		sem:         make(chan struct{}, cfg.MaxInflight),
		backends:    cfg.Backends,
		tm:          telemetry.NewStoreMetrics(cfg.Registry),
		xm:          telemetry.NewExtractMetrics(cfg.Registry),
		log:         cfg.Logger,
		cache:       newBlobLRU(cfg.CacheEntries),
		flight:      make(map[string]*flightCall),
		updateLocks: make(map[string]*sync.Mutex),
	}
	if cfg.SummaryCacheEntries >= 0 {
		s.sums = oracle.NewSummaryCache(cfg.SummaryCacheEntries)
	}
	s.extract = s.extractBundle
	return s, nil
}

func (s *Store) bundlePath(fp string) string {
	return filepath.Join(s.dir, "bundles", fp+".json")
}

func (s *Store) policyPath(fp string) string {
	return filepath.Join(s.dir, "policies", fp+".json")
}

func (s *Store) depsPath(fp string) string {
	return filepath.Join(s.dir, "deps", fp+".json")
}

func (s *Store) namesPath() string {
	return filepath.Join(s.dir, "names.json")
}

// SaveCampaign persists one completed campaign shard result under
// campaigns/<id>.json, so a polorad worker's contribution to a
// distributed campaign survives the process for postmortems. IDs come
// from the server's per-process job counter; the caller guarantees
// they are path-safe.
func (s *Store) SaveCampaign(id string, result []byte) (string, error) {
	p := filepath.Join(s.dir, "campaigns", id+".json")
	// Atomic rename, not a plain write: a crash mid-save must leave
	// either the previous complete result or none, never a truncated
	// JSON document a postmortem reader would choke on.
	if err := WriteAtomic(p, result); err != nil {
		return "", fmt.Errorf("store: saving campaign %s: %w", id, err)
	}
	return p, nil
}

// Put fingerprints and persists a bundle, returning its address. A
// re-upload of existing content is a no-op with created == false.
func (s *Store) Put(name string, sources map[string]string, w OptionsWire) (fp string, created bool, err error) {
	if name == "" {
		return "", false, fmt.Errorf("store: %w: empty library name", ErrInvalid)
	}
	if len(sources) == 0 {
		return "", false, fmt.Errorf("store: %w: empty source bundle", ErrInvalid)
	}
	opts, err := w.ToOracle()
	if err != nil {
		// Double-wrap so callers can match both ErrInvalid and typed
		// option errors like secmodel.ErrUnknownDomain.
		return "", false, fmt.Errorf("store: %w: %w", ErrInvalid, err)
	}
	// Reject bundles that don't load: a broken upload should fail at Put,
	// not poison every later extraction of its fingerprint.
	if _, err := oracle.LoadLibrary(name, sources); err != nil {
		return "", false, fmt.Errorf("store: %w: bundle does not load: %v", ErrInvalid, err)
	}
	fp = oracle.Fingerprint(name, sources, opts)
	path := s.bundlePath(fp)
	if _, err := os.Stat(path); err == nil {
		if err := s.setLatestFingerprint(name, fp); err != nil {
			return "", false, err
		}
		return fp, false, nil
	}
	data, err := json.MarshalIndent(&Bundle{
		Fingerprint: fp, Name: name, Options: w, Sources: sources,
	}, "", "  ")
	if err != nil {
		return "", false, fmt.Errorf("store: %w", err)
	}
	if err := WriteAtomic(path, data); err != nil {
		return "", false, fmt.Errorf("store: %w", err)
	}
	s.bundles.Add(1)
	s.tm.Bundles.Inc()
	if err := s.setLatestFingerprint(name, fp); err != nil {
		return "", false, err
	}
	s.log.Info("store: bundle created", "fingerprint", fp, "library", name, "files", len(sources))
	return fp, true, nil
}

// latestFingerprint returns the most recently uploaded fingerprint for a
// library name, the seed candidate for delta-aware updates.
func (s *Store) latestFingerprint(name string) (string, bool) {
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	fp, ok := s.readNames()[name]
	return fp, ok
}

// Names snapshots the library registry: every uploaded library name
// mapped to its latest fingerprint. This is the source the reconcile
// controller watches, so it never fails soft — a corrupt index is
// rebuilt from the bundles directory before returning.
func (s *Store) Names() map[string]string {
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	names := s.readNames()
	out := make(map[string]string, len(names))
	for n, fp := range names {
		out[n] = fp
	}
	return out
}

// setLatestFingerprint records name → fp in the name index. The index is
// the reconcile controller's registry, so failures surface to the caller
// instead of silently dropping the newest revision.
func (s *Store) setLatestFingerprint(name, fp string) error {
	s.namesMu.Lock()
	defer s.namesMu.Unlock()
	names := s.readNames()
	if names[name] == fp {
		return nil
	}
	names[name] = fp
	data, err := json.MarshalIndent(names, "", "  ")
	if err == nil {
		err = WriteAtomic(s.namesPath(), data)
	}
	if err != nil {
		return fmt.Errorf("store: writing name index: %w", err)
	}
	return nil
}

// readNames loads the name index; callers hold namesMu. A missing file
// is an empty registry; a torn or corrupt file is rebuilt from the
// bundles on disk (latest bundle per name by mtime), so one bad write
// can never erase the registry of every other library.
func (s *Store) readNames() map[string]string {
	names := map[string]string{}
	data, err := os.ReadFile(s.namesPath())
	if errors.Is(err, os.ErrNotExist) {
		return names
	}
	if err == nil {
		err = json.Unmarshal(data, &names)
	}
	if err != nil {
		s.log.Warn("store: name index unreadable, rebuilding from bundles", "err", err)
		return s.rebuildNames()
	}
	return names
}

// rebuildNames reconstructs the name index from the persisted bundles,
// keeping the most recently written bundle per library name. Callers
// hold namesMu.
func (s *Store) rebuildNames() map[string]string {
	names := map[string]string{}
	latest := map[string]time.Time{}
	entries, err := os.ReadDir(filepath.Join(s.dir, "bundles"))
	if err != nil {
		return names
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, "bundles", e.Name()))
		if err != nil {
			continue
		}
		var b Bundle
		if json.Unmarshal(data, &b) != nil || b.Name == "" || !oracle.IsFingerprint(b.Fingerprint) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if t, ok := latest[b.Name]; !ok || info.ModTime().After(t) {
			names[b.Name] = b.Fingerprint
			latest[b.Name] = info.ModTime()
		}
	}
	if len(names) > 0 {
		if data, err := json.MarshalIndent(names, "", "  "); err == nil {
			if err := WriteAtomic(s.namesPath(), data); err != nil {
				s.log.Warn("store: persisting rebuilt name index failed", "err", err)
			}
		}
	}
	s.log.Info("store: name index rebuilt", "libraries", len(names))
	return names
}

// Bundle loads the persisted bundle addressed by fp.
func (s *Store) Bundle(fp string) (*Bundle, error) {
	if !oracle.IsFingerprint(fp) {
		return nil, fmt.Errorf("%w: %q", ErrMalformed, fp)
	}
	data, err := os.ReadFile(s.bundlePath(fp))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, fp)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("store: corrupt bundle %s: %w", fp, err)
	}
	return &b, nil
}

// Policies returns the policy blob for a fingerprint, extracting it from
// the bundle on a cold cache. It is PoliciesContext with a background
// context.
func (s *Store) Policies(fp string) ([]byte, error) {
	return s.PoliciesContext(context.Background(), fp)
}

// PoliciesContext returns the policy blob for a fingerprint, extracting
// it from the bundle on a cold cache. The bytes are exactly what
// policy.ExportJSON produced (and `polora export` writes); callers must
// not mutate them.
//
// If ctx is cancelled while the caller waits, PoliciesContext returns
// ctx.Err() immediately; if the caller was the last one waiting on an
// in-flight extraction, the extraction is cancelled too.
func (s *Store) PoliciesContext(ctx context.Context, fp string) ([]byte, error) {
	if !oracle.IsFingerprint(fp) {
		return nil, fmt.Errorf("%w: %q", ErrMalformed, fp)
	}
	s.mu.Lock()
	if blob, ok := s.cache.get(fp); ok {
		s.mu.Unlock()
		s.memHits.Add(1)
		s.tm.CacheHits.With("mem").Inc()
		return blob, nil
	}
	if c, ok := s.flight[fp]; ok {
		c.waiters++
		s.mu.Unlock()
		s.coalesced.Add(1)
		s.tm.Coalesced.Inc()
		return s.wait(ctx, fp, c)
	}
	// The extraction runs under its own context, detached from this
	// caller's: other callers may coalesce onto it, so it must outlive
	// any single one. It is cancelled only when every waiter has left.
	// Context values do not flow through the detachment, so the flight
	// leader's local-only flag is captured here explicitly. (A normal
	// read coalescing onto a local-only flight inherits its narrower
	// tier walk for that one call; failures are never cached, so the
	// next read consults the backends again.)
	localOnly := isLocalOnly(ctx)
	cctx, cancel := context.WithCancel(context.Background())
	c := &flightCall{done: make(chan struct{}), cancel: cancel, waiters: 1}
	s.flight[fp] = c
	s.mu.Unlock()

	go func() {
		defer cancel()
		c.blob, c.err = s.loadOrExtract(cctx, fp, localOnly)
		s.mu.Lock()
		if s.flight[fp] == c {
			delete(s.flight, fp)
		}
		if c.err == nil {
			s.noteEvictions(s.cache.add(fp, c.blob))
		}
		s.mu.Unlock()
		close(c.done)
	}()
	return s.wait(ctx, fp, c)
}

// wait blocks until the in-flight call completes or ctx is cancelled.
// An abandoning waiter drops its reference; the last one out cancels the
// extraction and unregisters the call so later requests start fresh
// rather than inheriting a cancelled result.
func (s *Store) wait(ctx context.Context, fp string, c *flightCall) ([]byte, error) {
	select {
	case <-c.done:
		return c.blob, c.err
	case <-ctx.Done():
		// When the result and the cancellation race, prefer the result:
		// callers on a non-cancellable context (the Policies/PolicySet/Diff
		// wrappers use context.Background) must always take this path, and
		// a context caller that loses this race would otherwise decrement a
		// refcount the completion path has already settled.
		select {
		case <-c.done:
			return c.blob, c.err
		default:
		}
		s.mu.Lock()
		c.waiters--
		last := c.waiters == 0
		if last && s.flight[fp] == c {
			delete(s.flight, fp)
		}
		s.mu.Unlock()
		if last {
			c.cancel()
			s.log.Info("store: extraction abandoned", "fingerprint", fp, "cause", context.Cause(ctx))
		}
		return nil, ctx.Err()
	}
}

// noteEvictions records n LRU evictions and refreshes the occupancy
// gauge. Called with s.mu held.
func (s *Store) noteEvictions(n int) {
	if n > 0 {
		s.evictions.Add(uint64(n))
		s.tm.Evictions.Add(float64(n))
	}
	s.tm.CachedBlobs.Set(float64(s.cache.len()))
}

// loadOrExtract serves one fingerprint from disk, then the configured
// backends (unless the read is local-only), falling back to extraction.
// Exactly one goroutine runs this per in-flight fingerprint.
func (s *Store) loadOrExtract(ctx context.Context, fp string, localOnly bool) ([]byte, error) {
	path := s.policyPath(fp)
	if blob, err := os.ReadFile(path); err == nil {
		if _, err := policy.ImportJSON(blob); err == nil {
			s.diskHits.Add(1)
			s.tm.CacheHits.With("disk").Inc()
			return blob, nil
		}
		s.corruptBlobs.Add(1)
		s.tm.CorruptBlobs.Inc()
		s.log.Warn("store: corrupt policy blob, re-extracting", "fingerprint", fp)
	}
	s.misses.Add(1)
	s.tm.CacheMisses.Inc()
	if !localOnly {
		if blob, ok := s.fromBackends(ctx, fp, path); ok {
			return blob, nil
		}
	}
	b, err := s.Bundle(fp)
	if err != nil {
		return nil, err
	}
	queued := time.Now()
	select {
	case s.sem <- struct{}{}:
		// Observed only here — by the flight leader, after it actually
		// acquired a slot. Coalesced joins never reach this function and a
		// leader cancelled while queueing records nothing, so the histogram
		// counts one sample per extraction slot granted, not per caller.
		s.tm.QueueWait.ObserveDuration(time.Since(queued))
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.extractions.Add(1)
	s.tm.Extractions.Inc()
	s.log.Info("store: extraction start", "fingerprint", fp, "library", b.Name)
	start := time.Now()
	blob, err := s.extract(ctx, b)
	elapsed := time.Since(start)
	s.tm.ExtractDuration.ObserveDuration(elapsed)
	if err != nil {
		s.tm.ExtractFailures.Inc()
		s.log.Warn("store: extraction failed", "fingerprint", fp, "library", b.Name,
			"duration", elapsed, "err", err)
		return nil, err
	}
	s.log.Info("store: extraction done", "fingerprint", fp, "library", b.Name,
		"duration", elapsed, "bytes", len(blob))
	if err := WriteAtomic(path, blob); err != nil {
		return nil, fmt.Errorf("store: persisting policies: %w", err)
	}
	return blob, nil
}

// fromBackends asks each configured backend for fp's blob, in order.
// A hit is validated exactly like a disk blob and persisted locally so
// the next read of fp is a disk hit; a corrupt response is counted and
// skipped. ok is false when no backend could supply a valid blob — the
// caller falls back to local extraction.
func (s *Store) fromBackends(ctx context.Context, fp, path string) ([]byte, bool) {
	for _, b := range s.backends {
		blob, err := b.Fetch(ctx, fp)
		if err != nil {
			if !errors.Is(err, ErrBackendMiss) {
				s.log.Warn("store: backend fetch failed", "backend", b.Name(), "fingerprint", fp, "err", err)
			}
			continue
		}
		if _, err := policy.ImportJSON(blob); err != nil {
			s.corruptBlobs.Add(1)
			s.tm.CorruptBlobs.Inc()
			s.log.Warn("store: backend returned corrupt blob", "backend", b.Name(), "fingerprint", fp, "err", err)
			continue
		}
		if err := WriteAtomic(path, blob); err != nil {
			// Serving the validated bytes still beats re-extracting; the
			// blob just won't be a disk hit next time.
			s.log.Warn("store: persisting backend blob failed", "backend", b.Name(), "fingerprint", fp, "err", err)
		}
		s.backendHits.Add(1)
		s.tm.CacheHits.With("backend").Inc()
		return blob, true
	}
	return nil, false
}

func (s *Store) extractBundle(ctx context.Context, b *Bundle) ([]byte, error) {
	opts, err := b.Options.ToOracle()
	if err != nil {
		return nil, fmt.Errorf("store: bundle %s: %w: %w", b.Fingerprint, ErrInvalid, err)
	}
	opts.Parallel = s.parallel
	opts.Telemetry = s.xm
	opts.Summaries = s.sums
	// Display-only data (paths, guards) never reaches the wire format the
	// store serves, and the incremental sidecar records a display-free
	// extraction; skip collecting it server-side.
	opts.CollectPaths, opts.CollectGuards = false, false
	lib, err := oracle.LoadLibrary(b.Name, b.Sources)
	if err != nil {
		return nil, fmt.Errorf("store: bundle %s: %w", b.Fingerprint, err)
	}
	if err := lib.ExtractContext(ctx, opts); err != nil {
		return nil, fmt.Errorf("store: bundle %s: %w", b.Fingerprint, err)
	}
	s.writeIncrementalState(lib, b.Fingerprint)
	return lib.Policies.ExportJSON()
}

// writeIncrementalState persists the deps sidecar (method hashes + entry
// dependency sets) for fp. Best-effort: the policy blob is the source of
// truth, and a missing sidecar only forces the next update of this
// library through a full extraction.
func (s *Store) writeIncrementalState(lib *oracle.Library, fp string) {
	snap, err := lib.Snapshot()
	if err == nil {
		snap.Policies = nil // the blob is persisted separately under policies/
		var data []byte
		if data, err = snap.Encode(); err == nil {
			err = WriteAtomic(s.depsPath(fp), data)
		}
	}
	if err != nil {
		s.log.Warn("store: writing incremental sidecar failed", "fingerprint", fp, "err", err)
	}
}

// PolicySet returns the parsed policies for a fingerprint.
func (s *Store) PolicySet(fp string) (*policy.ProgramPolicies, error) {
	return s.PolicySetContext(context.Background(), fp)
}

// PolicySetContext returns the parsed policies for a fingerprint.
func (s *Store) PolicySetContext(ctx context.Context, fp string) (*policy.ProgramPolicies, error) {
	blob, err := s.PoliciesContext(ctx, fp)
	if err != nil {
		return nil, err
	}
	return policy.ImportJSON(blob)
}

// Diff differences the policies of two fingerprints with a background
// context.
func (s *Store) Diff(fpA, fpB string) (*diff.Report, error) {
	return s.DiffContext(context.Background(), fpA, fpB)
}

// DiffContext differences the policies of two fingerprints. The report
// is the same value oracle.Diff computes on in-process libraries: the
// policy wire format round-trips everything differencing consumes.
// Fingerprints whose policies were extracted under different check
// domains fail loudly with oracle.ErrDomainMismatch — their check sets
// index different tables and comparing them would be nonsense.
func (s *Store) DiffContext(ctx context.Context, fpA, fpB string) (*diff.Report, error) {
	pa, err := s.PolicySetContext(ctx, fpA)
	if err != nil {
		return nil, err
	}
	pb, err := s.PolicySetContext(ctx, fpB)
	if err != nil {
		return nil, err
	}
	if pa.Domain != pb.Domain {
		return nil, fmt.Errorf("%w: %s has %q, %s has %q",
			oracle.ErrDomainMismatch, fpA, domainLabel(pa.Domain), fpB, domainLabel(pb.Domain))
	}
	s.diffs.Add(1)
	s.tm.Diffs.Inc()
	return diff.Compare(pa, pb), nil
}

// domainLabel spells the default domain's canonical empty string as its
// registered ID for error messages.
func domainLabel(id string) string {
	if id == "" {
		return secmodel.DefaultDomainID
	}
	return id
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		MemHits:      s.memHits.Load(),
		DiskHits:     s.diskHits.Load(),
		Misses:       s.misses.Load(),
		Coalesced:    s.coalesced.Load(),
		Extractions:  s.extractions.Load(),
		CorruptBlobs: s.corruptBlobs.Load(),
		Bundles:      s.bundles.Load(),
		Diffs:        s.diffs.Load(),
		Evictions:    s.evictions.Load(),
		BackendHits:  s.backendHits.Load(),
	}
}

// CachedEntries reports the current LRU occupancy.
func (s *Store) CachedEntries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// WriteAtomic replaces path with data via a temp file + fsync + rename +
// parent-directory fsync. Readers never see a partial file, a crash
// right after the rename cannot leave an empty or truncated one behind
// it, and once WriteAtomic returns nil the rename itself survives power
// loss, so callers may expose the write as committed.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
