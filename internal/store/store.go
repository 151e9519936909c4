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
//	bundles/<fingerprint>.json     uploaded bundle (name, options, sources)
//	policies/<fingerprint>.json    extracted policies, policy wire format
//	policies/<fingerprint>.sha256  the blob's SHA-256: lowercase hex and a
//	                               newline, as sha256sum prints it
//	deps/<fingerprint>.json        incremental sidecar (oracle.Snapshot sans
//	                               policies): method hashes + entry deps
//	deps/<fingerprint>.sha256      the sidecar's SHA-256, in the same form
//	names.json                     library name → latest fingerprint
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
// The store is content-addressed end to end. Every blob and sidecar it
// persists is written after its digest, and every read of a persisted
// blob or sidecar verifies it against that digest: a blob that fails (bit
// rot, a torn write, a crash between the two writes) counts as corrupt
// and is re-extracted from its bundle, so the store self-heals, and a
// sidecar that fails never seeds. A blob or sidecar with no digest file
// beside it counts as absent: the blob is re-extracted, and neither ever
// seeds an incremental update. A blob is decoded only to compute a diff,
// and the decoded set is not kept.
//
// DiffWire serves a diff report from a report cache keyed by the digests
// of the two blobs compared, so a repeated diff decodes, compares and
// encodes nothing. An entry holds the report's wire bytes, its sorted
// root keys and its manifestation count; the cached entries total at most
// the bytes of the blobs the LRU holds, and none are cached when the LRU
// is disabled.
//
// Reads take a context: a caller that goes away (client disconnect,
// server drain) stops waiting immediately, and when the last waiter on
// an in-flight extraction leaves, the extraction itself is cancelled.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"policyoracle/internal/diff"
	"policyoracle/internal/jsonwrite"
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
	// (every read is served from disk or extraction, no diff report is
	// cached and Update keeps no revision record). An entry holds a blob
	// and its digest. The diff reports DiffWire caches total at most the
	// bytes of the resident blobs, and Update keeps at most this many
	// revision records, one per library name (see Update).
	CacheEntries int
	// Parallel is the oracle worker count per extraction
	// (oracle.Options.Parallel; <= 0 means GOMAXPROCS).
	Parallel int
	// MaxInflight bounds concurrent extractions across all fingerprints
	// (default 2). Single-flight already collapses same-fingerprint
	// requests; this bounds distinct ones.
	MaxInflight int
	// Backends are consulted in order on a mem+disk miss, before local
	// extraction: the pluggable remote tiers of a distributed store
	// (peer replicas today; an object store tomorrow). A blob served by
	// a backend is checked by decoding it and persisted locally with its
	// digest, so later reads of the fingerprint are verified disk hits.
	// Empty means extraction is the only fallback, the single-node
	// behavior.
	Backends []Backend
	// Registry receives the store's and the extractor's metrics. Nil
	// keeps the store's on a private registry, which Stats still reads,
	// and disables the extractor's.
	Registry *telemetry.Registry
	// Logger receives structured store events (extraction start/finish,
	// corruption, eviction pressure). Nil discards them.
	Logger *slog.Logger
}

// Stats is a snapshot of the store's counters. They are read from the
// store's metric instruments, so two Stores opened on one Registry share
// their counts, as they share their scrape series.
type Stats struct {
	// MemHits served from the LRU, DiskHits from a persisted blob that
	// passed its check, Misses required a backend fetch or extraction.
	MemHits  uint64 `json:"memHits"`
	DiskHits uint64 `json:"diskHits"`
	Misses   uint64 `json:"misses"`
	// Coalesced requests waited on an identical in-flight request
	// instead of doing their own work.
	Coalesced uint64 `json:"coalesced"`
	// Extractions performed (== Misses unless extraction failed early).
	Extractions uint64 `json:"extractions"`
	// CorruptBlobs counts persisted blobs that failed their digest check
	// on a read and backend blobs that do not decode. A corrupt blob is
	// re-extracted when it is next read.
	CorruptBlobs uint64 `json:"corruptBlobs"`
	// Bundles uploaded (newly created, not re-uploads).
	Bundles uint64 `json:"bundles"`
	// Diffs served by DiffWire, ReportHits included.
	Diffs uint64 `json:"diffs"`
	// ReportHits counts DiffWire calls served from the report cache.
	ReportHits uint64 `json:"reportHits"`
	// Evictions dropped a blob from the in-memory LRU.
	Evictions uint64 `json:"evictions"`
	// BackendHits served a blob from a configured backend (for a peer
	// backend: fetched from another replica instead of extracting).
	BackendHits uint64 `json:"backendHits"`
	// Decodes counts every policy.ImportJSON the store runs: two for each
	// DiffWire the report cache misses, one when Update finds its content
	// already extracted, and one to check each backend blob.
	Decodes uint64 `json:"decodes"`
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
	sums     *oracle.SummaryCache
	log      *slog.Logger

	mu        sync.Mutex
	capacity  int                     // entry bound of cache and revisions; <= 0 disables all three
	cache     *lru[string, blobRef]   // by fingerprint, sized by blob bytes
	reports   *lru[reportKey, Report] // bounded by cache.bytes
	revisions *lru[string, revision]  // by library name, least recently updated last
	flight    map[string]*flightCall

	// namesMu serializes read-modify-write cycles on names.json; it is
	// separate from mu so index writes never block cache reads.
	namesMu sync.Mutex

	// updateMu guards updateLocks, the per-library-name mutexes that
	// serialize Update so concurrent PUTs of one name cannot interleave
	// their read-previous/extract/advance-index sequences.
	updateMu    sync.Mutex
	updateLocks map[string]*sync.Mutex

	// load runs the frontend on one bundle's sources, reusing the parse
	// results it is given (see oracle.LoadRevision), and extract extracts
	// a bundle's policies (see extractLibrary for its library arguments);
	// tests may wrap either.
	load    func(name string, sources map[string]string, prev []oracle.ParsedFile) (*oracle.Library, error)
	extract func(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (*oracle.Library, *oracle.IncrementalStats, error)
}

// flightCall is one in-flight load-or-extract. Waiters are refcounted:
// each caller waiting on done holds one reference, and when the last
// waiter abandons the call (its context was cancelled), it cancels the
// extraction context so the worker stops too.
type flightCall struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int // guarded by Store.mu
	ref     blobRef
	err     error
}

// digest is a policy blob's SHA-256.
type digest [sha256.Size]byte

// blobRef is a blob and its digest.
type blobRef struct {
	blob []byte
	sum  digest
}

func refOf(blob []byte) blobRef {
	return blobRef{blob: blob, sum: sha256.Sum256(blob)}
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
	storeReg := cfg.Registry
	if storeReg == nil {
		storeReg = telemetry.New() // Stats reads the store's instruments
	}
	s := &Store{
		dir:         cfg.Dir,
		parallel:    cfg.Parallel,
		sem:         make(chan struct{}, cfg.MaxInflight),
		backends:    cfg.Backends,
		tm:          telemetry.NewStoreMetrics(storeReg),
		xm:          telemetry.NewExtractMetrics(cfg.Registry),
		sums:        oracle.NewSummaryCache(0),
		log:         cfg.Logger,
		capacity:    cfg.CacheEntries,
		cache:       newLRU[string, blobRef](),
		reports:     newLRU[reportKey, Report](),
		revisions:   newLRU[string, revision](),
		flight:      make(map[string]*flightCall),
		updateLocks: make(map[string]*sync.Mutex),
	}
	s.load, s.extract = oracle.LoadRevision, s.extractLibrary
	return s, nil
}

func (s *Store) bundlePath(fp string) string {
	return filepath.Join(s.dir, "bundles", fp+".json")
}

func (s *Store) policyPath(fp string) string {
	return filepath.Join(s.dir, "policies", fp+".json")
}

func (s *Store) digestPath(fp string) string {
	return filepath.Join(s.dir, "policies", fp+".sha256")
}

func (s *Store) depsPath(fp string) string {
	return filepath.Join(s.dir, "deps", fp+".json")
}

func (s *Store) depsDigestPath(fp string) string {
	return filepath.Join(s.dir, "deps", fp+".sha256")
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
	fp, created, _, err = s.put(name, sources, w, nil)
	return fp, created, err
}

// put is Put, also returning the library its validation loaded, which
// reuses the parse results prev holds of unchanged files.
func (s *Store) put(name string, sources map[string]string, w OptionsWire, prev []oracle.ParsedFile) (fp string, created bool, lib *oracle.Library, err error) {
	if name == "" {
		return "", false, nil, fmt.Errorf("store: %w: empty library name", ErrInvalid)
	}
	if len(sources) == 0 {
		return "", false, nil, fmt.Errorf("store: %w: empty source bundle", ErrInvalid)
	}
	opts, err := w.ToOracle()
	if err != nil {
		// Double-wrap so callers can match both ErrInvalid and typed
		// option errors like secmodel.ErrUnknownDomain.
		return "", false, nil, fmt.Errorf("store: %w: %w", ErrInvalid, err)
	}
	// Reject bundles that don't load: a broken upload should fail at Put,
	// not poison every later extraction of its fingerprint.
	if lib, err = s.load(name, sources, prev); err != nil {
		return "", false, nil, fmt.Errorf("store: %w: bundle does not load: %v", ErrInvalid, err)
	}
	fp = oracle.Fingerprint(name, sources, opts)
	path := s.bundlePath(fp)
	if _, err := os.Stat(path); err == nil {
		if err := s.setLatestFingerprint(name, fp); err != nil {
			return "", false, nil, err
		}
		return fp, false, lib, nil
	}
	b := &Bundle{Fingerprint: fp, Name: name, Options: w, Sources: sources}
	if err := WriteAtomic(path, b.encode()); err != nil {
		return "", false, nil, fmt.Errorf("store: %w", err)
	}
	s.tm.Bundles.Inc()
	if err := s.setLatestFingerprint(name, fp); err != nil {
		return "", false, nil, err
	}
	s.log.Info("store: bundle created", "fingerprint", fp, "library", name, "files", len(sources))
	return fp, true, lib, nil
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
	if err := WriteAtomic(s.namesPath(), encodeNames(names)); err != nil {
		return fmt.Errorf("store: writing name index: %w", err)
	}
	return nil
}

// encodeNames renders the name index as it is persisted: the bytes
// json.MarshalIndent(names, "", "  ") renders, written without
// reflection.
func encodeNames(names map[string]string) []byte {
	var w jsonwrite.Indent
	w.StringMap(names)
	return w.Bytes()
}

// encode renders the bundle as it is persisted: the bytes
// json.MarshalIndent(b, "", "  ") renders, written without reflection.
func (b *Bundle) encode() []byte {
	var w jsonwrite.Indent
	w.BeginObject()
	w.Key("fingerprint")
	w.String(b.Fingerprint)
	w.Key("name")
	w.String(b.Name)
	w.Key("options")
	b.Options.write(&w)
	w.Key("sources")
	w.StringMap(b.Sources)
	w.EndObject()
	return w.Bytes()
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
		if err := WriteAtomic(s.namesPath(), encodeNames(names)); err != nil {
			s.log.Warn("store: persisting rebuilt name index failed", "err", err)
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
	ref, err := s.read(ctx, fp)
	return ref.blob, err
}

// read returns fp's blob and its digest.
func (s *Store) read(ctx context.Context, fp string) (blobRef, error) {
	if !oracle.IsFingerprint(fp) {
		return blobRef{}, fmt.Errorf("%w: %q", ErrMalformed, fp)
	}
	s.mu.Lock()
	if ref, ok := s.cache.get(fp); ok {
		s.mu.Unlock()
		s.tm.CacheHits.With("mem").Inc()
		return ref, nil
	}
	if c, ok := s.flight[fp]; ok {
		c.waiters++
		s.mu.Unlock()
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
		c.ref, c.err = s.loadOrExtract(cctx, fp, localOnly)
		s.mu.Lock()
		if s.flight[fp] == c {
			delete(s.flight, fp)
		}
		if c.err == nil {
			s.cacheBlob(fp, c.ref)
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
func (s *Store) wait(ctx context.Context, fp string, c *flightCall) (blobRef, error) {
	select {
	case <-c.done:
		return c.ref, c.err
	case <-ctx.Done():
		// When the result and the cancellation race, prefer the result:
		// callers on a non-cancellable context (the Policies wrapper uses
		// context.Background) must always take this path, and
		// a context caller that loses this race would otherwise decrement a
		// refcount the completion path has already settled.
		select {
		case <-c.done:
			return c.ref, c.err
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
		return blobRef{}, ctx.Err()
	}
}

// cacheBlob makes ref fp's LRU entry, evicts the least recently used
// entries past the capacity, and trims the report cache to the blob bytes
// left resident. A disabled cache holds nothing and so evicts nothing.
// Called with s.mu held.
func (s *Store) cacheBlob(fp string, ref blobRef) {
	if s.capacity <= 0 {
		return
	}
	s.cache.put(fp, ref, len(ref.blob))
	for s.cache.len() > s.capacity {
		s.cache.evictOldest()
		s.tm.Evictions.Inc()
	}
	s.tm.CachedBlobs.Set(float64(s.cache.len()))
	for s.reports.bytes > s.cache.bytes {
		s.reports.evictOldest()
	}
}

// loadOrExtract serves one fingerprint from disk, then the configured
// backends (unless the read is local-only), falling back to extraction.
// Exactly one goroutine runs this per in-flight fingerprint.
func (s *Store) loadOrExtract(ctx context.Context, fp string, localOnly bool) (blobRef, error) {
	if ref, ok := s.readBlob(fp); ok {
		s.tm.CacheHits.With("disk").Inc()
		return ref, nil
	}
	s.tm.CacheMisses.Inc()
	if !localOnly {
		if ref, ok := s.fromBackends(ctx, fp); ok {
			return ref, nil
		}
	}
	b, err := s.Bundle(fp)
	if err != nil {
		return blobRef{}, err
	}
	ref, _, _, err := s.extractAndPersist(ctx, b, nil, nil)
	return ref, err
}

// readBlob reads fp's persisted blob and verifies it against its digest.
// ok is false when there is no usable blob. A blob with no digest file
// beside it counts as absent; one that fails its check is counted and
// logged as corrupt.
func (s *Store) readBlob(fp string) (ref blobRef, ok bool) {
	blob, err := os.ReadFile(s.policyPath(fp))
	if err != nil {
		return blobRef{}, false
	}
	ref, err = verify(blob, s.digestPath(fp))
	switch {
	case err == nil:
		return ref, true
	case errors.Is(err, errNoDigest):
		return blobRef{}, false
	}
	s.tm.CorruptBlobs.Inc()
	s.log.Warn("store: corrupt policy blob, re-extracting", "fingerprint", fp, "err", err)
	return blobRef{}, false
}

// errNoDigest reports a persisted file with no digest file beside it.
var errNoDigest = errors.New("store: no digest file")

// verify returns data and its digest, checked against the digest file at
// sumPath: errNoDigest when there is none, an error when it holds another
// digest or cannot be read.
func verify(data []byte, sumPath string) (blobRef, error) {
	ref := refOf(data)
	want, err := os.ReadFile(sumPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return ref, errNoDigest
	case err == nil && !bytes.Equal(want, digestLine(ref.sum)):
		return ref, errors.New("store: digest mismatch")
	}
	return ref, err
}

// digestLine renders a digest file: lowercase hex and a newline.
func digestLine(sum digest) []byte {
	line := make([]byte, hex.EncodedLen(len(sum))+1)
	hex.Encode(line, sum[:])
	line[len(line)-1] = '\n'
	return line
}

// persist writes ref's digest to sumPath, then its bytes to path. A crash
// between the two writes leaves the new digest beside no file or an older
// one, which verifies only if it holds the same bytes; anything else
// fails its next read's check.
func persist(path, sumPath string, ref blobRef) error {
	if err := WriteAtomic(sumPath, digestLine(ref.sum)); err != nil {
		return err
	}
	return WriteAtomic(path, ref.blob)
}

// persistBlob persists fp's blob with its digest.
func (s *Store) persistBlob(fp string, ref blobRef) error {
	return persist(s.policyPath(fp), s.digestPath(fp), ref)
}

// extractAndPersist is the store's one extraction path: cold reads call
// it with neither library, and Update with the library its upload
// validation loaded and the previous revision. In one of the store's
// extraction slots it extracts b's policies (see extractLibrary), then
// persists the policy blob with its digest and the incremental sidecar.
// It returns the blob, the extracted library and the stats the
// extraction measured.
func (s *Store) extractAndPersist(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (blobRef, *oracle.Library, *oracle.IncrementalStats, error) {
	queued := time.Now()
	select {
	case s.sem <- struct{}{}:
		// Observed only here, after a slot was actually acquired. Coalesced
		// readers never reach this function and a caller cancelled while
		// queueing records nothing, so the histogram counts one sample per
		// extraction slot granted, not per caller.
		s.tm.QueueWait.ObserveDuration(time.Since(queued))
	case <-ctx.Done():
		return blobRef{}, nil, nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	if err := ctx.Err(); err != nil {
		return blobRef{}, nil, nil, err
	}
	s.tm.Extractions.Inc()
	fp := b.Fingerprint
	s.log.Info("store: extraction start", "fingerprint", fp, "library", b.Name, "seeded", prev != nil)
	start := time.Now()
	lib, st, err := s.extract(ctx, b, lib, prev)
	elapsed := time.Since(start)
	s.tm.ExtractDuration.ObserveDuration(elapsed)
	if err != nil {
		s.tm.ExtractFailures.Inc()
		s.log.Warn("store: extraction failed", "fingerprint", fp, "library", b.Name,
			"duration", elapsed, "err", err)
		return blobRef{}, nil, nil, err
	}
	// The snapshot's policies are exactly ExportJSON's bytes: the blob.
	snap, err := lib.Snapshot()
	if err != nil {
		return blobRef{}, nil, nil, fmt.Errorf("store: bundle %s: %w", fp, err)
	}
	ref := refOf(snap.Policies)
	s.log.Info("store: extraction done", "fingerprint", fp, "library", b.Name,
		"duration", elapsed, "bytes", len(ref.blob), "entries", st.Entries,
		"reused", st.Reused, "reanalyzed", st.Reanalyzed)
	if err := s.persistBlob(fp, ref); err != nil {
		return blobRef{}, nil, nil, fmt.Errorf("store: persisting policies: %w", err)
	}
	// The sidecar is best-effort: the blob is the source of truth, and a
	// missing sidecar only forces the next update of this library through
	// a full extraction.
	snap.Policies = nil
	data, err := snap.Encode()
	if err == nil {
		err = persist(s.depsPath(fp), s.depsDigestPath(fp), refOf(data))
	}
	if err != nil {
		s.log.Warn("store: writing incremental sidecar failed", "fingerprint", fp, "err", err)
	}
	return ref, lib, st, nil
}

// fromBackends asks each configured backend for fp's blob, in order.
// A hit is checked by decoding it and persisted locally with its digest
// so the next read of fp is a verified disk hit; a corrupt response is
// counted and skipped. A digest sent by the backend would prove only the
// transfer, not the content, so none is asked for. ok is false when no
// backend could supply a valid blob — the caller falls back to local
// extraction.
func (s *Store) fromBackends(ctx context.Context, fp string) (blobRef, bool) {
	for _, b := range s.backends {
		blob, err := b.Fetch(ctx, fp)
		if err != nil {
			if !errors.Is(err, ErrBackendMiss) {
				s.log.Warn("store: backend fetch failed", "backend", b.Name(), "fingerprint", fp, "err", err)
			}
			continue
		}
		ref := refOf(blob)
		if _, err := s.decode(blob); err != nil {
			s.tm.CorruptBlobs.Inc()
			s.log.Warn("store: backend returned corrupt blob", "backend", b.Name(), "fingerprint", fp, "err", err)
			continue
		}
		if err := s.persistBlob(fp, ref); err != nil {
			// Serving the checked bytes still beats re-extracting; the
			// blob just won't be a disk hit next time.
			s.log.Warn("store: persisting backend blob failed", "backend", b.Name(), "fingerprint", fp, "err", err)
		}
		s.tm.CacheHits.With("backend").Inc()
		return ref, true
	}
	return blobRef{}, false
}

// extractLibrary extracts b's policies, incrementally from prev when it
// is non-nil. lib is b's library when the caller already loaded it; when
// it is nil, b's sources are loaded here. Without prev the stats
// describe a full extraction whose Reanalyzed is still measured: the
// process-wide summary cache may splice entries here too.
func (s *Store) extractLibrary(ctx context.Context, b *Bundle, lib, prev *oracle.Library) (*oracle.Library, *oracle.IncrementalStats, error) {
	opts, err := b.Options.ToOracle()
	if err != nil {
		return nil, nil, fmt.Errorf("store: bundle %s: %w: %w", b.Fingerprint, ErrInvalid, err)
	}
	opts.Parallel = s.parallel
	opts.Telemetry = s.xm
	opts.Summaries = s.sums
	// Display-only data (paths, guards) never reaches the wire format the
	// store serves, and the store seeds from wire-format snapshots; skip
	// collecting it server-side, or the option keys would never match the
	// sidecar's.
	opts.CollectPaths, opts.CollectGuards = false, false
	if lib == nil {
		if lib, err = s.load(b.Name, b.Sources, nil); err != nil {
			return nil, nil, fmt.Errorf("store: bundle %s: %w", b.Fingerprint, err)
		}
	}
	st := &oracle.IncrementalStats{Full: true}
	if prev != nil {
		st, err = oracle.ExtractIncrementalContext(ctx, prev, lib, opts)
	} else {
		err = lib.ExtractContext(ctx, opts)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: bundle %s: %w", b.Fingerprint, err)
	}
	if prev == nil {
		// Both modes run the same entries; a single-mode extraction
		// leaves the other mode's count at zero.
		st.Entries = len(lib.Policies.Entries)
		st.Reanalyzed = max(lib.MayStats.EntryPoints, lib.MustStats.EntryPoints)
		st.Reused = st.Entries - st.Reanalyzed
	}
	return lib, st, nil
}

// decode imports a policy blob, counting the decode.
func (s *Store) decode(blob []byte) (*policy.ProgramPolicies, error) {
	s.tm.Decodes.Inc()
	return policy.ImportJSON(blob)
}

// Report is one diff report as DiffWire serves it, and the value the
// report cache holds: the report's wire bytes with what the reconcile
// controller records of it. Callers must not mutate it.
type Report struct {
	// Wire is diff.Report.EncodeJSON's bytes, what `polora diff -json`
	// prints.
	Wire []byte
	// Domain is the compared policies' domain ID, as the report carries it.
	Domain string
	// RootKeys are the stable root keys (diff.Group.RootKey) of the
	// report's groups, sorted; Manifestations is the report's
	// TotalManifestations.
	RootKeys       []string
	Manifestations int
}

// size is what the report counts against the report cache's bound: its
// wire bytes and the bytes of its root keys.
func (r Report) size() int {
	n := len(r.Wire)
	for _, k := range r.RootKeys {
		n += len(k)
	}
	return n
}

// DiffWire differences the policies of two fingerprints and returns the
// report. Fingerprints whose policies were extracted under different
// check domains fail loudly with oracle.ErrDomainMismatch — their check
// sets index different tables and comparing them would be nonsense. A
// report is a function of the two blobs compared, so it is cached under
// their digests: a repeated diff, even of blobs read back from disk,
// decodes, compares and encodes nothing. The cache holds no errors, and
// its reports total at most the bytes of the blobs the LRU holds.
func (s *Store) DiffWire(ctx context.Context, fpA, fpB string) (Report, error) {
	a, err := s.read(ctx, fpA)
	if err != nil {
		return Report{}, err
	}
	b, err := s.read(ctx, fpB)
	if err != nil {
		return Report{}, err
	}
	key := reportKey{a.sum, b.sum}
	s.mu.Lock()
	r, ok := s.reports.get(key)
	s.mu.Unlock()
	if ok {
		s.tm.ReportHits.Inc()
		s.tm.Diffs.Inc()
		return r, nil
	}
	rep, err := s.compare(fpA, fpB, a, b)
	if err != nil {
		return Report{}, err
	}
	r = Report{Domain: rep.Domain, RootKeys: make([]string, len(rep.Groups)), Manifestations: rep.TotalManifestations()}
	if r.Wire, err = rep.EncodeJSON(); err != nil {
		return Report{}, fmt.Errorf("store: encoding the diff of %s and %s: %w", fpA, fpB, err)
	}
	for i, g := range rep.Groups {
		r.RootKeys[i] = g.RootKey
	}
	sort.Strings(r.RootKeys)
	s.mu.Lock()
	// The reports never outweigh the resident blobs, so with the blob
	// cache disabled none stays cached.
	s.reports.put(key, r, r.size())
	for s.reports.bytes > s.cache.bytes {
		s.reports.evictOldest()
	}
	s.mu.Unlock()
	return r, nil
}

// compare decodes two fingerprints' blobs, differences their policy sets
// and counts the diff: DiffWire's path on a report-cache miss. Sets of
// different check domains fail with oracle.ErrDomainMismatch. The decoded
// sets are not kept.
func (s *Store) compare(fpA, fpB string, a, b blobRef) (*diff.Report, error) {
	pa, err := s.decode(a.blob)
	if err != nil {
		return nil, err
	}
	pb, err := s.decode(b.blob)
	if err != nil {
		return nil, err
	}
	if pa.Domain != pb.Domain {
		return nil, fmt.Errorf("%w: %s has %q, %s has %q",
			oracle.ErrDomainMismatch, fpA, secmodel.DomainLabel(pa.Domain), fpB, secmodel.DomainLabel(pb.Domain))
	}
	s.tm.Diffs.Inc()
	return diff.Compare(pa, pb), nil
}

// Stats snapshots the store counters from its metric instruments.
func (s *Store) Stats() Stats {
	n := func(c *telemetry.Counter) uint64 { return uint64(c.Value()) }
	hits := s.tm.CacheHits
	return Stats{
		MemHits:      n(hits.With("mem")),
		DiskHits:     n(hits.With("disk")),
		Misses:       n(s.tm.CacheMisses),
		Coalesced:    n(s.tm.Coalesced),
		Extractions:  n(s.tm.Extractions),
		CorruptBlobs: n(s.tm.CorruptBlobs),
		Bundles:      n(s.tm.Bundles),
		Diffs:        n(s.tm.Diffs),
		ReportHits:   n(s.tm.ReportHits),
		Evictions:    n(s.tm.Evictions),
		BackendHits:  n(hits.With("backend")),
		Decodes:      n(s.tm.Decodes),
	}
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
