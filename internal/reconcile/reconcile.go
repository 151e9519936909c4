// Package reconcile is polorad's continuous-watch controller: the loop
// that turns the on-demand policy oracle into an always-on security-
// regression monitor. It follows the source→plan→apply reconcile shape:
//
//	source  the store's library registry (name → latest fingerprint),
//	        re-read every cycle so the loop is level-triggered — a missed
//	        wakeup is repaired by the next interval tick, never lost
//	plan    every registered library pair whose current fingerprint pair
//	        differs from the pair's latest drift-timeline entry
//	apply   diff the pair through the store's report cache (which serves
//	        a pair whose blobs did not change without decoding them),
//	        compute the deviation delta keyed by stable root keys, and
//	        append one entry to the persistent drift timeline
//
// The controller is crash-safe — the timeline is persisted via atomic
// rename before an observation becomes visible, and on restart the plan
// step resumes from the last persisted fingerprints, so a kill between
// cycles duplicates nothing and loses nothing — and backpressure-aware:
// uploads coalesce per library into a pending set and the cycle drains
// every stale pair, so a hot library cannot starve other pairs.
package reconcile

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// Config configures a Controller.
type Config struct {
	// Store is the policy store whose registry is watched. Required.
	Store *store.Store
	// Path is the drift-timeline file (created on first append).
	// Required.
	Path string
	// Interval is the full-rescan period; every upload additionally wakes
	// the loop immediately. Default 30s.
	Interval time.Duration
	// AlertThreshold fires a pair's drift alert when its distinct
	// deviation count reaches the threshold, and clears it when the count
	// drops back below. 0 disables alerting.
	AlertThreshold int
	// QueueCap bounds the pending-library set fed by Enqueue (default
	// 64). Beyond the cap an enqueue only wakes the loop — correct either
	// way, because the plan step rescans the whole registry.
	QueueCap int
	// Registry receives the controller's metrics (nil disables them).
	Registry *telemetry.Registry
	// Logger receives structured reconcile events (nil discards them).
	Logger *slog.Logger
}

// PairStatus is the latest observed state of one library pair, the body
// of GET /v1/drift/{pair} and `polora drift -pair`.
type PairStatus struct {
	Pair           string    `json:"pair"`
	LibA           string    `json:"libA"`
	LibB           string    `json:"libB"`
	FpA            string    `json:"fpA"`
	FpB            string    `json:"fpB"`
	ObservedAt     time.Time `json:"observedAt"`
	Deviations     int       `json:"deviations"`
	Manifestations int       `json:"manifestations"`
	New            []string  `json:"new,omitempty"`
	Resolved       []string  `json:"resolved,omitempty"`
	AlertFiring    bool      `json:"alertFiring"`
	AlertThreshold int       `json:"alertThreshold"`
	TimelineLen    int       `json:"timelineEntries"`
	DiffSHA256     string    `json:"diffSHA256"`
	// Report is the latest reconciled diff report. In memory these are
	// the canonical wire bytes (diff.Report.EncodeJSON, what POST
	// /v1/diff serves and DiffSHA256 digests); an enclosing JSON encoder
	// may re-indent them, so cross-surface byte-identity is asserted via
	// DiffSHA256, not this field's framing.
	Report json.RawMessage `json:"report,omitempty"`
}

// Controller runs the continuous-watch reconcile loop. Safe for
// concurrent use: Enqueue and the read APIs may be called while Run is
// looping.
type Controller struct {
	st  *store.Store
	cfg Config
	rm  *telemetry.ReconcileMetrics
	log *slog.Logger

	mu      sync.Mutex
	tl      *timeline
	pending map[string]bool // library names awaiting reconciliation

	wake chan struct{}
}

// New loads (or initializes) the drift timeline at cfg.Path and returns
// a controller resuming from it.
func New(cfg Config) (*Controller, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("reconcile: nil store")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	tl, err := loadTimeline(cfg.Path)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		st:      cfg.Store,
		cfg:     cfg,
		rm:      telemetry.NewReconcileMetrics(cfg.Registry),
		log:     cfg.Logger,
		tl:      tl,
		pending: map[string]bool{},
		wake:    make(chan struct{}, 1),
	}
	c.rm.TimelineEntries.Set(float64(len(tl.entries)))
	for pair, e := range tl.latest {
		c.rm.Drift.With(pair).Set(float64(e.Deviations))
		c.rm.Alert.With(pair).Set(boolGauge(c.firing(e)))
	}
	return c, nil
}

// Enqueue marks a library as needing reconciliation and wakes the loop.
// Calls for a library already pending coalesce (counted as requeues), so
// an upload storm against one hot library costs one cycle, not one cycle
// per upload.
func (c *Controller) Enqueue(name string) {
	c.mu.Lock()
	switch {
	case c.pending[name], len(c.pending) >= c.cfg.QueueCap:
		// Already pending, or the set is full: the next cycle rescans the
		// whole registry anyway, so dropping the name is lossless.
		c.mu.Unlock()
		c.rm.Requeues.Inc()
	default:
		c.pending[name] = true
		n := len(c.pending)
		c.mu.Unlock()
		c.rm.Pending.Set(float64(n))
	}
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Run executes the reconcile loop until ctx is cancelled: one cycle
// immediately (resuming from the persisted timeline), then one per
// upload wakeup or interval tick, whichever comes first. Cycle errors
// are logged and counted, never fatal — the level-triggered design means
// the next cycle retries whatever failed.
func (c *Controller) Run(ctx context.Context) error {
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	c.log.Info("reconcile: watching", "interval", c.cfg.Interval,
		"driftStore", c.cfg.Path, "alertThreshold", c.cfg.AlertThreshold)
	for {
		if err := c.RunOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			c.log.Warn("reconcile: cycle failed", "err", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.wake:
		case <-ticker.C:
		}
	}
}

// RunOnce performs one source→plan→apply cycle. Pair failures are
// counted and the remaining pairs still reconcile; the first error is
// returned so callers driving cycles manually (tests, shutdown flushes)
// see it.
func (c *Controller) RunOnce(ctx context.Context) error {
	start := time.Now()
	defer func() { c.rm.Duration.ObserveDuration(time.Since(start)) }()

	// Drain the pending set: everything it named is covered by the full
	// rescan below, and any upload landing after this point re-wakes the
	// loop for the next cycle.
	c.mu.Lock()
	drained := len(c.pending)
	c.pending = map[string]bool{}
	c.mu.Unlock()
	c.rm.Pending.Set(0)

	// Source: the store registry, re-read every cycle.
	names := c.st.Names()
	libs := make([]string, 0, len(names))
	for n := range names {
		libs = append(libs, n)
	}
	sort.Strings(libs)

	// Plan: pairs whose fingerprints moved past their latest observation.
	type work struct{ la, lb, fa, fb string }
	var stale []work
	c.mu.Lock()
	for i := 0; i < len(libs); i++ {
		for j := i + 1; j < len(libs); j++ {
			la, lb := libs[i], libs[j]
			fa, fb := names[la], names[lb]
			if last := c.tl.latestFor(PairKey(la, lb)); last != nil && last.FpA == fa && last.FpB == fb {
				continue
			}
			stale = append(stale, work{la, lb, fa, fb})
		}
	}
	c.mu.Unlock()

	if drained > 0 || len(stale) > 0 {
		c.log.Info("reconcile: cycle", "libraries", len(libs),
			"stalePairs", len(stale), "drained", drained)
	}

	// Apply: reconcile each stale pair; one failure never blocks the rest.
	var firstErr error
	for _, w := range stale {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.applyPair(ctx, w.la, w.lb, w.fa, w.fb); err != nil {
			c.rm.Errors.Inc()
			c.log.Warn("reconcile: pair failed", "pair", PairKey(w.la, w.lb), "err", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("pair %s: %w", PairKey(w.la, w.lb), err)
			}
		}
	}
	c.rm.Runs.Inc()
	return firstErr
}

// applyPair diffs one pair at a fingerprint pair and appends the
// observation to the timeline.
func (c *Controller) applyPair(ctx context.Context, la, lb, fa, fb string) error {
	pair := PairKey(la, lb)
	r, err := c.st.DiffWire(ctx, fa, fb)
	if err != nil {
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.tl.latestFor(pair)
	if prev != nil && prev.FpA == fa && prev.FpB == fb {
		// Another writer observed this exact fingerprint pair since the
		// plan step (or a previous crash persisted it); appending again
		// would duplicate history.
		return nil
	}
	e := &Entry{
		Pair: pair, LibA: la, LibB: lb, FpA: fa, FpB: fb,
		ObservedAt:     time.Now().UTC(),
		Deviations:     len(r.RootKeys),
		Manifestations: r.Manifestations,
		RootKeys:       r.RootKeys,
		DiffSHA256:     wireDigest(r.Wire),
	}
	var prevKeys []string
	wasFiring := false
	if prev != nil {
		prevKeys = prev.RootKeys
		wasFiring = c.firing(prev)
	}
	e.New, e.Resolved = deltaKeys(prevKeys, e.RootKeys)
	nowFiring := c.firing(e)
	switch {
	case nowFiring && !wasFiring:
		e.Alert = "fired"
	case !nowFiring && wasFiring:
		e.Alert = "cleared"
	}
	if err := c.tl.append(e); err != nil {
		return err
	}
	c.rm.PairsReconciled.Inc()
	c.rm.TimelineEntries.Set(float64(len(c.tl.entries)))
	c.rm.Drift.With(pair).Set(float64(e.Deviations))
	c.rm.Alert.With(pair).Set(boolGauge(nowFiring))
	c.log.Info("reconcile: pair observed", "pair", pair, "seq", e.Seq,
		"deviations", e.Deviations, "new", len(e.New), "resolved", len(e.Resolved),
		"alert", e.Alert)
	if e.Alert != "" {
		c.log.Warn("reconcile: drift alert "+e.Alert, "pair", pair,
			"deviations", e.Deviations, "threshold", c.cfg.AlertThreshold)
	}
	return nil
}

// Timeline snapshots the newest limit timeline entries (all for
// limit <= 0) in the wire form.
func (c *Controller) Timeline(limit int) TimelineWire {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TimelineWire{Version: TimelineVersion, Entries: c.tl.snapshot(limit)}
}

// Pairs returns the latest status of every observed pair, sorted by
// pair key, without the (potentially large) report bytes.
func (c *Controller) Pairs() []*PairStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*PairStatus
	for _, key := range c.tl.pairs() {
		out = append(out, c.statusLocked(c.tl.latestFor(key), nil))
	}
	return out
}

// Pair returns the latest status of one pair including its reconciled
// diff report. The report is read through the store's DiffWire, which
// serves the bytes /v1/diff does, and verified against the entry's
// digest, so what this returns is always exactly what the controller
// observed.
func (c *Controller) Pair(ctx context.Context, key string) (*PairStatus, error) {
	c.mu.Lock()
	e := c.tl.latestFor(key)
	c.mu.Unlock()
	if e == nil {
		return nil, ErrUnknownPair
	}
	r, err := c.st.DiffWire(ctx, e.FpA, e.FpB)
	if err != nil {
		return nil, err
	}
	if wireDigest(r.Wire) != e.DiffSHA256 {
		return nil, fmt.Errorf("reconcile: recomputed diff for %s does not match recorded digest", key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(e, r.Wire), nil
}

// wireDigest is the hex SHA-256 of a report's wire bytes, an entry's
// DiffSHA256.
func wireDigest(wire []byte) string {
	sum := sha256.Sum256(wire)
	return hex.EncodeToString(sum[:])
}

// ErrUnknownPair reports a drift query for a pair the timeline has never
// observed.
var ErrUnknownPair = errors.New("reconcile: pair never observed")

// statusLocked builds a PairStatus from a timeline entry; callers hold
// c.mu.
func (c *Controller) statusLocked(e *Entry, report []byte) *PairStatus {
	n := 0
	for _, te := range c.tl.entries {
		if te.Pair == e.Pair {
			n++
		}
	}
	return &PairStatus{
		Pair: e.Pair, LibA: e.LibA, LibB: e.LibB, FpA: e.FpA, FpB: e.FpB,
		ObservedAt:     e.ObservedAt,
		Deviations:     e.Deviations,
		Manifestations: e.Manifestations,
		New:            e.New,
		Resolved:       e.Resolved,
		AlertFiring:    c.firing(e),
		AlertThreshold: c.cfg.AlertThreshold,
		TimelineLen:    n,
		DiffSHA256:     e.DiffSHA256,
		Report:         report,
	}
}

// firing reports whether an entry's deviation count trips the alert
// threshold.
func (c *Controller) firing(e *Entry) bool {
	return c.cfg.AlertThreshold > 0 && e.Deviations >= c.cfg.AlertThreshold
}

// deltaKeys computes the appeared/disappeared sets between two sorted
// root-key lists.
func deltaKeys(prev, cur []string) (added, removed []string) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] == cur[j]:
			i++
			j++
		case prev[i] < cur[j]:
			removed = append(removed, prev[i])
			i++
		default:
			added = append(added, cur[j])
			j++
		}
	}
	removed = append(removed, prev[i:]...)
	added = append(added, cur[j:]...)
	return added, removed
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
