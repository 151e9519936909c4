package reconcile

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"policyoracle/internal/store"
)

// TimelineVersion is the drift-store schema version. Readers reject
// files written by a future schema instead of misinterpreting them.
const TimelineVersion = 1

// Entry is one observation of a library pair: a reconciled diff at a
// specific pair of fingerprints, with the delta against the pair's
// previous observation. Entries are append-only and never rewritten, so
// the timeline doubles as an audit log of policy drift.
type Entry struct {
	// Seq is the global append sequence number, contiguous from 1.
	Seq int `json:"seq"`
	// Pair is the canonical pair key (PairKey: names sorted, "~"-joined).
	Pair string `json:"pair"`
	// LibA/LibB are the pair's library names in canonical (sorted) order;
	// FpA/FpB the snapshot fingerprints this observation diffed — the
	// provenance linking the entry back to exact store content.
	LibA string `json:"libA"`
	LibB string `json:"libB"`
	FpA  string `json:"fpA"`
	FpB  string `json:"fpB"`
	// ObservedAt is when the reconcile loop recorded the observation.
	ObservedAt time.Time `json:"observedAt"`
	// Deviations is the number of distinct differences (diff groups);
	// Manifestations the number of affected entry points.
	Deviations     int `json:"deviations"`
	Manifestations int `json:"manifestations"`
	// RootKeys are the stable root-cause keys of every current deviation
	// (diff.Group.RootKey, sorted). New and Resolved are the delta against
	// the pair's previous entry: deviations that appeared and deviations
	// that disappeared.
	RootKeys []string `json:"rootKeys,omitempty"`
	New      []string `json:"new,omitempty"`
	Resolved []string `json:"resolved,omitempty"`
	// DiffSHA256 is the hex digest of the canonical diff-report wire bytes
	// (diff.Report.EncodeJSON), so any later reader can verify a
	// recomputed report against what the controller observed.
	DiffSHA256 string `json:"diffSHA256"`
	// Alert records an alert transition made by this observation:
	// "fired", "cleared", or empty for no transition.
	Alert string `json:"alert,omitempty"`
}

// TimelineWire is the drift-timeline wire format served by
// GET /v1/drift and printed by `polora drift -json`.
type TimelineWire struct {
	Version int      `json:"version"`
	Entries []*Entry `json:"entries"`
}

// PairKey returns the canonical drift key of a library pair: the two
// names sorted and joined with "~" (URL-safe, so the key can appear in
// GET /v1/drift/{pair} paths verbatim).
func PairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "~" + b
}

// SplitPair splits a canonical pair key back into its library names.
func SplitPair(key string) (a, b string, ok bool) {
	a, b, ok = strings.Cut(key, "~")
	return a, b, ok && a != "" && b != ""
}

// timeline is the persisted drift log: an append-only entry list written
// whole via atomic rename on every append, so a crash between appends
// loses at most the observation in progress (which the next reconcile
// cycle redoes) and never tears the file.
type timeline struct {
	path    string
	entries []*Entry
	latest  map[string]*Entry // pair key → most recent entry
}

// loadTimeline reads the drift store at path, or starts an empty one if
// the file does not exist. A corrupt or future-versioned file is an
// error: the timeline is the controller's resume state, so guessing
// would risk duplicate or lost history.
func loadTimeline(path string) (*timeline, error) {
	if path == "" {
		return nil, errors.New("reconcile: empty drift-store path")
	}
	t := &timeline{path: path, latest: map[string]*Entry{}}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return t, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reconcile: reading drift store: %w", err)
	}
	var wire TimelineWire
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("reconcile: corrupt drift store %s: %w", path, err)
	}
	if wire.Version != TimelineVersion {
		return nil, fmt.Errorf("reconcile: drift store %s has version %d, this build reads %d",
			path, wire.Version, TimelineVersion)
	}
	for i, e := range wire.Entries {
		if e.Seq != i+1 {
			return nil, fmt.Errorf("reconcile: drift store %s: entry %d has seq %d, want contiguous history",
				path, i, e.Seq)
		}
		t.latest[e.Pair] = e
	}
	t.entries = wire.Entries
	return t, nil
}

// append assigns the next sequence number and persists the whole
// timeline atomically before exposing the entry in memory, so readers
// never observe an entry that would be lost by a crash.
func (t *timeline) append(e *Entry) error {
	e.Seq = len(t.entries) + 1
	wire := TimelineWire{Version: TimelineVersion, Entries: append(t.entries, e)}
	data, err := json.MarshalIndent(&wire, "", "  ")
	if err != nil {
		return fmt.Errorf("reconcile: encoding drift store: %w", err)
	}
	if err := store.WriteAtomic(t.path, append(data, '\n')); err != nil {
		return fmt.Errorf("reconcile: persisting drift store: %w", err)
	}
	t.entries = wire.Entries
	t.latest[e.Pair] = e
	return nil
}

// latestFor returns the most recent entry for a pair key, nil if the
// pair was never observed.
func (t *timeline) latestFor(pair string) *Entry {
	return t.latest[pair]
}

// snapshot returns the newest limit entries in append order (all of them
// when limit <= 0).
func (t *timeline) snapshot(limit int) []*Entry {
	n := len(t.entries)
	if limit > 0 && limit < n {
		return append([]*Entry(nil), t.entries[n-limit:]...)
	}
	return append([]*Entry(nil), t.entries...)
}

// pairs returns the sorted pair keys the timeline has observed.
func (t *timeline) pairs() []string {
	out := make([]string, 0, len(t.latest))
	for k := range t.latest {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
