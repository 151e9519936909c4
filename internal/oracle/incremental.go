package oracle

import (
	"context"
	"errors"
	"fmt"

	"policyoracle/internal/telemetry"
)

// This file implements incremental extraction: given a previous
// extraction (policies + per-entry dependency sets + method hashes, see
// Library), a changed source bundle is re-analyzed only for the entry
// points whose dependency set intersects the changed methods; every
// other entry's policy is spliced from the previous extraction
// unchanged. The previous extraction becomes a private SummaryCache
// seed, so the splice runs through the same loop and the same validity
// rule as the process-wide cache (see Library.extract). Because
// per-entry analysis is deterministic and the policy wire format is a
// byte fixed point under export/import, the spliced result is
// byte-identical to a from-scratch Extract of the new sources — asserted
// by the oracle tests and the metamorph incremental invariant.

// ErrNoPrevious reports an incremental extraction whose previous library
// carries no extracted policies to splice from.
var ErrNoPrevious = errors.New("oracle: previous library has no extracted policies to seed an incremental extraction")

// IncrementalStats describes how much work one incremental extraction
// reused versus redid, as the extraction measured it.
type IncrementalStats struct {
	// Entries is the number of API entry points in the new program.
	// Reanalyzed of them went through the MAY/MUST analyzers; the other
	// Reused = Entries - Reanalyzed were spliced, from the previous
	// extraction or, through Options.Summaries, from another library
	// already extracted in the process.
	Entries    int
	Reused     int
	Reanalyzed int
	// HashedMethods is the number of methods content-hashed in the new
	// program; ChangedMethods of them are new or hash differently from
	// the previous extraction.
	HashedMethods  int
	ChangedMethods int
	// Full marks a fallback to a from-scratch extraction: the previous
	// extraction used different options or carries no incremental state.
	Full bool
}

// ExtractIncremental loads sources under prev's name, reusing prev's
// parse of every unchanged file (see LoadRevision), and extracts
// policies for them, reusing prev's per-entry policies wherever prev's
// dependency sets and method hashes prove the analysis inputs are
// unchanged. The returned library's policies are byte-identical (in the
// wire format, and in diff -json reports) to a from-scratch Extract of
// the same sources under the same options.
//
// prev must have been extracted under the same options (including the
// CollectPaths/CollectGuards display flags, which shape in-memory
// policies); otherwise the call transparently falls back to a full
// extraction, reported via IncrementalStats.Full.
func ExtractIncremental(prev *Library, sources map[string]string, opts Options) (*Library, *IncrementalStats, error) {
	if prev == nil || prev.Policies == nil {
		return nil, nil, ErrNoPrevious
	}
	lib, err := LoadRevision(prev.Name, sources, prev.Parsed)
	if err != nil {
		return nil, nil, err
	}
	st, err := ExtractIncrementalContext(context.Background(), prev, lib, opts)
	if err != nil {
		return nil, nil, err
	}
	return lib, st, nil
}

// ExtractIncrementalContext is ExtractIncremental on a library the
// caller already loaded, with cancellation observed between entry-point
// analyses exactly like ExtractContext. The store's update path calls
// it on the library its upload validation loaded, so an update runs the
// frontend once.
func ExtractIncrementalContext(ctx context.Context, prev, lib *Library, opts Options) (*IncrementalStats, error) {
	if prev == nil || prev.Policies == nil {
		return nil, ErrNoPrevious
	}
	opts = opts.Normalize()
	hashes, prevHashes := lib.methodHashes(opts.Domain), prev.hashes()
	st := &IncrementalStats{HashedMethods: len(hashes), ChangedMethods: countChanged(prevHashes, hashes)}
	var seed *SummaryCache
	if key := extractKey(opts); prev.ExtractedOpts == key && len(prevHashes) > 0 && len(prev.EntryDeps) > 0 {
		seed = seedFrom(prev, prevHashes, key)
	} else {
		// The previous extraction cannot prove anything about this one;
		// rebuild from scratch rather than guess.
		st.Full = true
	}
	var err error
	if st.Reanalyzed, err = lib.extract(ctx, opts, seed); err != nil {
		return nil, err
	}
	st.Entries = len(lib.Policies.Entries)
	st.Reused = st.Entries - st.Reanalyzed
	observeIncremental(opts.Telemetry, st, lib.EntryDeps)
	return st, nil
}

func countChanged(prev, cur map[string]string) int {
	n := 0
	for sig, h := range cur {
		if ph, ok := prev[sig]; !ok || ph != h {
			n++
		}
	}
	return n
}

// extractKey is the option key an incremental extraction must match to
// splice from a previous one: the canonical semantic options plus the
// display-collection flags. CollectPaths/CollectGuards do not affect the
// wire format, but spliced EntryPolicy values are shared in memory, so
// mixing flags would hand callers policies whose display data is
// inconsistent across entries.
func extractKey(o Options) string {
	return fmt.Sprintf("%s paths=%t guards=%t", CanonicalOptions(o), o.CollectPaths, o.CollectGuards)
}

func observeIncremental(tm *telemetry.ExtractMetrics, st *IncrementalStats, deps map[string][]string) {
	if tm == nil {
		return
	}
	tm.IncrementalReused.Add(float64(st.Reused))
	tm.IncrementalReanalyzed.Add(float64(st.Reanalyzed))
	tm.IncrementalHashed.Add(float64(st.HashedMethods))
	for _, d := range deps {
		tm.DepSetSize.Observe(float64(len(d)))
	}
}
