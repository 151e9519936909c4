// Package oracle is the top-level engine of the security policy oracle: it
// loads MJ library implementations, extracts MAY and MUST security
// policies for every API entry point with the ISPA analysis, and
// differences the policies of two implementations.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"policyoracle/internal/analysis"
	"policyoracle/internal/ast"
	"policyoracle/internal/callgraph"
	"policyoracle/internal/diff"
	"policyoracle/internal/ir"
	"policyoracle/internal/lang"
	"policyoracle/internal/parser"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/telemetry"
	"policyoracle/internal/types"
)

// Options configures policy extraction.
type Options struct {
	// Domain selects the check domain the extraction runs under: the
	// guard class, check table, and privileged-block semantics the ISPA
	// analysis recognizes. nil means the registered default
	// (SecurityManager) domain. The domain participates in bundle
	// fingerprints and incremental option keys — as an empty suffix for
	// the default domain, so pre-domain addresses are unchanged.
	Domain                *secmodel.Domain
	Events                secmodel.EventMode
	ICP                   bool
	AssumeSecurityManager bool
	Memo                  analysis.MemoMode
	// MaxDepth bounds interprocedural descent (-1 = unlimited).
	MaxDepth int
	// CollectPaths enables Figure 2-style path alternatives in MAY
	// policies.
	CollectPaths bool
	// CollectGuards records the branch conditions dominating each check
	// occurrence (Section 6.4's MAY-policy conditions; display only).
	CollectGuards bool
	// Modes restricts extraction to MAY or MUST only (both when empty),
	// which the Table 2 harness uses to time each independently.
	Modes []analysis.Mode
	// Parallel is the entry-point worker count per analysis mode: 1 (the
	// default) extracts sequentially, N > 1 fans entry points out over N
	// workers and runs the MAY and MUST modes concurrently, and any value
	// <= 0 means GOMAXPROCS. Parallel extraction produces byte-identical
	// policies and diff reports to sequential extraction.
	Parallel int
	// Telemetry, when non-nil, receives extraction metrics: per-mode
	// wall time, per-entry analysis durations, worker-pool busy time,
	// and the analyzer's per-phase work counters. Like Parallel and
	// Memo it is execution strategy, never part of the fingerprint, and
	// it cannot perturb the extracted policy bytes.
	Telemetry *telemetry.ExtractMetrics
	// Summaries, when non-nil, is a process-wide cross-library cache of
	// per-entry results: entries whose full dependency cone hashes
	// identically to a previous extraction under the same options are
	// spliced from the cache instead of re-analyzed. An incremental
	// extraction asks it after the previous revision, and an entry it
	// splices counts as reused in IncrementalStats. Like Telemetry it is
	// execution strategy — never part of the fingerprint — and cannot
	// perturb the extracted policy bytes (see SummaryCache).
	Summaries *SummaryCache
}

// DefaultOptions returns the configuration used for the paper's main
// results.
func DefaultOptions() Options {
	return Options{
		Events:                secmodel.NarrowEvents,
		ICP:                   true,
		AssumeSecurityManager: true,
		Memo:                  analysis.MemoGlobal,
		MaxDepth:              -1,
		CollectPaths:          true,
		Parallel:              1,
	}
}

// Library is one loaded implementation of the API under analysis.
type Library struct {
	Name     string
	Prog     *ir.Program
	Resolver *callgraph.Resolver
	Policies *policy.ProgramPolicies

	// Incremental-extraction state, filled by every extraction:
	// EntryDeps maps each entry-point signature to the sorted signatures
	// of the methods its analysis visited, and ExtractedOpts is the
	// option key (see extractKey) the policies were extracted under.
	// With the extraction's method hashes (see hashes) they are what
	// ExtractIncremental consumes as prev.
	EntryDeps     map[string][]string
	ExtractedOpts string

	// NCLoC is the number of non-comment, non-blank source lines.
	NCLoC int
	// Extraction statistics and timings, per mode. They describe only
	// the entries the last extraction ran through the analyzers, not
	// those it spliced.
	MayStats, MustStats analysis.Stats
	MayTime, MustTime   time.Duration
	Diags               *lang.Diagnostics
	// Parsed holds the parse result of every source file whose parse
	// recorded no diagnostic, sorted by path: what LoadRevision reuses
	// when it loads a later revision. The program shares its ASTs.
	Parsed []ParsedFile

	// domain is the check domain of the last extraction, the one its
	// method hashes are read under.
	domain *secmodel.Domain
	// hashMu/hashCache memoize MethodHashes per domain ID: the program
	// is immutable after load, so its content hashes are computed at
	// most once per (library, domain) no matter how many extractions run
	// on it. The cache is keyed by domain because check identity,
	// guard-state and privileged-scope facts feed the digests. A library
	// restored from a snapshot has no program; its cache holds the
	// snapshot's table under the snapshot's domain.
	hashMu    sync.Mutex
	hashCache map[string]map[string]string

	// events is the per-program event interning table, built on first use
	// and shared by every analyzer of this library.
	eventsOnce sync.Once
	events     *secmodel.ProgramEvents
}

// methodHashes returns the library's IR content hashes under domain d,
// computing them on first use per domain. A library without a program
// has only the hashes it was restored with.
func (l *Library) methodHashes(d *secmodel.Domain) map[string]string {
	l.hashMu.Lock()
	defer l.hashMu.Unlock()
	h, ok := l.hashCache[d.ID()]
	if !ok && l.Prog != nil {
		if l.hashCache == nil {
			l.hashCache = make(map[string]map[string]string, 1)
		}
		h = MethodHashes(l.Prog, l.Resolver, d)
		l.hashCache[d.ID()] = h
	}
	return h
}

// hashes returns the method hashes of the last extraction, keyed by
// qualified signature, under that extraction's domain; nil if the
// library was never extracted. Extraction hashes only when it consults
// a seed or a summary cache, so for most extractions the first read —
// a snapshot, or an incremental extraction seeded from this one — is
// what computes them.
func (l *Library) hashes() map[string]string {
	if l.domain == nil {
		return nil
	}
	return l.methodHashes(l.domain)
}

// eventInterns returns the library's event interning table, building it
// on first use.
func (l *Library) eventInterns() *secmodel.ProgramEvents {
	l.eventsOnce.Do(func() { l.events = secmodel.BuildProgramEvents(l.Prog.Types) })
	return l.events
}

// ParsedFile is one source file's parse result, the unit LoadRevision
// reuses from a library's previous revision. A parse depends only on the
// file's path and text, and nothing writes to an AST after its parse, so
// the result is valid for any revision holding the same file.
type ParsedFile struct {
	Path  string
	Src   string
	AST   *ast.File
	NCLoC int
}

// LoadLibrary parses and builds one implementation from named sources
// (file name → MJ source text).
func LoadLibrary(name string, sources map[string]string) (*Library, error) {
	return LoadRevision(name, sources, nil)
}

// LoadRevision is LoadLibrary for a new revision of a library whose
// previous revision parsed into prev (that revision's Library.Parsed):
// every file whose path and text are unchanged reuses its parse result,
// and only the others are parsed. Only parses that recorded no
// diagnostic are offered for reuse, so the diagnostics, positions and
// load errors are exactly a cold load's.
func LoadRevision(name string, sources map[string]string, prev []ParsedFile) (*Library, error) {
	var reuse map[string]ParsedFile
	if len(prev) > 0 {
		reuse = make(map[string]ParsedFile, len(prev))
		for _, pf := range prev {
			reuse[pf.Path] = pf
		}
	}
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	diags := &lang.Diagnostics{}
	files := make([]*ast.File, 0, len(names))
	parsed := make([]ParsedFile, 0, len(names))
	ncloc := 0
	for _, n := range names {
		src := sources[n]
		pf, ok := reuse[n]
		if !ok || pf.Src != src {
			before := diags.Len()
			pf = ParsedFile{Path: n, Src: src, AST: parser.ParseFile(n, src, diags), NCLoC: CountNCLoC(src)}
			ok = diags.Len() == before
		}
		files = append(files, pf.AST)
		ncloc += pf.NCLoC
		if ok {
			parsed = append(parsed, pf)
		}
	}
	tp := types.Build(name, files, diags)
	prog := ir.LowerProgram(tp, diags)
	if diags.HasErrors() {
		return nil, fmt.Errorf("loading %s: %w", name, diags.Err())
	}
	return &Library{
		Name:     name,
		Prog:     prog,
		Resolver: callgraph.NewResolver(prog),
		NCLoC:    ncloc,
		Diags:    diags,
		Parsed:   parsed,
	}, nil
}

// CountNCLoC counts non-comment, non-blank lines of MJ source.
func CountNCLoC(src string) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if inBlock {
			if i := strings.Index(s, "*/"); i >= 0 {
				inBlock = false
				s = strings.TrimSpace(s[i+2:])
			} else {
				continue
			}
		}
		if i := strings.Index(s, "//"); i >= 0 {
			s = strings.TrimSpace(s[:i])
		}
		for {
			i := strings.Index(s, "/*")
			if i < 0 {
				break
			}
			j := strings.Index(s[i+2:], "*/")
			if j < 0 {
				s = strings.TrimSpace(s[:i])
				inBlock = true
				break
			}
			s = strings.TrimSpace(s[:i] + s[i+2+j+2:])
		}
		if s != "" {
			n++
		}
	}
	return n
}

// EntryPoints returns the library's API entry points.
func (l *Library) EntryPoints() []*types.Method { return l.Prog.Types.EntryPoints() }

// Extract computes the security policies of every API entry point under
// opts, storing them in l.Policies.
//
// With opts.Parallel != 1 the MAY and MUST modes run concurrently and
// each mode fans its entry points out over a worker pool sharing one
// analyzer (and therefore one summary cache). Results are collected
// per-entry and merged in the same sorted entry order as the sequential
// path, so the extracted policies are byte-identical either way.
func (l *Library) Extract(opts Options) {
	// A background context never cancels, so the only error
	// ExtractContext can return is impossible here.
	_ = l.ExtractContext(context.Background(), opts)
}

// ExtractContext is Extract with cancellation: workers stop picking up
// entry points once ctx is done and the ctx error is returned, with
// l.Policies left untouched (a cancelled extraction never publishes a
// partial policy set). Cancellation is observed between entry-point
// analyses, so it takes effect within one entry analysis at worst.
func (l *Library) ExtractContext(ctx context.Context, opts Options) error {
	_, err := l.extract(ctx, opts.Normalize(), nil)
	return err
}

// publish installs one completed extraction on the library: the policies
// plus the incremental-extraction state derived from them.
func (l *Library) publish(pp *policy.ProgramPolicies, deps map[string][]string, key string, d *secmodel.Domain) {
	l.Policies = pp
	l.EntryDeps = deps
	l.ExtractedOpts = key
	l.domain = d
}

// extract is the one extraction routine behind ExtractContext and
// ExtractIncrementalContext. Every entry point whose dependencies all
// hash as they did when a cached policy was extracted is spliced from
// that policy, asking seed (the previous revision of this library; nil
// for none) first and opts.Summaries second; only the entries neither
// proves unchanged reach the analyzers, and extract returns how many
// that was. opts must already be normalized. The library's per-mode
// stats and timings are overwritten and describe exactly the analyzed
// entries.
func (l *Library) extract(ctx context.Context, opts Options, seed *SummaryCache) (int, error) {
	modes := opts.Modes
	workers := opts.Parallel
	if tm := opts.Telemetry; tm != nil {
		tm.Extractions.With(opts.Domain.ID()).Inc()
		tm.Workers.Set(float64(workers))
	}
	pp := policy.NewProgramPolicies(l.Name)
	if opts.Domain != secmodel.SecurityManager() {
		pp.Domain = opts.Domain.ID()
	}
	entries := l.EntryPoints()
	deps := make(map[string][]string, len(entries))
	key := extractKey(opts)
	var hashes map[string]string
	if seed != nil || opts.Summaries != nil {
		hashes = l.methodHashes(opts.Domain)
	}

	analyzed := make([]*types.Method, 0, len(entries))
	hits := 0
	for _, m := range entries {
		sig := m.Qualified()
		ep, d, ok := seed.lookup(key, sig, hashes)
		if !ok {
			if ep, d, ok = opts.Summaries.lookup(key, sig, hashes); ok {
				hits++
			}
		}
		if ok {
			pp.Entries[sig] = ep
			deps[sig] = d
		} else {
			analyzed = append(analyzed, m)
		}
	}
	if tm := opts.Telemetry; tm != nil && opts.Summaries != nil {
		tm.SummaryCacheHits.With(opts.Domain.ID()).Add(float64(hits))
		tm.SummaryCacheMisses.With(opts.Domain.ID()).Add(float64(len(analyzed)))
	}

	results := make(map[analysis.Mode]map[string]*analysis.EntryResult, len(modes))
	runMode := func(mode analysis.Mode) map[string]*analysis.EntryResult {
		cfg := analysis.Config{
			Mode:                  mode,
			Domain:                opts.Domain,
			Events:                opts.Events,
			ICP:                   opts.ICP,
			AssumeSecurityManager: opts.AssumeSecurityManager,
			Memo:                  opts.Memo,
			MaxDepth:              opts.MaxDepth,
			CollectPaths:          opts.CollectPaths && mode == analysis.May,
			CollectOrigins:        mode == analysis.May,
			CollectGuards:         opts.CollectGuards && mode == analysis.May,
			Telemetry:             opts.Telemetry,
			EventInterns:          l.eventInterns(),
		}
		a := analysis.New(l.Prog, l.Resolver, cfg)
		start := time.Now()
		perEntry := analyzeEntries(ctx, a, analyzed, workers)
		elapsed := time.Since(start)
		byEntry := make(map[string]*analysis.EntryResult, len(analyzed))
		for i, m := range analyzed {
			byEntry[m.Qualified()] = perEntry[i]
		}
		stats := a.Stats()
		if mode == analysis.May {
			l.MayStats, l.MayTime = stats, elapsed
		} else {
			l.MustStats, l.MustTime = stats, elapsed
		}
		opts.Telemetry.ObserveMode(mode.String(), opts.Domain.ID(), elapsed,
			stats.MethodAnalyses, stats.MemoHits, stats.CPRuns, stats.CPHits, stats.EntryPoints)
		return byEntry
	}
	if workers > 1 && len(modes) > 1 {
		byMode := make([]map[string]*analysis.EntryResult, len(modes))
		var wg sync.WaitGroup
		for i, mode := range modes {
			wg.Add(1)
			go func(i int, mode analysis.Mode) {
				defer wg.Done()
				byMode[i] = runMode(mode)
			}(i, mode)
		}
		wg.Wait()
		for i, mode := range modes {
			results[mode] = byMode[i]
		}
	} else {
		for _, mode := range modes {
			results[mode] = runMode(mode)
			if ctx.Err() != nil {
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}

	// Merge per-mode results into combined entry policies.
	mayRes := results[analysis.May]
	mustRes := results[analysis.Must]
	for _, m := range analyzed {
		sig := m.Qualified()
		ep := policy.NewEntryPolicy(sig)
		events := map[secmodel.Event]bool{}
		if r := mayRes[sig]; r != nil {
			for ev := range r.Events {
				events[ev] = true
			}
		}
		if r := mustRes[sig]; r != nil {
			for ev := range r.Events {
				events[ev] = true
			}
		}
		for ev := range events {
			evp := ep.EventPolicyFor(ev)
			if r := mustRes[sig]; r != nil {
				if er, ok := r.Events[ev]; ok {
					evp.Must = er.Checks
				}
			}
			if r := mayRes[sig]; r != nil {
				if er, ok := r.Events[ev]; ok {
					evp.May = er.Checks
					evp.Paths = er.Paths
				}
			}
			if evp.May.IsEmpty() && len(modes) == 1 && modes[0] == analysis.Must {
				// MUST-only extraction: mirror must into may for display.
				evp.May = evp.Must
			}
			if r := mayRes[sig]; r != nil {
				for _, o := range r.Origins {
					if evp.May.Has(o.Check) {
						evp.AddOrigin(o.Check, o.Sig)
					}
				}
			}
		}
		if opts.CollectGuards {
			if r := mayRes[sig]; r != nil {
				for _, o := range r.Origins {
					ep.AddGuard(o.Check, o.Guards)
				}
			}
		}
		pp.Entries[sig] = ep
		deps[sig] = mergeDeps(sig, mayRes[sig], mustRes[sig])
		opts.Summaries.insert(key, sig, deps[sig], hashes, ep)
	}
	l.publish(pp, deps, key, opts.Domain)
	return len(analyzed), nil
}

// mergeDeps unions the per-mode dependency sets of one entry. The sets
// agree in practice — reachability does not depend on the meet — but the
// union keeps reuse sound if a mode ever prunes differently. Each
// per-mode list is already sorted (see analysis.EntryResult.Deps), so
// the union is a linear two-pointer merge with no re-sort.
func mergeDeps(sig string, rs ...*analysis.EntryResult) []string {
	var a, b []string
	for _, r := range rs {
		if r == nil || len(r.Deps) == 0 {
			continue
		}
		if a == nil {
			a = r.Deps
		} else {
			b = mergeSorted(a, b)
			a = r.Deps
		}
	}
	out := mergeSorted(a, b)
	if len(out) == 0 {
		return []string{sig}
	}
	return out
}

// mergeSorted unions two sorted string lists, deduplicating. A nil second
// list returns the first unchanged (no copy — callers treat dep lists as
// immutable).
func mergeSorted(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// analyzeEntries analyzes every entry point on a shared analyzer, fanning
// the entries out over up to `workers` goroutines. The result slice is
// indexed like entries, so callers observe the same deterministic order
// regardless of scheduling; the workers share the analyzer's summary
// cache, the same structure that makes sequential global memoization pay.
// When ctx is cancelled, workers stop claiming entries; the caller
// detects the cancellation via ctx.Err and discards the partial slice.
func analyzeEntries(ctx context.Context, a *analysis.Analyzer, entries []*types.Method, workers int) []*analysis.EntryResult {
	out := make([]*analysis.EntryResult, len(entries))
	if workers > len(entries) {
		workers = len(entries)
	}
	if workers <= 1 {
		for i, m := range entries {
			if ctx.Err() != nil {
				return out
			}
			out[i] = a.AnalyzeEntry(m)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(entries) || ctx.Err() != nil {
					return
				}
				out[i] = a.AnalyzeEntry(entries[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// ErrNotExtracted reports a Diff over a library whose policies were
// never extracted.
var ErrNotExtracted = errors.New("oracle: library has no extracted policies (call Extract first)")

// ErrDomainMismatch reports a Diff whose two policy sets were extracted
// under different check domains. Their check sets index different
// tables, so the comparison fails loudly instead of producing nonsense.
var ErrDomainMismatch = errors.New("oracle: cannot diff policies from different check domains")

// Diff differences the extracted policies of two implementations. It
// fails loudly — never an empty report — when either side was not
// Extracted first or the sides were extracted under different check
// domains; use Compare for the extract-if-needed path.
func Diff(a, b *Library) (*diff.Report, error) {
	for _, l := range []*Library{a, b} {
		if l.Policies == nil {
			return nil, fmt.Errorf("%w: %s", ErrNotExtracted, l.Name)
		}
	}
	if a.Policies.Domain != b.Policies.Domain {
		return nil, fmt.Errorf("%w: %s has %q, %s has %q", ErrDomainMismatch,
			a.Name, secmodel.DomainLabel(a.Policies.Domain), b.Name, secmodel.DomainLabel(b.Policies.Domain))
	}
	return diff.Compare(a.Policies, b.Policies), nil
}

// Compare is the one-shot entry point: it extracts either library's
// policies under opts if they are missing, then differences them. A
// library that already has policies is never re-extracted, so mixing
// pre-extracted and fresh libraries works (at the caller's risk of
// having used different options).
func Compare(a, b *Library, opts Options) (*diff.Report, error) {
	for _, l := range []*Library{a, b} {
		if l.Policies == nil {
			if err := l.ExtractContext(context.Background(), opts); err != nil {
				return nil, fmt.Errorf("oracle: extracting %s: %w", l.Name, err)
			}
		}
	}
	return Diff(a, b)
}

// MatchingEntries counts entry-point signatures common to both libraries
// (Table 3's "Matching APIs").
func MatchingEntries(a, b *Library) int {
	n := 0
	bs := map[string]bool{}
	for _, m := range b.EntryPoints() {
		bs[m.Qualified()] = true
	}
	for _, m := range a.EntryPoints() {
		if bs[m.Qualified()] {
			n++
		}
	}
	return n
}
