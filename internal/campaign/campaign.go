// Package campaign is the metamorphic campaign engine layered on
// internal/metamorph and its only campaign runner: `polora fuzz`,
// polorad's /v1/campaign, and the metamorph campaign tests all use it.
// A campaign closes the loop the way coverage-guided fuzzers do: each
// round is summarized into a cheap coverage key (mutators applied ×
// invariants stressed × analysis-shape counter deltas × diff root keys),
// rounds that discover new keys boost the energy of the mutators that
// produced them (barren rounds decay it; Options.Uniform turns feedback
// off), and every violation is triaged — minimized to its smallest
// reproducing mutation trace and deduplicated by a stable fingerprint —
// instead of dumped raw.
//
// Determinism is structural: a campaign is divided into fixed-size
// shards, and each shard is an independent, fully sequential feedback
// unit with its own RNG, energy state, and summary cache, all derived
// from (Seed, shard index). Shards therefore parallelize — across local
// workers or across polorad processes via /v1/campaign — and merging
// shard results is a pure function, so a remote N-worker campaign
// produces byte-identical results to a local run of the same options.
package campaign

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/telemetry"
)

// Options configures a campaign. The deterministic identity of a
// campaign — what must match for two runs to produce identical results —
// is (sources, Seed, Rounds, Mutations, ShardRounds, Uniform, Oracle
// semantics, ParallelEvery, IncrementalEvery); Workers, OutDir, Metrics,
// and Poll are execution strategy. RunRemote runs only campaigns whose
// Oracle semantics, ParallelEvery, IncrementalEvery and Mutators are the
// defaults a worker uses.
type Options struct {
	// Seed derives every shard's RNG and energy trajectory.
	Seed int64
	// Rounds is the campaign's total round count (default 100).
	Rounds int
	// Mutations is the number of mutator draws per round (default 8).
	Mutations int
	// Workers bounds concurrently running shards in a local Run; <= 0
	// means GOMAXPROCS.
	Workers int
	// ShardRounds is the size of one deterministic feedback unit
	// (default 32). Energy feedback and coverage novelty are scoped to a
	// shard, which is what makes shards order-independent and therefore
	// distributable.
	ShardRounds int
	// Uniform disables coverage feedback: every alive mutator keeps
	// weight 1, discoveries earn no boost and barren rounds no decay.
	// The A/B fallback the guided schedule is measured against.
	Uniform bool
	// Oracle overrides extraction semantics (nil means
	// oracle.DefaultOptions). NewEngine pins serial extraction and
	// rejects options metamorph.ValidateOracle calls unsound for the
	// mutator catalog (broad events, bounded MaxDepth).
	Oracle *oracle.Options
	// ParallelEvery / IncrementalEvery sample invariants (c)/(e) — each
	// costs extra full extractions — on every round whose campaign-wide
	// index is a multiple of N; 0 means every 8th, < 0 disables.
	ParallelEvery    int
	IncrementalEvery int
	// OutDir, when non-empty, receives one self-contained reproducer
	// bundle per unique crasher (see WriteArtifacts).
	OutDir string
	// Metrics, when non-nil, receives polora_campaign_* counters.
	Metrics *telemetry.CampaignMetrics
	// Poll is the remote campaign status poll interval (default 200ms);
	// only RunRemote reads it.
	Poll time.Duration
	// Mutators overrides the mutator catalog (default
	// metamorph.Mutators()). A test hook: triage tests inject a
	// deliberately unsound mutator to seed known violations.
	Mutators []metamorph.Mutator
}

func (o Options) withDefaults() Options {
	if o.Rounds <= 0 {
		o.Rounds = 100
	}
	if o.Mutations <= 0 {
		o.Mutations = 8
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ShardRounds <= 0 {
		o.ShardRounds = 32
	}
	if o.ParallelEvery == 0 {
		o.ParallelEvery = 8
	}
	if o.IncrementalEvery == 0 {
		o.IncrementalEvery = 8
	}
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	return o
}

// Schedule names the active scheduling mode for reports.
func (o Options) Schedule() string {
	if o.Uniform {
		return "uniform"
	}
	return "guided"
}

// A Crasher is one triaged, deduplicated invariant violation: the
// root-cause identity (fingerprint over invariant + diff root keys +
// normalized detail), the minimized mutation trace that reproduces it,
// and how often the campaign hit it.
type Crasher struct {
	Fingerprint string   `json:"fingerprint"`
	Invariant   string   `json:"invariant"`
	RootKeys    []string `json:"root_keys,omitempty"`
	// Detail is the normalized violation detail the fingerprint hashes.
	Detail string `json:"detail"`
	// FirstRound is the campaign round that first hit this fingerprint.
	FirstRound int `json:"first_round"`
	// Seen counts raw violations folded into this crasher.
	Seen int `json:"seen"`
	// Trace replays the crasher over the original sources via
	// metamorph.ApplySteps; after successful minimization it is the
	// smallest reproducing subset found.
	Trace []metamorph.Step `json:"trace"`
	// Minimized reports whether the trace re-verified during greedy
	// reduction; false flags an unstable (e.g. schedule-dependent)
	// violation the minimizer could not reproduce.
	Minimized bool `json:"minimized"`
	// MinimizerSteps counts re-verification extractions spent on this
	// crasher.
	MinimizerSteps int `json:"minimizer_steps"`
	// Bundle is the reproducer-bundle directory, when artifacts were
	// written.
	Bundle string `json:"bundle,omitempty"`
}

// ShardResult is the outcome of one deterministic feedback unit — the
// value /v1/campaign workers compute and Merge folds together.
type ShardResult struct {
	Shard      int `json:"shard"`
	StartRound int `json:"start_round"`
	Rounds     int `json:"rounds"`
	// Keys holds the shard's distinct coverage keys in first-seen order;
	// len(Keys) is the shard's new-coverage round count.
	Keys          []string           `json:"keys"`
	RawViolations int                `json:"raw_violations"`
	Crashers      []*Crasher         `json:"crashers,omitempty"`
	Applied       map[string]int     `json:"applied"`
	Attempted     map[string]int     `json:"attempted"`
	Energy        map[string]float64 `json:"energy"`
}

// Result is a merged campaign report: a pure function of (sources,
// deterministic options), independent of worker count or shard
// placement. Elapsed is excluded from the JSON encoding so two runs of
// the same campaign marshal byte-identically.
type Result struct {
	Library  string `json:"library"`
	Domain   string `json:"domain"`
	Schedule string `json:"schedule"`
	Seed     int64  `json:"seed"`
	Rounds   int    `json:"rounds"`
	// Entries is the baseline library's entry-point count.
	Entries int `json:"entries"`
	// CoverageKeys is the campaign-wide distinct key set, sorted.
	CoverageKeys []string `json:"coverage_keys"`
	// NewCoverageRounds counts rounds that discovered a key new to their
	// shard (the feedback events that earned energy boosts).
	NewCoverageRounds int                `json:"new_coverage_rounds"`
	RawViolations     int                `json:"raw_violations"`
	Crashers          []*Crasher         `json:"crashers,omitempty"`
	Applied           map[string]int     `json:"applied"`
	Attempted         map[string]int     `json:"attempted"`
	Energy            map[string]float64 `json:"energy"`
	Elapsed           time.Duration      `json:"-"`
}

// An Engine holds the immutable per-campaign state — parsed options,
// the extracted baseline — and runs shards against it. polorad keeps
// engines cached across shard requests so one baseline extraction
// serves a whole remote campaign.
type Engine struct {
	name    string
	sources map[string]string
	opts    Options
	serial  oracle.Options
	base    *oracle.Library
	muts    []metamorph.Mutator
}

// NewEngine validates options, parses the bundle, and extracts the
// baseline once. A baseline that already breaks an invariant against
// itself (MUST ⊄ MAY, a non-fixed-point export) is an error: every
// round would inherit it.
func NewEngine(name string, sources map[string]string, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	serial := oracle.DefaultOptions()
	if opts.Oracle != nil {
		serial = *opts.Oracle
	}
	serial.Parallel = 1
	serial.Telemetry = nil
	serial.Summaries = nil
	if err := metamorph.ValidateOracle(serial); err != nil {
		return nil, err
	}
	if _, err := metamorph.ParseBundle(sources); err != nil {
		return nil, err
	}
	base, err := oracle.LoadLibrary(name, sources)
	if err != nil {
		return nil, fmt.Errorf("campaign: loading baseline: %w", err)
	}
	base.Extract(serial)
	if vs := metamorph.CheckExtracted(base, base, sources, serial, metamorph.MutantChecks{}); len(vs) > 0 {
		return nil, fmt.Errorf("campaign: baseline %s: %s", vs[0].Invariant, vs[0].Detail)
	}
	muts := opts.Mutators
	if muts == nil {
		muts = metamorph.Mutators()
	}
	return &Engine{
		name:    name,
		sources: sources,
		opts:    opts,
		serial:  serial,
		base:    base,
		muts:    muts,
	}, nil
}

// Shards returns the campaign's shard count.
func (e *Engine) Shards() int {
	return (e.opts.Rounds + e.opts.ShardRounds - 1) / e.opts.ShardRounds
}

// shardSeed decorrelates per-shard RNG streams drawn from one campaign
// seed (odd-constant spacing).
func shardSeed(seed int64, shard int) int64 {
	return seed + int64(shard+1)*0x2545f4914f6cdd1d
}

// mutatorByName resolves a name against the engine's catalog (which may
// include injected test mutators the global catalog lacks).
func (e *Engine) mutatorByName(name string) (metamorph.Mutator, bool) {
	for _, m := range e.muts {
		if m.Name == name {
			return m, true
		}
	}
	return metamorph.Mutator{}, false
}

// applyTrace replays steps over the original sources using the engine's
// catalog; ok is false when the trace names an unknown mutator.
func (e *Engine) applyTrace(steps []metamorph.Step) (map[string]string, error) {
	b, err := metamorph.ParseBundle(e.sources)
	if err != nil {
		return nil, err
	}
	for _, s := range steps {
		m, ok := e.mutatorByName(s.Mutator)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown mutator %q in trace", s.Mutator)
		}
		metamorph.ApplyStep(b, m, s.Seed)
	}
	return b.Sources(), nil
}

// RunShard executes one feedback unit: ShardRounds sequential rounds
// with a private RNG, scheduler, and summary cache, then triages the
// shard's violations into minimized, deduplicated crashers.
func (e *Engine) RunShard(shard int) (*ShardResult, error) {
	if shard < 0 || shard >= e.Shards() {
		return nil, fmt.Errorf("campaign: shard %d out of range [0,%d)", shard, e.Shards())
	}
	start := shard * e.opts.ShardRounds
	n := e.opts.ShardRounds
	if start+n > e.opts.Rounds {
		n = e.opts.Rounds - start
	}
	rng := rand.New(rand.NewSource(shardSeed(e.opts.Seed, shard)))
	sched := newScheduler(e.muts, !e.opts.Uniform)
	serial := e.serial
	serial.Summaries = oracle.NewSummaryCache(0)

	res := &ShardResult{
		Shard:      shard,
		StartRound: start,
		Rounds:     n,
		Applied:    map[string]int{},
		Attempted:  map[string]int{},
	}
	seen := map[string]bool{}
	crashers := map[string]*Crasher{}
	var order []string
	m := e.opts.Metrics

	for i := 0; i < n; i++ {
		r := start + i
		trace, applied := e.mutateRound(rng, sched, res)
		mutated, err := e.applyTrace(trace)
		if err != nil {
			// The original sources parsed in NewEngine and mutators keep
			// bundles well-formed, so this is itself invariant-worthy.
			return nil, err
		}

		var violations []metamorph.Violation
		var libStats libShape
		h0, m0 := serial.Summaries.Stats()
		lib, lerr := oracle.LoadLibrary(fmt.Sprintf("%s+r%d", e.name, r), mutated)
		if lerr != nil {
			violations = []metamorph.Violation{{Invariant: "load", Detail: lerr.Error()}}
		} else {
			lib.Extract(serial)
			chk := metamorph.MutantChecks{
				Parallel:    e.opts.ParallelEvery > 0 && r%e.opts.ParallelEvery == 0,
				Incremental: e.opts.IncrementalEvery > 0 && r%e.opts.IncrementalEvery == 0,
			}
			h1, m1 := serial.Summaries.Stats()
			libStats = libShape{
				may:     lib.MayStats,
				must:    lib.MustStats,
				scHits:  h1 - h0,
				scMiss:  m1 - m0,
				checked: chk,
			}
			violations = metamorph.CheckExtracted(e.base, lib, mutated, e.serial, chk)
		}
		for vi := range violations {
			violations[vi].Round = r
			violations[vi].Mutators = applied
		}

		key := coverageKey(applied, libStats, e.base, violations)
		if !seen[key] {
			seen[key] = true
			res.Keys = append(res.Keys, key)
			sched.reward(applied)
			if m != nil {
				m.NewCoverage.Inc()
			}
		} else {
			sched.penalize(applied)
		}
		if m != nil {
			m.Rounds.Inc()
		}

		res.RawViolations += len(violations)
		for _, v := range violations {
			fp := Fingerprint(v)
			if c := crashers[fp]; c != nil {
				c.Seen++
				continue
			}
			crashers[fp] = &Crasher{
				Fingerprint: fp,
				Invariant:   v.Invariant,
				RootKeys:    v.RootKeys,
				Detail:      NormalizeDetail(v.Detail),
				FirstRound:  r,
				Seen:        1,
				Trace:       append([]metamorph.Step(nil), trace...),
			}
			order = append(order, fp)
		}
	}

	for _, fp := range order {
		c := crashers[fp]
		e.minimize(c)
		if m != nil {
			m.MinimizerSteps.Add(float64(c.MinimizerSteps))
		}
		res.Crashers = append(res.Crashers, c)
	}
	res.Energy = sched.snapshot()
	return res, nil
}

// mutateRound draws up to Mutations mutators through the scheduler,
// applying each with a private per-step seed so the resulting trace is
// subsettable. Dead-mutator tracking mirrors metamorph.mutate: a
// mutator with no applicable site leaves the draw pool until another
// rewrite changes the bundle.
func (e *Engine) mutateRound(rng *rand.Rand, sched *scheduler, res *ShardResult) (trace []metamorph.Step, applied []string) {
	b, err := metamorph.ParseBundle(e.sources)
	if err != nil {
		// NewEngine already parsed these sources.
		panic("campaign: baseline sources stopped parsing: " + err.Error())
	}
	dead := make([]bool, len(e.muts))
	alive := len(e.muts)
	for k := 0; k < e.opts.Mutations && alive > 0; k++ {
		idx := sched.pick(rng, dead)
		seed := rng.Int63()
		mut := e.muts[idx]
		res.Attempted[mut.Name]++
		if metamorph.ApplyStep(b, mut, seed) {
			trace = append(trace, metamorph.Step{Mutator: mut.Name, Seed: seed})
			applied = append(applied, mut.Name)
			res.Applied[mut.Name]++
			if alive < len(e.muts) {
				for j := range dead {
					dead[j] = false
				}
				alive = len(e.muts)
			}
		} else {
			dead[idx] = true
			alive--
			// A failed application is wasted budget the applied-set
			// feedback below never sees; decay it immediately so arms
			// with no applicable sites fade instead of draining every
			// round's draws.
			sched.penalize([]string{mut.Name})
		}
	}
	return trace, applied
}

// Merge folds shard results into one campaign Result. It is pure and
// order-insensitive (shards are sorted by index first), which is the
// property that makes a distributed campaign equal a local one.
func (e *Engine) Merge(shards []*ShardResult) *Result {
	sorted := append([]*ShardResult(nil), shards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })

	res := &Result{
		Library:   e.name,
		Domain:    domainID(e.serial.Domain),
		Schedule:  e.opts.Schedule(),
		Seed:      e.opts.Seed,
		Entries:   len(e.base.EntryPoints()),
		Applied:   map[string]int{},
		Attempted: map[string]int{},
		Energy:    map[string]float64{},
	}
	keys := map[string]bool{}
	crashers := map[string]*Crasher{}
	for _, s := range sorted {
		res.Rounds += s.Rounds
		res.NewCoverageRounds += len(s.Keys)
		res.RawViolations += s.RawViolations
		for _, k := range s.Keys {
			if !keys[k] {
				keys[k] = true
				res.CoverageKeys = append(res.CoverageKeys, k)
			}
		}
		for mname, c := range s.Applied {
			res.Applied[mname] += c
		}
		for mname, c := range s.Attempted {
			res.Attempted[mname] += c
		}
		for mname, v := range s.Energy {
			res.Energy[mname] += v
		}
		for _, c := range s.Crashers {
			if prev := crashers[c.Fingerprint]; prev != nil {
				prev.Seen += c.Seen
				continue
			}
			cc := *c
			crashers[c.Fingerprint] = &cc
			res.Crashers = append(res.Crashers, &cc)
		}
	}
	if len(sorted) > 0 {
		for mname := range res.Energy {
			res.Energy[mname] /= float64(len(sorted))
		}
	}
	sort.Strings(res.CoverageKeys)
	sort.Slice(res.Crashers, func(i, j int) bool {
		return res.Crashers[i].FirstRound < res.Crashers[j].FirstRound
	})
	if m := e.opts.Metrics; m != nil {
		m.Crashers.With("unique").Add(float64(len(res.Crashers)))
		m.Crashers.With("duplicate").Add(float64(res.RawViolations - len(res.Crashers)))
		for mname, v := range res.Energy {
			m.Energy.With(mname).Set(v)
		}
	}
	return res
}

// Run executes a full local campaign: all shards over a worker pool,
// merged, with reproducer bundles written when OutDir is set.
func Run(name string, sources map[string]string, opts Options) (*Result, error) {
	e, err := NewEngine(name, sources, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	nshards := e.Shards()
	results := make([]*ShardResult, nshards)
	errs := make([]error, nshards)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := e.opts.Workers
	if workers > nshards {
		workers = nshards
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= nshards {
					return
				}
				results[s], errs[s] = e.RunShard(s)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := e.Merge(results)
	res.Elapsed = time.Since(start)
	if e.opts.OutDir != "" {
		if err := WriteArtifacts(e.opts.OutDir, sources, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
