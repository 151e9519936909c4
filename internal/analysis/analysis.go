// Package analysis implements the paper's core contribution: the flow- and
// context-sensitive interprocedural security policy analysis.
//
// SPDA (Algorithm 1) is the intraprocedural worklist dataflow over the
// powerset-of-checks lattice; ISPA (Algorithm 2) extends it across calls
// with context sensitivity and memoizes summaries keyed on the method, the
// inbound policy flow value, and the constant parameter values.
// Interprocedural constant propagation binds constant arguments into
// callees so that constant-guarded checks (the paper's Figure 4) are
// analyzed precisely; checks inside AccessController.doPrivileged blocks
// are semantic no-ops (Section 6.2).
package analysis

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"policyoracle/internal/bitset"
	"policyoracle/internal/callgraph"
	"policyoracle/internal/cfg"
	"policyoracle/internal/constprop"
	"policyoracle/internal/dataflow"
	"policyoracle/internal/ir"
	"policyoracle/internal/policy"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/telemetry"
	"policyoracle/internal/types"
)

// Mode selects the dataflow meet: MAY (union) or MUST (intersection).
type Mode int

// Analysis modes.
const (
	May Mode = iota
	Must
)

func (m Mode) String() string {
	if m == Must {
		return "must"
	}
	return "may"
}

// MemoMode selects summary reuse, the swept parameter of Table 2.
type MemoMode int

// Memoization modes.
const (
	MemoGlobal   MemoMode = iota // summaries reused across all entry points
	MemoPerEntry                 // summaries reused within one entry point
	MemoNone                     // every call re-analyzed
)

func (m MemoMode) String() string {
	switch m {
	case MemoGlobal:
		return "global"
	case MemoPerEntry:
		return "per-entry"
	default:
		return "none"
	}
}

// Config controls one analysis run.
type Config struct {
	Mode   Mode
	Events secmodel.EventMode
	// Domain is the check domain analyzed: which class owns the security
	// checks, which calls enter privileged scope, and which call is the
	// guard-state accessor. Nil means the default SecurityManager domain
	// (secmodel.SecurityManager()).
	Domain *secmodel.Domain
	// ICP enables interprocedural constant propagation (binding constant
	// arguments into callees). Intraprocedural constant propagation is
	// always on, as in Soot.
	ICP bool
	// AssumeSecurityManager folds `System.getSecurityManager() != null`
	// guards to the taken branch, so guarded checks participate in MUST
	// policies (the library is analyzed as if a manager is installed).
	AssumeSecurityManager bool
	Memo                  MemoMode
	// MaxDepth bounds interprocedural descent; 0 analyzes entry-point
	// bodies only (used to classify intraprocedural root causes) and -1 is
	// unlimited.
	MaxDepth int
	// CollectPaths tracks bounded per-path check conjunctions (Figure 2
	// style); valid in May mode only.
	CollectPaths bool
	// CollectOrigins records, per check, the methods whose bodies invoke
	// it (for root-cause grouping of report manifestations).
	CollectOrigins bool
	// RecursionBound allows re-analyzing a method already on the call
	// stack up to this many times before cutting off. 0 is the paper's
	// main implementation (recursive calls are not re-analyzed); Section
	// 4.2 notes the bounded-traversal alternative this option implements.
	RecursionBound int
	// CollectGuards records, per check occurrence, the source positions of
	// the branch conditions dominating it — the MAY-policy conditions
	// Section 6.4 says are easy to report (and overwhelming to read, which
	// is why this is opt-in display data rather than comparison input).
	CollectGuards bool
	// Telemetry, when non-nil, receives a per-entry-point analysis
	// duration sample from every AnalyzeEntry call (the mode label is
	// Mode.String()). Nil — the default — costs one pointer comparison
	// per entry and never perturbs analysis results: telemetry observes
	// the analyzer, it cannot steer it.
	Telemetry *telemetry.ExtractMetrics
	// EventInterns, when non-nil, supplies the per-program event
	// interning table. Analyzers of one library should share one table
	// (the oracle builds it at load time); New builds a private table
	// when nil. Interned event ids are an internal encoding — results
	// are reported as secmodel.Event values either way.
	EventInterns *secmodel.ProgramEvents
}

// DefaultConfig returns the configuration used for the paper's main
// results: MAY or MUST, narrow events, ICP on, global memoization.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:                  mode,
		Events:                secmodel.NarrowEvents,
		ICP:                   true,
		AssumeSecurityManager: true,
		Memo:                  MemoGlobal,
		MaxDepth:              -1,
		CollectPaths:          mode == May,
		CollectOrigins:        true,
	}
}

// Stats counts analysis work for the Table 2 reproduction.
//
// Under concurrent extraction with global memoization, two workers may
// race to a cold memo key and both solve it; MethodAnalyses then counts
// both solves, so it can exceed the sequential count by the number of
// such races. The analysis results themselves are unaffected (summaries
// are pure functions of their key), and all other counters merge exactly.
type Stats struct {
	MethodAnalyses int // SPDA solves (memo misses)
	MemoHits       int
	CPRuns         int // constant propagation solves
	CPHits         int
	EntryPoints    int
}

// atomicStats is the analyzer-internal accumulator behind Stats: plain
// atomic counters so concurrent entry analyses merge without locks.
type atomicStats struct {
	methodAnalyses atomic.Int64
	memoHits       atomic.Int64
	cpRuns         atomic.Int64
	cpHits         atomic.Int64
	entryPoints    atomic.Int64
}

// cacheStripes is the number of lock stripes in the shared summary and
// constant-propagation caches. A power of two well above typical core
// counts keeps contention negligible without bloating the analyzer.
const cacheStripes = 64

// memoStripe is one lock-striped shard of the global summary cache.
// Stored summaries are immutable, so readers share them freely.
type memoStripe struct {
	mu sync.RWMutex
	m  map[memoKey]*summary
}

// cpStripe is one lock-striped shard of the global constant-propagation
// cache; constprop.Result is read-only after Analyze returns.
type cpStripe struct {
	mu sync.RWMutex
	m  map[cpKey]*constprop.Result
}

// Analyzer runs ISPA over one program under one configuration.
//
// An Analyzer is safe for concurrent use: AnalyzeEntry may be called from
// many goroutines at once. All mutable state is either striped behind
// locks here (the summary/CP/taint/dominator caches and the call-site
// resolution cache, all holding immutable values) or private to one
// AnalyzeEntry invocation (the recursion stack and recorder, see task).
type Analyzer struct {
	prog *ir.Program
	res  *callgraph.Resolver
	cfg  Config
	ev   *secmodel.ProgramEvents

	memo    [cacheStripes]memoStripe
	cp      [cacheStripes]cpStripe
	paths   pathsInterner
	consts  constsInterner
	taskMu  sync.Mutex
	tasks   []*task // idle tasks, at most one per concurrent AnalyzeEntry
	taintMu sync.RWMutex
	taints  map[*ir.Func][]uint64          // per-local param-taint masks, by Local.Index
	sites   []atomic.Pointer[types.Method] // by Call.Site; unresolvedSite = resolved to nothing
	domMu   sync.Mutex
	doms    map[*ir.Func]*cfg.Dominators
	stats   atomicStats
}

// memoKey is the ISPA summary key: the method, the privileged flag, the
// entry flag, the inbound flow value, and interned ids for the path sets
// and the constant parameter binding. All fields are fixed-size integers —
// building a key allocates nothing, and the former string rendering of
// the flow value is gone from the hot path.
type memoKey struct {
	method int32
	flags  uint8 // keyPriv | keyEntry
	bits   policy.CheckSet
	paths  uint32 // interned PathSets id; 0 when paths are not collected
	consts uint32 // interned constant-binding id; 0 when none
}

const (
	keyPriv  = 1 << iota // analyzed under privileged execution
	keyEntry             // entry analyses also record return events
)

// stripe maps the key onto a cache stripe with an FNV-1a style mix of its
// fields, spreading keys that share a method across stripes.
func (k memoKey) stripe() int {
	h := mixUint64(fnvOffset, uint64(k.method)<<8|uint64(k.flags))
	h = mixUint64(h, uint64(k.bits))
	h = mixUint64(h, uint64(k.paths)<<32|uint64(k.consts))
	return int(h % cacheStripes)
}

type cpKey struct {
	method int32
	consts uint32
}

func (k cpKey) stripe() int {
	return int(mixUint64(fnvOffset, uint64(k.method)<<32|uint64(k.consts)) % cacheStripes)
}

// New returns an analyzer for p.
func New(p *ir.Program, res *callgraph.Resolver, cfg Config) *Analyzer {
	if cfg.CollectPaths && cfg.Mode != May {
		cfg.CollectPaths = false
	}
	if cfg.Domain == nil {
		cfg.Domain = secmodel.SecurityManager()
	}
	ev := cfg.EventInterns
	if ev == nil {
		ev = secmodel.BuildProgramEvents(p.Types)
	}
	a := &Analyzer{
		prog:   p,
		res:    res,
		cfg:    cfg,
		ev:     ev,
		sites:  make([]atomic.Pointer[types.Method], p.NumSites),
		taints: make(map[*ir.Func][]uint64),
	}
	for i := range a.memo {
		a.memo[i].m = make(map[memoKey]*summary)
	}
	for i := range a.cp {
		a.cp[i].m = make(map[cpKey]*constprop.Result)
	}
	return a
}

// Stats returns the accumulated work counters.
func (a *Analyzer) Stats() Stats {
	return Stats{
		MethodAnalyses: int(a.stats.methodAnalyses.Load()),
		MemoHits:       int(a.stats.memoHits.Load()),
		CPRuns:         int(a.stats.cpRuns.Load()),
		CPHits:         int(a.stats.cpHits.Load()),
		EntryPoints:    int(a.stats.entryPoints.Load()),
	}
}

// OriginRec records that a check is invoked in a method's body. With
// Config.CollectGuards, Guards lists the source positions of the branch
// conditions that dominate the check (empty for unconditional checks).
type OriginRec struct {
	Check  secmodel.CheckID
	Sig    string
	Guards string // comma-joined guard positions, "" when unconditional
}

// EventResult is the per-event outcome of one entry-point analysis in one
// mode: the combined check set (∩ across occurrences for MUST, ∪ for MAY)
// and the path alternatives.
type EventResult struct {
	Checks      policy.CheckSet
	Paths       policy.PathSets
	Occurrences int
}

// EntryResult is the outcome of analyzing one API entry point.
type EntryResult struct {
	Entry   string
	Method  *types.Method
	Events  map[secmodel.Event]*EventResult
	Origins []OriginRec
	// Deps lists the sorted qualified signatures of every method whose
	// body the analysis visited for this entry, the entry itself included —
	// the entry's dependency set for incremental extraction.
	Deps []string
}

// task is the state private to one AnalyzeEntry invocation: the recursion
// stack of the ISPA descent, a freelist of dataflow frames (each active
// ispa nesting level holds one solver), a freelist of dependency bitsets,
// and, under MemoPerEntry/MemoNone, the entry-scoped caches. Concurrent
// entry analyses each run on their own task and share only the Analyzer's
// striped caches.
//
// Idle tasks wait on the Analyzer's freelist: steady-state extraction
// reuses the recursion-stack slice, the solver buffers, and the
// entry-local maps of a previous entry instead of reallocating them. The
// freelist is a plain slice the Analyzer owns. A pool from package sync
// would register itself with the runtime, which then keeps the pool, and
// through it the whole Analyzer with its summary and CP caches,
// reachable for up to two garbage collections after the extraction drops
// the Analyzer; owned, all of it is freed by the first.
type task struct {
	a      *Analyzer
	active []int32                     // recursion counts, by Method.ID
	memo   map[memoKey]*summary        // entry-local summaries (MemoPerEntry)
	cp     map[cpKey]*constprop.Result // entry-local CP results (MemoPerEntry/MemoNone)
	frames []*frame                    // freelist of solver frames
	sets   []bitset.Set                // freelist of dependency-set scratch
}

// frame is the per-ispa-nesting-level dataflow machinery: a reusable
// solver plus a Problem whose closures are bound once to the frame's
// mutable call context. ISPA recurses during Solve (Transfer descends
// into callees), so each active nesting level needs its own frame; the
// task freelist reuses frames across sibling calls.
type frame struct {
	t       *task
	solver  dataflow.Solver[state]
	prob    dataflow.Problem[state]
	m       *types.Method
	f       *ir.Func
	cp      *constprop.Result
	priv    bool
	depth   int
	isEntry bool
}

func (t *task) getFrame() *frame {
	if n := len(t.frames); n > 0 {
		fr := t.frames[n-1]
		t.frames = t.frames[:n-1]
		return fr
	}
	fr := &frame{t: t}
	fr.prob.Meet = t.a.meet
	fr.prob.Equal = t.a.stateEqual
	fr.prob.Transfer = func(b *ir.Block, st state) state {
		return fr.t.transferBlock(fr.m, fr.f, b, st, fr.cp, fr.priv, fr.depth, fr.isEntry, nil)
	}
	fr.prob.EdgeFeasible = func(b *ir.Block, i int) bool {
		return fr.cp.EdgeFeasible(b, i)
	}
	return fr
}

func (t *task) putFrame(fr *frame) {
	fr.m, fr.f, fr.cp = nil, nil, nil
	t.frames = append(t.frames, fr)
}

// getSet returns a cleared dependency-set scratch buffer.
func (t *task) getSet() bitset.Set {
	if n := len(t.sets); n > 0 {
		s := t.sets[n-1]
		t.sets = t.sets[:n-1]
		s.Reset()
		return s
	}
	return bitset.New(len(t.a.prog.Types.AllMethods()))
}

func (t *task) putSet(s bitset.Set) {
	if s != nil {
		t.sets = append(t.sets, s)
	}
}

func (a *Analyzer) getTask() *task {
	a.taskMu.Lock()
	if n := len(a.tasks); n > 0 {
		t := a.tasks[n-1]
		a.tasks = a.tasks[:n-1]
		a.taskMu.Unlock()
		return t
	}
	a.taskMu.Unlock()
	t := &task{a: a, active: make([]int32, len(a.prog.Types.AllMethods()))}
	if a.cfg.Memo != MemoGlobal {
		t.memo = make(map[memoKey]*summary)
		t.cp = make(map[cpKey]*constprop.Result)
	}
	return t
}

func (a *Analyzer) putTask(t *task) {
	// active is balanced by ispa's defer, so it is all-zero here. The
	// entry-local caches must not leak into the next entry.
	if t.memo != nil {
		clear(t.memo)
	}
	if t.cp != nil {
		clear(t.cp)
	}
	a.taskMu.Lock()
	a.tasks = append(a.tasks, t)
	a.taskMu.Unlock()
}

// AnalyzeEntry runs ISPA rooted at entry point m. It is safe to call from
// multiple goroutines concurrently.
func (a *Analyzer) AnalyzeEntry(m *types.Method) *EntryResult {
	if tm := a.cfg.Telemetry; tm != nil {
		start := time.Now()
		defer func() { tm.ObserveEntry(a.cfg.Mode.String(), a.cfg.Domain.ID(), time.Since(start)) }()
	}
	a.stats.entryPoints.Add(1)
	res := &EntryResult{
		Entry:  m.Qualified(),
		Method: m,
		Events: make(map[secmodel.Event]*EventResult),
	}
	f := a.prog.FuncOf(m)
	if f == nil {
		// Native entry point: the native body itself is the event, with no
		// preceding checks.
		if m.IsNative() {
			res.addEvent(secmodel.NativeEvent(m), a.entryState(), a.cfg.Mode)
			res.addEvent(secmodel.ReturnEvent(), a.entryState(), a.cfg.Mode)
		}
		res.Deps = []string{m.Qualified()}
		return res
	}
	t := a.getTask()
	sum := t.ispa(m, a.entryState(), nil, false, 0, true)
	for _, er := range sum.events {
		res.addEvent(a.ev.Event(er.id), er.st, a.cfg.Mode)
	}
	if a.cfg.CollectOrigins {
		res.Origins = append([]OriginRec(nil), sum.origins...)
	}
	res.Deps = a.depSigs(sum.deps)
	a.putTask(t)
	return res
}

// depSigs converts a summary's dependency set to sorted qualified
// signatures (overloads that collide on signature conflate — the IR hash
// layer combines their hashes the same way, so reuse stays sound).
func (a *Analyzer) depSigs(deps bitset.Set) []string {
	methods := a.prog.Types.AllMethods()
	out := make([]string, 0, deps.Len())
	deps.ForEach(func(id int) {
		out = append(out, methods[id].Qualified())
	})
	sort.Strings(out)
	return out
}

// lookupMemo consults the summary cache appropriate to the memo mode.
func (t *task) lookupMemo(key memoKey) (*summary, bool) {
	switch t.a.cfg.Memo {
	case MemoNone:
		return nil, false
	case MemoPerEntry:
		s, ok := t.memo[key]
		return s, ok
	}
	sh := &t.a.memo[key.stripe()]
	sh.mu.RLock()
	s, ok := sh.m[key]
	sh.mu.RUnlock()
	return s, ok
}

// storeMemo publishes an immutable summary under the memo mode's cache.
func (t *task) storeMemo(key memoKey, s *summary) {
	switch t.a.cfg.Memo {
	case MemoNone:
		return
	case MemoPerEntry:
		t.memo[key] = s
		return
	}
	sh := &t.a.memo[key.stripe()]
	sh.mu.Lock()
	sh.m[key] = s
	sh.mu.Unlock()
}

func (a *Analyzer) entryState() state {
	st := state{}
	if a.cfg.Mode == Must {
		st.bits = policy.Empty // no checks performed yet on entry
	}
	if a.cfg.CollectPaths {
		st.paths = policy.PathEmpty()
	}
	return st
}

func (r *EntryResult) addEvent(ev secmodel.Event, st state, mode Mode) {
	er := r.Events[ev]
	if er == nil {
		er = &EventResult{}
		if mode == Must {
			// ⊤ of the MUST lattice in any domain: all 64 bits, immediately
			// intersected with the first occurrence's state below.
			er.Checks = ^policy.CheckSet(0)
		}
		r.Events[ev] = er
	}
	if mode == Must {
		er.Checks = er.Checks.Intersect(st.bits)
	} else {
		er.Checks = er.Checks.Union(st.bits)
	}
	if er.Occurrences == 0 {
		er.Paths = st.paths
	} else {
		er.Paths = er.Paths.Join(st.paths)
	}
	er.Occurrences++
}

// ---------------------------------------------------------------------------
// Analysis state

// state is the dataflow value of SPDA: the set of checks that may/must
// have executed, plus optional bounded path alternatives.
type state struct {
	bits  policy.CheckSet
	paths policy.PathSets
}

func (a *Analyzer) meet(x, y state) state {
	out := state{}
	if a.cfg.Mode == Must {
		out.bits = x.bits.Intersect(y.bits)
	} else {
		out.bits = x.bits.Union(y.bits)
	}
	if a.cfg.CollectPaths {
		out.paths = x.paths.Join(y.paths)
	}
	return out
}

func (a *Analyzer) stateEqual(x, y state) bool {
	if x.bits != y.bits {
		return false
	}
	if a.cfg.CollectPaths && !x.paths.Equal(y.paths) {
		return false
	}
	return true
}

func (st state) withCheck(id secmodel.CheckID, paths bool) state {
	out := state{bits: st.bits.With(id)}
	if paths {
		out.paths = st.paths.AddCheck(id)
	} else {
		out.paths = st.paths
	}
	return out
}
