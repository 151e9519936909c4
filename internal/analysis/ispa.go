package analysis

import (
	"sort"
	"strings"

	"policyoracle/internal/cfg"
	"policyoracle/internal/constprop"
	"policyoracle/internal/ir"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/types"
)

// eventRec is one security-sensitive event occurrence with the analysis
// state (checks performed) at that point. Events are recorded as interned
// per-program ids (see secmodel.ProgramEvents) and rendered back to
// secmodel.Event values only when an entry result is assembled.
type eventRec struct {
	id secmodel.EventID
	st state
}

// summary is the memoized result of analyzing one method in one context:
// the exit state (meet over its returns), the events and check origins
// of the method's own body, and references to the callee summaries it
// merged. Summaries are immutable once stored, so a callee summary is
// shared by reference rather than copied into each caller: memoized
// summaries and their references form a DAG, and an entry result
// flattens it once (see task.replay and task.originsAndDeps).
//
// method is the Method.ID of the analyzed body, the summary's own
// contribution to the entry's dependency set; it is -1 for the
// placeholders that analyze no body (no IR, or the recursion cutoff).
// Methods resolved but skipped (no body, unresolved, beyond MaxDepth)
// are covered by the caller's own IR hash, which records the resolution
// facts of each call site.
//
// emits is set when the summary or any callee beneath it holds an event,
// so an entry's replay enters only the references that contribute
// events (see task.replay).
//
// truncated marks a summary whose computation hit the recursion cutoff —
// either the cutoff's own placeholder result or any summary derived from
// one. Truncated summaries are valid for the call tree that produced them
// (the cutoff is exactly the paper's Section 4.2 treatment of recursion)
// but depend on which methods were on the stack at the time, so they are
// never memoized: caching one would let a later analysis that reaches the
// same method outside the cycle silently drop the checks and events cut
// off here.
type summary struct {
	out       state
	method    int32
	events    []eventRec
	origins   []OriginRec
	callees   []calleeRef
	emits     bool
	truncated bool
}

// calleeRef is one callee summary merged into its caller's. The callee's
// content falls after the first events of the caller's own events and
// the first origins of its own origins, in recording order.
type calleeRef struct {
	s       *summary
	events  int32
	origins int32
}

// recorder accumulates a summary during the post-convergence recording
// pass.
type recorder struct {
	events    []eventRec
	origins   []OriginRec
	callees   []calleeRef
	exit      state
	haveExit  bool
	emits     bool
	truncated bool
}

func (r *recorder) event(id secmodel.EventID, st state) {
	r.events = append(r.events, eventRec{id, st})
	r.emits = true
}

func (r *recorder) merge(s *summary) {
	r.callees = append(r.callees, calleeRef{s: s, events: int32(len(r.events)), origins: int32(len(r.origins))})
	r.emits = r.emits || s.emits
	r.truncated = r.truncated || s.truncated
}

func (r *recorder) exitAt(a *Analyzer, st state) {
	if !r.haveExit {
		r.exit = st
		r.haveExit = true
	} else {
		r.exit = a.meet(r.exit, st)
	}
}

// ispa analyzes method m with inbound state in and abstract argument
// values argConsts (Algorithm 2). priv marks privileged execution; depth
// is the interprocedural nesting level; isEntry marks the API entry point
// whose returns are security-sensitive events.
func (t *task) ispa(m *types.Method, in state, argConsts []constprop.Value, priv bool, depth int, isEntry bool) *summary {
	a := t.a
	f := a.prog.FuncOf(m)
	if f == nil {
		return &summary{out: in, method: -1}
	}
	priv = priv || a.cfg.Domain.IsPrivilegedScope(m)

	var constsID uint32
	if a.cfg.ICP {
		constsID = a.consts.id(argConsts)
	}
	key := memoKey{method: int32(m.ID), bits: in.bits, consts: constsID}
	if a.cfg.CollectPaths {
		key.paths = a.paths.id(in.paths)
	}
	if priv {
		key.flags |= keyPriv
	}
	if isEntry {
		key.flags |= keyEntry // entry analyses also record return events
	}
	if s, ok := t.lookupMemo(key); ok {
		a.stats.memoHits.Add(1)
		return s
	}
	if t.active[m.ID] > int32(a.cfg.RecursionBound) {
		// Recursive call beyond the bound: do not re-analyze (Section 4.2;
		// the default bound of 0 matches the paper's implementation). The
		// placeholder is truncated so that no summary computed from it is
		// ever memoized.
		return &summary{out: in, method: -1, truncated: true}
	}
	t.active[m.ID]++
	defer func() { t.active[m.ID]-- }()
	a.stats.methodAnalyses.Add(1)

	cp := t.constants(m, f, argConsts)

	fr := t.getFrame()
	fr.m, fr.f, fr.cp = m, f, cp
	fr.priv, fr.depth, fr.isEntry = priv, depth, isEntry
	fr.prob.Blocks = f.Blocks
	fr.prob.EntryIn = in
	// The solution aliases the frame's solver buffers. Nested ispa calls
	// made by the recording pass below run on their own frames, so the
	// buffers stay valid until putFrame.
	sol := fr.solver.Solve(&fr.prob)

	// Recording pass over the converged solution.
	rec := &recorder{}
	for _, b := range f.Blocks {
		if !sol.Reached[b.Index] {
			continue
		}
		t.transferBlock(m, f, b, sol.In[b.Index], cp, priv, depth, isEntry, rec)
	}
	out := in
	if rec.haveExit {
		out = rec.exit
	}
	s := &summary{out: out, method: int32(m.ID), events: rec.events, origins: rec.origins, callees: rec.callees, emits: rec.emits, truncated: rec.truncated}
	t.putFrame(fr)
	if !s.truncated {
		// A summary computed beneath an active recursion cutoff reflects
		// that cutoff, not the method's full behavior; memoizing it would
		// poison later analyses that reach this method outside the cycle.
		t.storeMemo(key, s)
	}
	return s
}

// constants runs (and caches) conditional constant propagation for f
// under the given parameter binding. The cache is entry-local under
// MemoPerEntry/MemoNone and lock-striped globally under MemoGlobal.
func (t *task) constants(m *types.Method, f *ir.Func, argConsts []constprop.Value) *constprop.Result {
	a := t.a
	key := cpKey{method: int32(m.ID)}
	if a.cfg.ICP {
		key.consts = a.consts.id(argConsts)
	} else {
		argConsts = nil
	}
	var sh *cpStripe
	if t.cp != nil {
		if r, ok := t.cp[key]; ok {
			a.stats.cpHits.Add(1)
			return r
		}
	} else {
		sh = &a.cp[key.stripe()]
		sh.mu.RLock()
		r, ok := sh.m[key]
		sh.mu.RUnlock()
		if ok {
			a.stats.cpHits.Add(1)
			return r
		}
	}
	a.stats.cpRuns.Add(1)
	r := constprop.Analyze(f, argConsts, constprop.Config{
		AssumeSecurityManager: a.cfg.AssumeSecurityManager,
		IsGetSecurityManager:  a.cfg.Domain.IsGetSecurityManager,
	}, &t.cpScratch)
	if t.cp != nil {
		t.cp[key] = r
	} else {
		sh.mu.Lock()
		sh.m[key] = r
		sh.mu.Unlock()
	}
	return r
}

// unresolvedSite marks a call site that resolved to no target, so the
// cache can distinguish "resolved to nothing" from "not yet resolved".
var unresolvedSite = new(types.Method)

// resolveSite resolves a call site once, caching the result and counting
// it in the resolver statistics exactly once. The cache is a flat slice
// of atomic pointers indexed by the site id interned at lowering, so the
// warm path (the overwhelming majority of lookups) is one lock-free array
// load; on a racing cold miss both goroutines resolve (resolution is
// pure) but only the one that publishes the entry records the statistics
// outcome.
func (a *Analyzer) resolveSite(c *ir.Call) *types.Method {
	slot := &a.sites[c.Site]
	if t := slot.Load(); t != nil {
		if t == unresolvedSite {
			return nil
		}
		return t
	}
	t := a.res.Resolve(c)
	stored := t
	if stored == nil {
		stored = unresolvedSite
	}
	if slot.CompareAndSwap(nil, stored) {
		a.res.RecordOutcome(t != nil)
	}
	return t
}

// transferBlock interprets one block: checks extend the state, resolved
// calls are analyzed recursively (ISPA), native calls and — in broad mode —
// private field and parameter accesses are security-sensitive events.
// When rec is nil the pass only computes the state transformation.
func (t *task) transferBlock(m *types.Method, f *ir.Func, b *ir.Block, st state, cp *constprop.Result, priv bool, depth int, isEntry bool, rec *recorder) state {
	a := t.a
	broad := a.cfg.Events == secmodel.BroadEvents
	var taint []uint64
	if broad && isEntry && rec != nil {
		taint = a.taintOf(f)
	}
	for _, instr := range b.Instrs {
		switch instr := instr.(type) {
		case *ir.Call:
			st = t.transferCall(m, f, b, instr, st, cp, priv, depth, rec, taint)
		case *ir.Return:
			if rec != nil {
				rec.exitAt(a, st)
				if isEntry {
					rec.event(a.ev.ReturnID(), st)
				}
			}
		case *ir.FieldLoad:
			if rec != nil && broad {
				if instr.Field != nil && instr.Field.IsPrivate() {
					rec.event(a.ev.PrivateReadID(instr.Field), st)
				}
				a.paramEvents(rec, taint, st, instr.Obj)
			}
		case *ir.FieldStore:
			if rec != nil && broad {
				if instr.Field != nil && instr.Field.IsPrivate() {
					rec.event(a.ev.PrivateWriteID(instr.Field), st)
				}
				a.paramEvents(rec, taint, st, instr.Obj, instr.Val)
			}
		}
	}
	return st
}

// transferCall handles one call site.
func (t *task) transferCall(m *types.Method, f *ir.Func, b *ir.Block, c *ir.Call, st state, cp *constprop.Result, priv bool, depth int, rec *recorder, taint []uint64) state {
	a := t.a
	// Security check invocation (Section 3): extends the flow value unless
	// executing inside a privileged block, where checks always succeed and
	// are semantic no-ops (Section 6.2).
	if id, ok := a.cfg.Domain.IdentifyCheck(c); ok {
		if priv {
			return st
		}
		if rec != nil && a.cfg.CollectOrigins {
			guards := ""
			if a.cfg.CollectGuards {
				guards = a.guardsOf(f, b)
			}
			rec.origins = append(rec.origins, OriginRec{Check: id, Sig: m.Qualified(), Guards: guards})
		}
		return st.withCheck(id, a.cfg.CollectPaths)
	}

	// Broad mode: method invocation on a parameter-derived receiver, and
	// parameter-derived data flowing out as arguments (reads of the
	// parameter, per Section 3's data-dependence tagging).
	if rec != nil && taint != nil {
		a.paramEvents(rec, taint, st, c.Recv)
		a.paramEvents(rec, taint, st, c.Args...)
	}

	// Privileged block entry: analyze the action's run() with checks
	// suppressed; events inside remain observable.
	if a.cfg.Domain.IsDoPrivileged(c) {
		run := a.resolveRun(c)
		if run != nil && a.prog.FuncOf(run) != nil && !a.depthExceeded(depth) {
			sum := t.ispa(run, st, nil, true, depth+1, false)
			if rec != nil {
				rec.merge(sum)
			}
			return sum.out
		}
		return st
	}

	target := a.resolveSite(c)
	if target == nil {
		return st // unresolved: skipped (Section 4, a source of inaccuracy)
	}
	if target.IsNative() {
		if rec != nil {
			rec.event(a.ev.NativeID(target), st)
		}
		return st
	}
	if a.prog.FuncOf(target) == nil || a.depthExceeded(depth) {
		return st
	}
	var argVals []constprop.Value
	if a.cfg.ICP {
		argVals = cp.CallArgs(c)
	}
	sum := t.ispa(target, st, argVals, priv, depth+1, false)
	if rec != nil {
		rec.merge(sum)
	}
	return sum.out
}

func (a *Analyzer) depthExceeded(depth int) bool {
	return a.cfg.MaxDepth >= 0 && depth >= a.cfg.MaxDepth
}

// paramEvents emits ParamAccess events for operands derived from entry
// parameters (broad event mode).
func (a *Analyzer) paramEvents(rec *recorder, taint []uint64, st state, ops ...ir.Operand) {
	if taint == nil {
		return
	}
	for _, op := range ops {
		l, ok := op.(*ir.Local)
		if !ok || l == nil {
			continue
		}
		mask := taint[l.Index]
		for i := 0; mask != 0; i++ {
			if mask&1 != 0 {
				rec.event(a.ev.ParamID(i), st)
			}
			mask >>= 1
		}
	}
}

// guardsOf returns the comma-joined source positions of the If conditions
// dominating block b in f — the conditions under which a check in b
// executes (Section 6.4's MAY-policy conditions).
func (a *Analyzer) guardsOf(f *ir.Func, b *ir.Block) string {
	a.domMu.Lock()
	dom := a.doms[f]
	if dom == nil {
		dom = cfg.ComputeDominators(f)
		if a.doms == nil {
			a.doms = make(map[*ir.Func]*cfg.Dominators)
		}
		a.doms[f] = dom
	}
	a.domMu.Unlock()
	var parts []string
	for _, blk := range f.Blocks {
		ifInstr, ok := blk.Term().(*ir.If)
		if !ok || blk == b {
			continue
		}
		if dom.Dominates(blk, b) {
			parts = append(parts, ifInstr.Pos().String())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// resolveRun finds the concrete run() implementation of the action passed
// to doPrivileged.
func (a *Analyzer) resolveRun(c *ir.Call) *types.Method {
	if len(c.Args) == 0 {
		return nil
	}
	l, ok := c.Args[0].(*ir.Local)
	if !ok || l.Type.Class == nil {
		return nil
	}
	return a.res.ResolveOn(l.Type.Class, "run", 0)
}

// taintOf computes, per local of f (indexed by Local.Index), the bitmask
// of entry parameters it is data-dependent on (flow-insensitive closure
// over copies, arithmetic, casts, and array loads — the "event tag"
// propagation of Section 3).
func (a *Analyzer) taintOf(f *ir.Func) []uint64 {
	a.taintMu.RLock()
	t, ok := a.taints[f]
	a.taintMu.RUnlock()
	if ok {
		return t
	}
	taint := make([]uint64, len(f.Locals))
	for i, p := range f.Params {
		if i < 64 {
			taint[p.Index] = 1 << uint(i)
		}
	}
	maskOf := func(op ir.Operand) uint64 {
		if l, ok := op.(*ir.Local); ok && l != nil {
			return taint[l.Index]
		}
		return 0
	}
	changed := true
	for changed {
		changed = false
		add := func(dst *ir.Local, mask uint64) {
			if dst == nil || mask == 0 {
				return
			}
			if taint[dst.Index]&mask != mask {
				taint[dst.Index] |= mask
				changed = true
			}
		}
		for _, b := range f.Blocks {
			for _, instr := range b.Instrs {
				switch instr := instr.(type) {
				case *ir.Assign:
					add(instr.Dst, maskOf(instr.Src))
				case *ir.Binary:
					add(instr.Dst, maskOf(instr.X)|maskOf(instr.Y))
				case *ir.Unary:
					add(instr.Dst, maskOf(instr.X))
				case *ir.Cast:
					add(instr.Dst, maskOf(instr.X))
				case *ir.ArrayLoad:
					add(instr.Dst, maskOf(instr.Arr))
				case *ir.FieldLoad:
					add(instr.Dst, maskOf(instr.Obj))
				}
			}
		}
	}
	a.taintMu.Lock()
	if prior, ok := a.taints[f]; ok {
		taint = prior // another goroutine computed it first; share that copy
	} else {
		a.taints[f] = taint
	}
	a.taintMu.Unlock()
	return taint
}
