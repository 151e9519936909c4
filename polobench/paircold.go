package main

import (
	"fmt"
	"sort"

	"policyoracle/internal/ast"
	"policyoracle/internal/callgraph"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/ir"
	"policyoracle/internal/lang"
	"policyoracle/internal/lexer"
	"policyoracle/internal/oracle"
	"policyoracle/internal/parser"
	"policyoracle/internal/types"
)

// pairCorpora is the number of generated corpora pair-cold rotates over;
// with three pairs each, one rotation is nine distinct verdicts.
const pairCorpora = 3

// corpusParams is gen.Small seeded per corpus; extractShape selects the
// BENCH_extract skeleton (Classes=48, MethodsPerClass=8). A tiny config
// quarters the class count.
func corpusParams(cfg *config, seed int64, extractShape bool) gen.Params {
	p := gen.Small()
	p.Seed = seed
	if extractShape {
		p.Classes, p.MethodsPerClass = 48, 8
	}
	if cfg.tiny {
		p.Classes /= 4
	}
	return p
}

// pairCold is the analyst's cold path: each op is one offline verdict
// computed the way `polora diff -json` computes it, with no cache.
type pairCold struct {
	cfg     *config
	opts    oracle.Options
	corpora []*gen.Corpus
	pairs   [][2]string
	acc     map[string]float64 // per-layer counters summed over traced ops
	// discounted counts seeded issues the checks set aside as generator
	// label defects.
	discounted int
}

type pairOut struct {
	corpus *gen.Corpus
	pair   [2]string
	rep    *diff.Report
	wire   []byte
}

func (w *pairCold) clients() int         { return 1 }
func (w *pairCold) setup() error         { return nil }
func (w *pairCold) stage(int, int) error { return nil }
func (w *pairCold) begin()               { w.acc = map[string]float64{} }
func (w *pairCold) close()               {}

func (w *pairCold) prepare() error {
	w.opts = oracle.DefaultOptions()
	w.opts.Parallel = 0 // polora's shipped default: GOMAXPROCS workers
	for i := 0; i < pairCorpora; i++ {
		w.corpora = append(w.corpora, gen.Generate(corpusParams(w.cfg, deriveSeed(w.cfg.seed, uint64(i)), true)))
	}
	w.pairs = w.corpora[0].Pairs()
	return nil
}

func (w *pairCold) op(c, n int, tr *opTrace) (any, error) {
	k := n % (len(w.corpora) * len(w.pairs))
	corp, pair := w.corpora[k/len(w.pairs)], w.pairs[k%len(w.pairs)]
	root := tr.begin(-1, "op")
	var libs [2]*oracle.Library
	for i, name := range pair {
		var err error
		if tr == nil {
			libs[i], err = oracle.LoadLibrary(name, corp.Sources[name])
		} else {
			libs[i], err = tracedLoad(tr, root, name, corp.Sources[name])
			addLoadCounts(w.acc, libs[i], corp.Sources[name])
		}
		if err != nil {
			return nil, err
		}
	}
	for _, lib := range libs {
		s := tr.begin(root, "extract")
		lib.Extract(w.opts)
		tr.end(s)
		if tr != nil {
			tr.probe(s, "oracle.hash", func() { oracle.MethodHashes(lib.Prog, lib.Resolver, w.opts.Normalize().Domain) })
			addAnalysisStats(w.acc, lib)
		}
	}
	s := tr.begin(root, "diff")
	rep, err := oracle.Diff(libs[0], libs[1])
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(root, "diff.encode")
	wire, err := rep.EncodeJSON()
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		w.acc["diff.groups"] += float64(len(rep.Groups))
		w.acc["ops"]++
	}
	return &pairOut{corpus: corp, pair: pair, rep: rep, wire: wire}, nil
}

func (w *pairCold) check(c, n int, out any) error {
	o := out.(*pairOut)
	d, err := verifyVerdict(o.corpus, o.pair, o.rep, o.wire)
	w.discounted += d
	return err
}

func (w *pairCold) finish(p *phase, rows map[string]float64) error {
	noteDiscounted(w.discounted)
	finishFrontend(w.acc, rows)
	return nil
}

// tracedLoad is oracle.LoadLibrary as the sequence of exported calls it
// makes, each in a span: parse every file in name order (with a probe
// Tokenize splitting lexing out of parsing), build types, lower to IR,
// and build the call-site resolver. Source ordering, line counting and
// assembling the Library are the load span's own time.
func tracedLoad(tr *opTrace, parent int, name string, sources map[string]string) (*oracle.Library, error) {
	ld := tr.begin(parent, "load")
	diags := &lang.Diagnostics{}
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	ncloc := 0
	for _, n := range names {
		src := sources[n]
		s := tr.begin(ld, "parser")
		files = append(files, parser.ParseFile(n, src, diags))
		tr.end(s)
		tr.probe(s, "lexer", func() { lexer.Tokenize(n, src, &lang.Diagnostics{}) })
		ncloc += oracle.CountNCLoC(src)
	}
	s := tr.begin(ld, "types")
	tp := types.Build(name, files, diags)
	tr.end(s)
	s = tr.begin(ld, "ir")
	prog := ir.LowerProgram(tp, diags)
	tr.end(s)
	if diags.HasErrors() {
		return nil, fmt.Errorf("loading %s: %w", name, diags.Err())
	}
	s = tr.begin(ld, "callgraph")
	res := callgraph.NewResolver(prog)
	tr.end(s)
	tr.end(ld)
	return &oracle.Library{Name: name, Prog: prog, Resolver: res, NCLoC: ncloc, Diags: diags}, nil
}

// addLoadCounts accumulates the bytes lexed and IR instructions lowered
// by one load.
func addLoadCounts(acc map[string]float64, lib *oracle.Library, sources map[string]string) {
	for _, src := range sources {
		acc["lexer.bytes"] += float64(len(src))
	}
	for _, f := range lib.Prog.Funcs {
		acc["ir.instrs"] += float64(f.NumInstrs())
	}
}

// addAnalysisStats accumulates an extracted library's per-mode timers
// and work counters.
func addAnalysisStats(acc map[string]float64, lib *oracle.Library) {
	acc["analysis.may_busy_ms"] += ms(lib.MayTime)
	acc["analysis.must_busy_ms"] += ms(lib.MustTime)
	for _, st := range []struct{ ma, mh, cr, ch int }{
		{lib.MayStats.MethodAnalyses, lib.MayStats.MemoHits, lib.MayStats.CPRuns, lib.MayStats.CPHits},
		{lib.MustStats.MethodAnalyses, lib.MustStats.MemoHits, lib.MustStats.CPRuns, lib.MustStats.CPHits},
	} {
		acc["analysis.method_analyses"] += float64(st.ma)
		acc["memo_hits"] += float64(st.mh)
		acc["constprop.runs"] += float64(st.cr)
		acc["cp_hits"] += float64(st.ch)
	}
	acc["callgraph.resolution_rate"] += lib.Resolver.ResolutionRate()
	acc["libs"]++
}

// finishFrontend turns the frontend and analysis counters accumulated
// over the traced ops into per-op rows, rates and ratios.
func finishFrontend(acc, rows map[string]float64) {
	ops := acc["ops"]
	if ops == 0 {
		return
	}
	for _, k := range []string{"ir.instrs", "analysis.may_busy_ms", "analysis.must_busy_ms",
		"analysis.method_analyses", "constprop.runs", "diff.groups"} {
		rows[k] = acc[k] / ops
	}
	if rows["lexer.ms"] > 0 {
		rows["lexer.mb_per_s"] = acc["lexer.bytes"] / ops / 1e6 / (rows["lexer.ms"] / 1e3)
	}
	rows["analysis.memo_hit_ratio"] = ratio(acc["memo_hits"], acc["memo_hits"]+acc["analysis.method_analyses"])
	rows["constprop.hit_ratio"] = ratio(acc["cp_hits"], acc["cp_hits"]+acc["constprop.runs"])
	if acc["libs"] > 0 {
		rows["callgraph.resolution_rate"] = acc["callgraph.resolution_rate"] / acc["libs"]
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
