// Command polora is the security policy oracle CLI.
//
// Usage:
//
//	polora policies <dir> [flags]        extract and print security policies
//	polora diff <dirA> <dirB> [flags]    difference two implementations
//	polora exceptions <dirA> <dirB>      difference thrown-exception semantics (§8)
//	polora export <dir> <out.json>       extract and export policies for sharing
//	polora extract <dir> <out.json>      extract to a snapshot; -incremental -prev reuses one
//	polora diff-policies <a.json> <dir>  difference shared policies against local code
//	polora fingerprint <dir> [flags]     print the polorad content address of a library
//	polora corpus <outdir>               write the bundled corpora to disk
//	polora fuzz [dir...] [flags]         run a metamorphic fuzzing campaign
//	polora drift [flags]                 query a polorad -watch daemon's drift timeline
//	polora batch -remote a1,a2 [flags]   run a batch of extract/diff items on a polorad tier
//
// The extract command writes a snapshot: the exported policies plus the
// incremental state (per-method content hashes, per-entry dependency
// sets) that lets a later run re-analyze only what changed. With
// -incremental -prev <snapshot.json> it seeds from a previous snapshot
// and splices every entry point whose dependency set is untouched; the
// output is byte-identical to a from-scratch extraction either way.
//
// The fuzz command runs a coverage-guided metamorphic campaign
// (internal/campaign) over each library: seeded semantics-preserving
// rewrites, scheduled by per-mutator energy that feedback from per-round
// coverage keys boosts, with every invariant violation triaged — the
// mutation trace minimized to a smallest reproducer and deduplicated by
// a stable fingerprint. With no directories it fuzzes the bundled
// corpora — under -domain cryptoapi, a generated crypto-misuse corpus.
// Flags: -seed, -rounds, -mutations (rewrites per round), -workers
// (concurrent shards), -domain, -schedule guided|uniform, -shard-rounds,
// -out (write reproducer bundles), -json (machine-readable report on
// stdout), -remote addr1,addr2 (shard across polorad -campaigns
// workers).
//
// Fuzz exit codes are part of the CLI contract: 0 means every invariant
// held, 1 an operational error, 2 a usage error, and 3 means the
// campaign found invariant violations (the crashers are in the report).
//
// Flags (policies, diff):
//
//	-entry substr   restrict output to entry points containing substr
//	-domain id      check domain to extract under (default: securitymanager)
//	-broad          use broad security-sensitive events (Section 3)
//	-no-icp         disable interprocedural constant propagation
//	-memo mode      summary reuse: global (default), per-entry, none
//	-no-assume-sm   do not fold `getSecurityManager() != null` guards
//	-parallel N     extraction workers per mode (0 = GOMAXPROCS, 1 = sequential)
//	-timings        print a phase-timing summary to stderr after extraction
//
// The bundled corpora let the oracle be tried immediately:
//
//	polora corpus /tmp/corpus
//	polora diff /tmp/corpus/jdk /tmp/corpus/harmony
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"policyoracle"
	"policyoracle/internal/analysis"
	"policyoracle/internal/campaign"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/diff"
	"policyoracle/internal/exceptions"
	"policyoracle/internal/metamorph"
	internalpolicy "policyoracle/internal/policy"
	"policyoracle/internal/telemetry"
	"policyoracle/internal/witness"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "policies":
		err = cmdPolicies(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "exceptions":
		err = cmdExceptions(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "extract":
		err = cmdExtract(os.Args[2:])
	case "diff-policies":
		err = cmdDiffPolicies(os.Args[2:])
	case "fingerprint":
		err = cmdFingerprint(os.Args[2:])
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "drift":
		err = cmdDrift(os.Args[2:])
	case "batch":
		err = cmdBatch(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "polora: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "polora: %v\n", err)
		if errors.Is(err, errViolations) {
			// Documented fuzz contract: exit 3 distinguishes "the oracle
			// is broken" from operational failures (exit 1), so CI can
			// dispatch without scraping output.
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// errViolations marks a fuzz campaign that completed but found
// metamorphic invariant violations.
var errViolations = errors.New("metamorphic invariant violations")

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  polora policies <dir> [flags]         extract and print security policies
  polora diff <dirA> <dirB> [flags]     difference two implementations
  polora exceptions <dirA> <dirB>       difference thrown-exception semantics (§8)
  polora export <dir> <out.json>        extract and export policies for sharing
  polora extract <dir> <out.json>       extract to a snapshot (-incremental -prev reuses one)
  polora diff-policies <a.json> <dir>   difference shared policies against local code
  polora fingerprint <dir> [flags]      print the polorad content address of a library
  polora corpus <outdir>                write the bundled jdk/harmony/classpath corpora
  polora fuzz [dir...] [flags]          run a metamorphic fuzzing campaign over libraries
  polora drift [flags]                  query a polorad -watch daemon's drift timeline
  polora batch -remote a1,a2 [flags]    run a batch of extract/diff items on a polorad tier
`)
}

type commonFlags struct {
	entry      string
	domain     string
	broad      bool
	noICP      bool
	memo       string
	noAssumeSM bool
	witness    bool
	jsonOut    bool
	guards     bool
	parallel   int
	timings    bool

	metrics *telemetry.ExtractMetrics
}

func (cf *commonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&cf.entry, "entry", "", "restrict to entry points containing this substring")
	fs.StringVar(&cf.domain, "domain", "", "check domain to extract under (default: "+policyoracle.DefaultDomainID+")")
	fs.BoolVar(&cf.broad, "broad", false, "use broad security-sensitive events")
	fs.BoolVar(&cf.noICP, "no-icp", false, "disable interprocedural constant propagation")
	fs.StringVar(&cf.memo, "memo", "global", "summary reuse: global, per-entry, none")
	fs.BoolVar(&cf.noAssumeSM, "no-assume-sm", false, "do not fold security-manager null guards")
	fs.BoolVar(&cf.witness, "witness", false, "dynamically confirm each difference by interpretation (text output only)")
	fs.BoolVar(&cf.jsonOut, "json", false, "emit the report as JSON (diff only)")
	fs.BoolVar(&cf.guards, "guards", false, "report the branch conditions guarding each check (policies only)")
	fs.IntVar(&cf.parallel, "parallel", 0, "extraction workers per analysis mode (0 = GOMAXPROCS, 1 = sequential)")
	fs.BoolVar(&cf.timings, "timings", false, "print a phase-timing summary to stderr after extraction")
}

func (cf *commonFlags) options() (policyoracle.Options, error) {
	opts := policyoracle.DefaultOptions()
	// The CLI consumes the domain API through the top-level policyoracle
	// re-exports; importing internal/secmodel directly from cmd/ is
	// deprecated.
	dom, err := policyoracle.ResolveDomain(cf.domain)
	if err != nil {
		return opts, fmt.Errorf("-domain: %w", err)
	}
	opts.Domain = dom
	if cf.broad {
		opts.Events = policyoracle.BroadEvents
	}
	opts.ICP = !cf.noICP
	opts.AssumeSecurityManager = !cf.noAssumeSM
	opts.CollectGuards = cf.guards
	opts.Parallel = cf.parallel
	if cf.timings {
		cf.metrics = telemetry.NewExtractMetrics(telemetry.New())
		opts.Telemetry = cf.metrics
	}
	switch cf.memo {
	case "global":
		opts.Memo = analysis.MemoGlobal
	case "per-entry":
		opts.Memo = analysis.MemoPerEntry
	case "none":
		opts.Memo = analysis.MemoNone
	default:
		return opts, fmt.Errorf("unknown -memo mode %q", cf.memo)
	}
	return opts, nil
}

// printTimings writes the -timings summary to stderr, away from the
// report on stdout, so `polora diff -json -timings` still pipes cleanly.
func (cf *commonFlags) printTimings() {
	if cf.metrics != nil {
		fmt.Fprint(os.Stderr, cf.metrics.Summary())
	}
}

func cmdPolicies(args []string) error {
	fs := flag.NewFlagSet("policies", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("policies: expected one directory, got %d args", fs.NArg())
	}
	dir := fs.Arg(0)
	opts, err := cf.options()
	if err != nil {
		return err
	}
	lib, err := policyoracle.LoadLibraryDir(filepath.Base(dir), dir)
	if err != nil {
		return err
	}
	lib.Extract(opts)
	cf.printTimings()
	fmt.Printf("library %s: %d entry points, %d policies, %d with checks (analysis %v + %v)\n\n",
		lib.Name, len(lib.EntryPoints()), lib.Policies.CountPolicies(),
		lib.Policies.EntriesWithChecks(), lib.MayTime, lib.MustTime)
	for _, sig := range lib.Policies.SortedEntries() {
		if cf.entry != "" && !strings.Contains(sig, cf.entry) {
			continue
		}
		ep := lib.Policies.Entries[sig]
		if !ep.HasChecks() && cf.entry == "" {
			continue // print only checked entries unless filtered explicitly
		}
		fmt.Printf("%s\n", sig)
		for _, ev := range ep.SortedEvents() {
			evp := ep.Events[ev]
			fmt.Printf("  MUST check: %s  Event: %s\n", evp.Must.StringIn(opts.Domain), ev)
			fmt.Printf("  MAY  check: %s  Event: %s\n", evp.May.StringIn(opts.Domain), ev)
			if len(evp.Paths.Sets) > 1 {
				fmt.Printf("  MAY  paths: %s\n", evp.Paths.StringIn(opts.Domain))
			}
		}
		if cf.guards {
			ids := make([]policyoracle.CheckID, 0, len(ep.Guards))
			for id := range ep.Guards {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				for _, g := range ep.GuardsOf(id) {
					if g == "" {
						fmt.Printf("  guard: %s is unconditional on some path\n", opts.Domain.CheckName(id))
					} else {
						fmt.Printf("  guard: %s conditional on branches at %s\n", opts.Domain.CheckName(id), g)
					}
				}
			}
		}
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: expected two directories, got %d args", fs.NArg())
	}
	if cf.witness && cf.jsonOut {
		return fmt.Errorf("diff: -witness cannot be combined with -json")
	}
	opts, err := cf.options()
	if err != nil {
		return err
	}
	var libs [2]*policyoracle.Library
	for i, dir := range []string{fs.Arg(0), fs.Arg(1)} {
		lib, err := policyoracle.LoadLibraryDir(filepath.Base(dir), dir)
		if err != nil {
			return err
		}
		lib.Extract(opts)
		libs[i] = lib
	}
	cf.printTimings()
	rep, err := policyoracle.Diff(libs[0], libs[1])
	if err != nil {
		return err
	}
	if cf.jsonOut {
		wire, err := rep.EncodeJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(wire)
		return err
	}
	fmt.Printf("%s vs %s: %d matching entry points\n", rep.LibA, rep.LibB, rep.MatchingEntries)
	fmt.Printf("%d distinct differences, %d manifestations\n\n", len(rep.Groups), rep.TotalManifestations())
	for _, g := range rep.Groups {
		if cf.entry != "" {
			hit := false
			for _, e := range g.Entries {
				if strings.Contains(e, cf.entry) {
					hit = true
				}
			}
			if !hit {
				continue
			}
		}
		printGroup(g, opts.Domain)
		if cf.witness {
			rs, err := witness.Confirm(libs[0], libs[1], g)
			if err != nil {
				return err
			}
			for _, r := range rs {
				fmt.Printf("  witness: %s\n", r)
			}
			fmt.Println()
		}
	}
	return nil
}

func printGroup(g *policyoracle.Group, dom *policyoracle.Domain) {
	missing := g.MissingIn
	if missing == "" {
		missing = "(both sides differ)"
	}
	fmt.Printf("[%s, %s] checks %s missing in %s — %d manifestation(s)\n",
		g.Case, g.Category, g.DiffChecks.StringIn(dom), missing, g.Manifestations())
	if len(g.RootMethods) > 0 {
		fmt.Printf("  root cause in: %s\n", strings.Join(g.RootMethods, ", "))
	}
	d := g.Diffs[0]
	fmt.Printf("  event %s\n", d.Event)
	fmt.Printf("    %-12s MUST %s MAY %s\n", d.A.Library+":", d.A.Must.StringIn(dom), d.A.May.StringIn(dom))
	fmt.Printf("    %-12s MUST %s MAY %s\n", d.B.Library+":", d.B.Must.StringIn(dom), d.B.May.StringIn(dom))
	for _, e := range g.Entries {
		fmt.Printf("  manifests at %s\n", e)
	}
	fmt.Println()
}

func cmdExceptions(args []string) error {
	fs := flag.NewFlagSet("exceptions", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("exceptions: expected two directories, got %d args", fs.NArg())
	}
	var analyzers [2]*exceptions.Analyzer
	var names [2]string
	for i, dir := range []string{fs.Arg(0), fs.Arg(1)} {
		lib, err := policyoracle.LoadLibraryDir(filepath.Base(dir), dir)
		if err != nil {
			return err
		}
		names[i] = lib.Name
		analyzers[i] = exceptions.New(lib.Prog, lib.Resolver)
	}
	diffs := exceptions.Compare(analyzers[0], analyzers[1])
	fmt.Printf("%s vs %s: %d entry point(s) with differing exception semantics\n",
		names[0], names[1], len(diffs))
	for _, d := range diffs {
		fmt.Printf("  %s\n    %-12s throws %s\n    %-12s throws %s\n",
			d.Entry, names[0]+":", d.A, names[1]+":", d.B)
	}
	return nil
}

// cmdExport implements the paper's policy-sharing use case (Discussion):
// a vendor extracts and publishes policies without publishing code.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("export: expected <dir> <out.json>")
	}
	opts, err := cf.options()
	if err != nil {
		return err
	}
	lib, err := policyoracle.LoadLibraryDir(filepath.Base(fs.Arg(0)), fs.Arg(0))
	if err != nil {
		return err
	}
	lib.Extract(opts)
	cf.printTimings()
	data, err := lib.Policies.ExportJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(fs.Arg(1), data, 0o644); err != nil {
		return err
	}
	fmt.Printf("exported %d entry-point policies of %s to %s\n",
		len(lib.Policies.Entries), lib.Name, fs.Arg(1))
	return nil
}

// cmdExtract extracts a library into a snapshot — exported policies plus
// the incremental state a later -incremental run seeds from. With
// -incremental it re-analyzes only entry points whose dependency set
// intersects the methods that changed since -prev was written.
func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	name := fs.String("name", "", "library name (default: base name of the directory)")
	incremental := fs.Bool("incremental", false, "seed from a previous snapshot and re-analyze only changed entry points")
	prevPath := fs.String("prev", "", "previous snapshot file (required with -incremental)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("extract: expected <dir> <out.json>")
	}
	dir, outPath := fs.Arg(0), fs.Arg(1)
	opts, err := cf.options()
	if err != nil {
		return err
	}
	// Snapshots persist wire-format policies, which carry no display data,
	// so extractions feeding them never collect it — this also keeps the
	// snapshot's option key matched however the command is flagged.
	opts.CollectPaths, opts.CollectGuards = false, false
	sources, err := policyoracle.ReadSourcesDir(dir)
	if err != nil {
		return err
	}

	var lib *policyoracle.Library
	if *incremental {
		if *prevPath == "" {
			return fmt.Errorf("extract: -incremental requires -prev <snapshot.json>")
		}
		data, err := os.ReadFile(*prevPath)
		if err != nil {
			return err
		}
		prev, err := policyoracle.ImportSnapshot(data)
		if err != nil {
			return err
		}
		if *name != "" && *name != prev.Name {
			return fmt.Errorf("extract: -name %q does not match snapshot library %q", *name, prev.Name)
		}
		var st *policyoracle.IncrementalStats
		lib, st, err = policyoracle.ExtractIncremental(prev, sources, opts)
		if err != nil {
			return err
		}
		cf.printTimings()
		if st.Full {
			fmt.Fprintf(os.Stderr, "extract: snapshot options differ or carry no incremental state; fell back to a full extraction\n")
		}
		fmt.Printf("%s: reused %d, re-analyzed %d of %d entry points; %d methods hashed, %d changed\n",
			lib.Name, st.Reused, st.Reanalyzed, st.Entries, st.HashedMethods, st.ChangedMethods)
	} else {
		if *name == "" {
			*name = filepath.Base(dir)
		}
		lib, err = policyoracle.LoadLibrary(*name, sources)
		if err != nil {
			return err
		}
		lib.Extract(opts)
		cf.printTimings()
		fmt.Printf("%s: extracted %d entry-point policies\n", lib.Name, len(lib.Policies.Entries))
	}
	out, err := lib.ExportSnapshot()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote snapshot %s\n", outPath)
	return nil
}

// cmdDiffPolicies differences imported (shared) policies against a local
// implementation.
func cmdDiffPolicies(args []string) error {
	fs := flag.NewFlagSet("diff-policies", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff-policies: expected <policies.json> <dir>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	shared, err := internalpolicy.ImportJSON(data)
	if err != nil {
		return err
	}
	opts, err := cf.options()
	if err != nil {
		return err
	}
	lib, err := policyoracle.LoadLibraryDir(filepath.Base(fs.Arg(1)), fs.Arg(1))
	if err != nil {
		return err
	}
	lib.Extract(opts)
	cf.printTimings()
	if shared.Domain != lib.Policies.Domain {
		return fmt.Errorf("%w: %s was exported under -domain %q", policyoracle.ErrDomainMismatch,
			fs.Arg(0), shared.Domain)
	}
	rep := diff.Compare(shared, lib.Policies)
	fmt.Printf("%s (shared) vs %s (local): %d matching entry points\n",
		rep.LibA, rep.LibB, rep.MatchingEntries)
	fmt.Printf("%d distinct differences, %d manifestations\n\n", len(rep.Groups), rep.TotalManifestations())
	for _, g := range rep.Groups {
		printGroup(g, opts.Domain)
	}
	return nil
}

// cmdFingerprint prints the content address a polorad store would assign
// to a library directory — the same oracle.Fingerprint the service
// computes on upload, so clients can predict (and verify) fingerprints
// offline.
func cmdFingerprint(args []string) error {
	fs := flag.NewFlagSet("fingerprint", flag.ExitOnError)
	var cf commonFlags
	cf.register(fs)
	name := fs.String("name", "", "library name (default: base name of the directory)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("fingerprint: expected one directory, got %d args", fs.NArg())
	}
	dir := fs.Arg(0)
	opts, err := cf.options()
	if err != nil {
		return err
	}
	sources, err := policyoracle.ReadSourcesDir(dir)
	if err != nil {
		return err
	}
	if *name == "" {
		*name = filepath.Base(dir)
	}
	fmt.Println(policyoracle.Fingerprint(*name, sources, opts))
	return nil
}

// fuzzReport is the -json report: one machine-readable object on
// stdout with everything CI consumes — per-library coverage keys,
// crasher fingerprints, and reproducer-bundle paths — so workflow legs
// dispatch on structure and exit codes, never on human text.
type fuzzReport struct {
	Schedule   string             `json:"schedule"`
	Seed       int64              `json:"seed"`
	Rounds     int                `json:"rounds_per_library"`
	Violations int                `json:"violations"`
	Libraries  []*campaign.Result `json:"libraries"`
}

// cmdFuzz runs the coverage-guided campaign from internal/campaign over
// one library per directory argument, or over the bundled corpora when
// none are given. Violations make it return errViolations (exit 3).
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "campaign seed (each shard and round derives its own)")
	rounds := fs.Int("rounds", 100, "mutation rounds per library")
	mutations := fs.Int("mutations", 8, "semantics-preserving rewrites attempted per round")
	workers := fs.Int("workers", 0, "concurrent shards (0 = GOMAXPROCS)")
	domain := fs.String("domain", "", "check domain to fuzz under (default: "+policyoracle.DefaultDomainID+")")
	schedule := fs.String("schedule", "guided", "mutator schedule: guided (coverage feedback) or uniform")
	shardRounds := fs.Int("shard-rounds", 0, "rounds per deterministic feedback shard (0 = default 32)")
	outDir := fs.String("out", "", "write deduped minimized reproducer bundles and summaries under this directory")
	jsonOut := fs.Bool("json", false, "emit one machine-readable JSON report on stdout")
	remote := fs.String("remote", "", "comma-separated polorad -campaigns addresses to shard the campaign across")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var uniform bool
	switch *schedule {
	case "guided":
	case "uniform":
		uniform = true
	default:
		return fmt.Errorf("fuzz: unknown -schedule %q (guided or uniform)", *schedule)
	}
	dom, err := policyoracle.ResolveDomain(*domain)
	if err != nil {
		return err
	}
	opts := policyoracle.DefaultOptions()
	opts.Domain = dom
	type target struct {
		name    string
		sources map[string]string
	}
	var targets []target
	switch {
	case fs.NArg() > 0:
		for _, dir := range fs.Args() {
			sources, err := policyoracle.ReadSourcesDir(dir)
			if err != nil {
				return err
			}
			targets = append(targets, target{filepath.Base(dir), sources})
		}
	case dom.ID() == policyoracle.DefaultDomainID:
		for _, name := range policyoracle.BuiltinCorpora() {
			targets = append(targets, target{name, policyoracle.BuiltinCorpus(name)})
		}
	case dom.ID() == policyoracle.CryptoDomainID:
		// The crypto domain has no hand-written corpus; fuzz the
		// generated one, which carries the seeded misuse population.
		c := gen.Generate(gen.CryptoSmall())
		var names []string
		for name := range c.Sources {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			targets = append(targets, target{name, c.Sources[name]})
		}
	default:
		return fmt.Errorf("fuzz: no bundled corpus for domain %s; pass library directories", dom.ID())
	}
	metrics := telemetry.NewCampaignMetrics(telemetry.New())
	copts := campaign.Options{
		Seed:        *seed,
		Rounds:      *rounds,
		Mutations:   *mutations,
		Workers:     *workers,
		ShardRounds: *shardRounds,
		Uniform:     uniform,
		Oracle:      &opts,
		OutDir:      *outDir,
		Metrics:     metrics,
	}
	report := fuzzReport{Schedule: copts.Schedule(), Seed: *seed, Rounds: *rounds}
	for _, tg := range targets {
		var res *campaign.Result
		var err error
		if *remote != "" {
			res, err = campaign.RunRemote(context.Background(), tg.name, tg.sources, copts,
				strings.Split(*remote, ","))
		} else {
			res, err = campaign.Run(tg.name, tg.sources, copts)
		}
		if err != nil {
			return fmt.Errorf("fuzz %s: %w", tg.name, err)
		}
		report.Libraries = append(report.Libraries, res)
		report.Violations += res.RawViolations
		if !*jsonOut {
			fmt.Printf("%s: %d rounds over %d entry points in %v (%d coverage keys, %d new-coverage rounds)\n",
				res.Library, res.Rounds, res.Entries, res.Elapsed.Round(time.Millisecond),
				len(res.CoverageKeys), res.NewCoverageRounds)
			for _, c := range res.Crashers {
				where := ""
				if c.Bundle != "" {
					where = " bundle=" + c.Bundle
				}
				fmt.Printf("  CRASHER %s [%s] first round %d, seen %d, trace %d step(s), minimized=%v%s\n",
					c.Fingerprint, c.Invariant, c.FirstRound, c.Seen, len(c.Trace), c.Minimized, where)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	} else {
		applied, attempted := map[string]int{}, map[string]int{}
		rounds := 0
		for _, res := range report.Libraries {
			rounds += res.Rounds
			for m, n := range res.Applied {
				applied[m] += n
			}
			for m, n := range res.Attempted {
				attempted[m] += n
			}
		}
		fmt.Printf("\nrewrites applied (all libraries):\n")
		for _, m := range metamorph.Mutators() {
			fmt.Printf("  %-15s %6d applied / %6d attempted\n", m.Name, applied[m.Name], attempted[m.Name])
		}
		fmt.Printf("rounds %d, violations %d\n", rounds, report.Violations)
	}
	if report.Violations > 0 {
		return fmt.Errorf("%w: %d raw violation(s) across %d unique crasher(s); replay with -seed %d",
			errViolations, report.Violations, countCrashers(report.Libraries), *seed)
	}
	return nil
}

func countCrashers(results []*campaign.Result) int {
	n := 0
	for _, res := range results {
		n += len(res.Crashers)
	}
	return n
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("corpus: expected one output directory")
	}
	out := fs.Arg(0)
	for _, name := range policyoracle.BuiltinCorpora() {
		for file, src := range policyoracle.BuiltinCorpus(name) {
			path := filepath.Join(out, name, filepath.FromSlash(file))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %s/%s\n", out, name)
	}
	return nil
}
