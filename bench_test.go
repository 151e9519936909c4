// Benchmarks regenerating the paper's evaluation, one per table/figure:
//
//   - BenchmarkTable1Extraction  — policy extraction per library (Table 1's
//     workload; the policy counts are printed by cmd/experiments table1)
//   - BenchmarkTable2Memoization — MAY analysis under the three summary
//     modes (Table 2's swept parameter)
//   - BenchmarkTable3Diff        — pairwise policy differencing (Table 3)
//   - BenchmarkBroadEvents       — broad vs narrow event extraction (§3)
//   - BenchmarkBaselineMining    — the code-mining baseline (§2/§7)
//   - BenchmarkFrontend          — MJ parse+build+lower substrate
//
// Absolute times are machine-specific; the reproduced *shape* is the
// memoization ordering none ≫ per-entry ≥ global and the broad-events
// slowdown. cmd/experiments prints the corresponding tables with exact
// counts; EXPERIMENTS.md records paper-vs-measured values.
package policyoracle_test

import (
	"fmt"
	"sync"
	"testing"

	"policyoracle"
	"policyoracle/internal/analysis"
	"policyoracle/internal/baseline/mining"
	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/experiments"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

// benchParams sizes the generated corpus for benchmarking: large enough to
// exercise memoization and differencing, small enough for -bench runs.
func benchParams() gen.Params {
	p := gen.Small()
	p.Classes = 48
	p.MethodsPerClass = 8
	return p
}

var (
	benchOnce sync.Once
	benchWork *experiments.Workload
)

func benchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchOnce.Do(func() {
		benchWork = experiments.NewWorkload(benchParams(), true)
	})
	return benchWork
}

func loadLib(b *testing.B, w *experiments.Workload, name string) *policyoracle.Library {
	b.Helper()
	l, err := w.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkTable1Extraction measures full MAY+MUST policy extraction for
// one implementation — the per-library cost behind Table 1's policy counts.
func BenchmarkTable1Extraction(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := loadLib(b, w, "jdk")
		l.Extract(oracle.DefaultOptions())
		if l.Policies.CountPolicies() == 0 {
			b.Fatal("no policies extracted")
		}
	}
}

// BenchmarkTable2Memoization sweeps the summary-reuse modes of Table 2.
func BenchmarkTable2Memoization(b *testing.B) {
	w := benchWorkload(b)
	for _, memo := range []analysis.MemoMode{analysis.MemoNone, analysis.MemoPerEntry, analysis.MemoGlobal} {
		b.Run(memo.String(), func(b *testing.B) {
			opts := oracle.DefaultOptions()
			opts.Memo = memo
			opts.Modes = []analysis.Mode{analysis.May}
			opts.CollectPaths = false
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := loadLib(b, w, "harmony")
				l.Extract(opts)
			}
		})
	}
}

// BenchmarkTable3Diff measures pairwise differencing of pre-extracted
// policies — the comparison step of Table 3.
func BenchmarkTable3Diff(b *testing.B) {
	w := benchWorkload(b)
	libs, err := w.LoadAll(oracle.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := policyoracle.Diff(libs["jdk"], libs["harmony"])
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Groups) == 0 {
			b.Fatal("no differences found")
		}
	}
}

// BenchmarkTable3EndToEnd measures the full pipeline for one pair: load,
// extract both libraries, and difference them.
func BenchmarkTable3EndToEnd(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := loadLib(b, w, "jdk")
		h := loadLib(b, w, "harmony")
		a.Extract(oracle.DefaultOptions())
		h.Extract(oracle.DefaultOptions())
		if _, err := policyoracle.Diff(a, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadEvents measures extraction under the Section 3 broad event
// definition (private-field and parameter accesses as events).
func BenchmarkBroadEvents(b *testing.B) {
	w := benchWorkload(b)
	for _, mode := range []secmodel.EventMode{secmodel.NarrowEvents, secmodel.BroadEvents} {
		b.Run(mode.String(), func(b *testing.B) {
			opts := oracle.DefaultOptions()
			opts.Events = mode
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := loadLib(b, w, "classpath")
				l.Extract(opts)
			}
		})
	}
}

// BenchmarkExtractParallel measures full MAY+MUST extraction of one
// implementation across worker counts. The library is loaded once
// outside the timed loop so the numbers describe extraction itself (the
// frontend has its own BenchmarkFrontend); each iteration re-runs the
// complete MAY+MUST analysis and republishes the policies. The entries/s
// metric counts per-mode entry-point analyses per second (2 modes ×
// entry points × iterations / wall).
//
// On a multi-core machine the 4- and 8-worker variants should show the
// near-linear speedup of the entry-point fan-out; on a single core all
// variants converge (the pool degenerates to sequential execution plus
// scheduling overhead).
func BenchmarkExtractParallel(b *testing.B) {
	w := benchWorkload(b)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			l := loadLib(b, w, "jdk")
			entries := len(l.EntryPoints())
			opts := oracle.DefaultOptions()
			opts.Parallel = par
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Extract(opts)
				if l.Policies.CountPolicies() == 0 {
					b.Fatal("no policies extracted")
				}
			}
			b.ReportMetric(float64(2*entries*b.N)/b.Elapsed().Seconds(), "entries/s")
		})
	}
}

// BenchmarkBaselineMining measures the code-mining baseline over one
// implementation's extracted policies.
func BenchmarkBaselineMining(b *testing.B) {
	w := benchWorkload(b)
	l := loadLib(b, w, "harmony")
	l.Extract(oracle.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := mining.New(l.Policies, mining.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		m.FindViolations()
	}
}

// BenchmarkFrontend measures the MJ substrate alone: parse, build the
// class table, and lower to IR.
func BenchmarkFrontend(b *testing.B) {
	w := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Load("classpath"); err != nil {
			b.Fatal(err)
		}
	}
}
