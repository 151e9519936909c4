package oracle_test

import (
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
	"policyoracle/internal/secmodel"
)

// BenchmarkExtractIncremental extracts a one-step metamorphic mutant of
// the gen.Small jdk seeded from the unmutated jdk: the extraction behind
// one edit-stream PUT, without the store. Options are the store's, with
// display collection off. It reports how many entries the analyzers ran.
func BenchmarkExtractIncremental(b *testing.B) {
	base := gen.Generate(gen.Small()).Sources["jdk"]
	opts := oracle.DefaultOptions()
	opts.CollectPaths = false
	prev, err := oracle.LoadLibrary("jdk", base)
	if err != nil {
		b.Fatal(err)
	}
	prev.Extract(opts)
	var mutant map[string]string
	for seed := int64(1); mutant == nil; seed++ {
		src, applied, err := metamorph.MutateSources(base, seed, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(applied) > 0 {
			mutant = src
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st *oracle.IncrementalStats
	for i := 0; i < b.N; i++ {
		if _, st, err = oracle.ExtractIncremental(prev, mutant, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Reanalyzed), "reanalyzed")
}

// BenchmarkMethodHashes hashes every method of the gen.Small jdk under
// the default domain: the table each edit-stream PUT computes for its
// new revision and persists in the store's sidecar.
func BenchmarkMethodHashes(b *testing.B) {
	lib, err := oracle.LoadLibrary("jdk", gen.Generate(gen.Small()).Sources["jdk"])
	if err != nil {
		b.Fatal(err)
	}
	d := secmodel.SecurityManager()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHashes = oracle.MethodHashes(lib.Prog, lib.Resolver, d)
	}
}

var benchHashes map[string]string
