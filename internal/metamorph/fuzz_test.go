package metamorph_test

import (
	"testing"

	"policyoracle/internal/corpus/gen"
	"policyoracle/internal/metamorph"
	"policyoracle/internal/oracle"
)

// FuzzMetamorphicDiff fuzzes the campaign's input space — the mutation
// seed and schedule length — over a fixed tiny generated corpus. Every
// execution is one full metamorphic round: mutate, extract, and check
// all five invariants (clean diff, MUST ⊆ MAY, parallel = serial, export
// round-trip, incremental = clean rebuild). Any violation the fuzzer
// finds is a minimized, replayable (seed, n) pair.
func FuzzMetamorphicDiff(f *testing.F) {
	src := gen.Generate(gen.Params{
		Seed: 7, Classes: 4, MethodsPerClass: 3, CheckFraction: 0.5,
		MaxDepth: 2, WrapperFanout: 1,
		DropCheck: 1, WeakenMust: 1, ConstGuards: 1, PolymorphicNoise: 1,
	}).Sources["jdk"]
	serial := oracle.DefaultOptions()
	base, err := oracle.LoadLibrary("jdk", src)
	if err != nil {
		f.Fatal(err)
	}
	base.Extract(serial)
	f.Add(int64(1), uint64(4))
	f.Add(int64(-9000), uint64(1))
	f.Add(int64(1723), uint64(16))
	f.Add(int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint64) {
		mutated, applied, err := metamorph.MutateSources(src, seed, int(n%24)+1)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := oracle.LoadLibrary("jdk+r0", mutated)
		if err != nil {
			t.Fatalf("loading mutant after %v: %v", applied, err)
		}
		lib.Extract(serial)
		chk := metamorph.MutantChecks{Parallel: true, Incremental: true}
		for _, v := range metamorph.CheckExtracted(base, lib, mutated, serial, chk) {
			v.Mutators = applied
			t.Error(v)
		}
	})
}
