package constprop

import (
	"fmt"
	"strings"
	"testing"
)

// loopyBody builds a function body of n sequential loops, each with a
// data-dependent branch, so the worklist revisits blocks repeatedly.
func loopyBody(n int) string {
	var sb strings.Builder
	sb.WriteString("int acc; acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "int i%d; i%d = 0; while (i%d < k) { if (acc > %d) { acc = acc + 1; } else { acc = acc + 2; } i%d = i%d + 1; }\n", i, i, i, i, i, i)
	}
	sb.WriteString("return;")
	return sb.String()
}

// TestAnalyzeAllocationFlat is the allocation regression test for the
// solver's working memory, on the path ISPA runs: a warm solve on a
// reused Scratch allocates only its Result (the struct, the edge-offset
// table and one liveness arena; these bodies make no calls), whatever
// the CFG size. The former implementation allocated one map per block
// environment plus a re-grown worklist slice, so allocations scaled with
// blocks × locals.
func TestAnalyzeAllocationFlat(t *testing.T) {
	small := lowerFunc(t, loopyBody(2), "int k")
	large := lowerFunc(t, loopyBody(20), "int k")
	var s Scratch
	Analyze(large, nil, Config{}, &s) // size the scratch for both
	nSmall := testing.AllocsPerRun(50, func() { Analyze(small, nil, Config{}, &s) })
	nLarge := testing.AllocsPerRun(50, func() { Analyze(large, nil, Config{}, &s) })
	if nSmall > 3 {
		t.Errorf("small function: %v allocs per warm Analyze, want <= 3", nSmall)
	}
	if nLarge != nSmall {
		t.Errorf("allocation scales with CFG size: %v (small) -> %v (large)", nSmall, nLarge)
	}
}

// BenchmarkAnalyze measures one warm constant-propagation solve of a
// loop-heavy function on a reused Scratch, the analysis the ISPA hot
// path runs per (method, constant-binding) pair.
func BenchmarkAnalyze(b *testing.B) {
	f := lowerFunc(b, loopyBody(8), "int k")
	var s Scratch
	Analyze(f, nil, Config{}, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(f, nil, Config{}, &s)
	}
}
