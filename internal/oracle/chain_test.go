package oracle

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// chainSources returns a library whose one public entry point calls the
// first of n package-private classes. Each class's static m() calls the
// next class's, and the last one makes a check and a native call, so
// every summary on the chain reaches the same check and event.
func chainSources(n int) map[string]string {
	var src strings.Builder
	src.WriteString("package chain;\nimport java.lang.*;\npublic class Api {\n  public void run() { C0.m(); }\n}\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&src, "class C%d {\n  static void m() { C%d.m(); }\n}\n", i, i+1)
	}
	fmt.Fprintf(&src, "class C%d {\n  static SecurityManager sm;\n  static void m() { sm.checkRead(\"x\"); op0(); }\n  static native void op0();\n}\n", n-1)
	return map[string]string{"rt.mj": runtimeMJ, "chain/Chain.mj": src.String()}
}

// chainOptions extracts on one worker, so the allocation figures below
// are those of one sequential extraction.
func chainOptions() Options {
	opts := DefaultOptions()
	opts.Parallel = 1
	return opts
}

// TestExtractChainAllocLinear checks that extraction allocates linearly
// in the length of a call chain. ISPA memoizes one summary per link;
// when each summary held a copy of everything beneath it (its callees'
// events and origins, and its transitive dependency set), a chain of n
// links allocated O(n²): 6.9 MB at 2,000 links and 40.0 MB at 8,000,
// 5.8 times as much for 4 times the links. With summaries that refer to
// their callees' instead, the figures are 4.9 and 19.6 MB (4.0 times).
func TestExtractChainAllocLinear(t *testing.T) {
	alloc := func(n int) uint64 {
		l := loadTestLib(t, "chain", chainSources(n))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.Extract(chainOptions())
		runtime.ReadMemStats(&after)
		ep := l.Policies.Entries["chain.Api.run()"]
		if ep == nil || len(ep.Events) != 2 {
			t.Fatalf("%d links: entry policy %+v, want the native call and the return", n, ep)
		}
		if deps := l.EntryDeps["chain.Api.run()"]; len(deps) != n+1 {
			t.Fatalf("%d links: %d dependencies, want %d", n, len(deps), n+1)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(2_000), alloc(8_000)
	ratio := float64(long) / float64(short)
	t.Logf("allocated %.1f MB at 2,000 links, %.1f MB at 8,000 (%.2fx)", float64(short)/1e6, float64(long)/1e6, ratio)
	if ratio >= 4.6 {
		t.Errorf("4x the links allocate %.2fx the bytes (%d -> %d), want under 4.6x", ratio, short, long)
	}
}

// BenchmarkExtractChain measures one sequential extraction of a
// 2,000- and an 8,000-link call chain. Run it with -benchmem: bytes per
// op should grow about 4x between the two, the cost per link staying
// flat.
func BenchmarkExtractChain(b *testing.B) {
	for _, n := range []int{2_000, 8_000} {
		l := loadTestLib(b, "chain", chainSources(n))
		b.Run(fmt.Sprintf("links=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Extract(chainOptions())
			}
		})
	}
}
