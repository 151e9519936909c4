package analysis

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"policyoracle/internal/callgraph"
	"policyoracle/internal/ir"
	"policyoracle/internal/types"
)

// TestAnalyzerFreedByOneGC checks that an analyzer dies with its
// extraction: once concurrent AnalyzeEntry calls have returned and their
// goroutines exited, a single garbage collection frees it. The sentinel
// is the analyzer's call-site resolution table, which nothing else
// references. (A finalizer on the Analyzer itself would never run: its
// idle tasks point back to it, and the runtime does not collect a cycle
// that contains a finalizer.)
func TestAnalyzerFreedByOneGC(t *testing.T) {
	p, res := buildProgram(t, simpleSrc, interprocSrc, recursiveSrc)
	before := runtime.NumGoroutine()
	freed := make(chan struct{})
	analyzeConcurrently(t, p, res, freed)
	// The workers have signalled done but may not have exited; a live
	// worker stack could still hold the analyzer.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("workers did not exit: %d goroutines, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("analyzer still reachable after one garbage collection")
	}
}

// analyzeConcurrently analyzes every entry point of p from four
// goroutines at once on one analyzer, and arranges for freed to close
// when that analyzer's site table is collected.
func analyzeConcurrently(t *testing.T, p *ir.Program, res *callgraph.Resolver, freed chan struct{}) {
	a := New(p, res, DefaultConfig(May))
	if len(a.sites) == 0 {
		t.Fatal("test program has no call sites")
	}
	runtime.SetFinalizer(&a.sites[0], func(*atomic.Pointer[types.Method]) { close(freed) })
	entries := p.Types.EntryPoints()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range entries {
				if r := a.AnalyzeEntry(m); r == nil {
					t.Error("nil result")
				}
			}
		}()
	}
	wg.Wait()
	if a.Stats().EntryPoints != 4*len(entries) {
		t.Fatalf("analyzed %d entries, want %d", a.Stats().EntryPoints, 4*len(entries))
	}
}
