package dataflow

import (
	"testing"

	"policyoracle/internal/ir"
)

// TestSolverReuseAllocFree is the allocation regression test for the
// index-cursor worklist rework: a reused Solver must reach the fixed
// point of a CFG with loops without any steady-state heap allocation.
// The former `worklist = worklist[1:]` pop combined with append re-grew
// the backing array on every revisit wave.
func TestSolverReuseAllocFree(t *testing.T) {
	// Two nested loops: 0 -> 1; 1 -> 2, 4; 2 -> 3; 3 -> 1, 2; 4 exit.
	blocks := graph([][]int{{1}, {2, 4}, {3}, {1, 2}, {}})
	p := genProblem(blocks, union, 0)
	var s Solver[uint64]
	s.Solve(p) // warm-up sizes the solver's buffers
	if n := testing.AllocsPerRun(100, func() { s.Solve(p) }); n != 0 {
		t.Errorf("warm Solver.Solve allocates %v objects per run", n)
	}
}

// TestSolverReuseMatchesFresh checks buffer reuse cannot leak state
// between solves: a warm solver and a fresh Solve must agree exactly.
func TestSolverReuseMatchesFresh(t *testing.T) {
	blocks := graph([][]int{{1, 2}, {3}, {3}, {1}})
	var s Solver[uint64]
	for i := 0; i < 3; i++ {
		meet := union
		if i%2 == 1 {
			meet = intersect
		}
		warm := s.Solve(genProblem(blocks, meet, 0))
		fresh := new(Solver[uint64]).Solve(genProblem(blocks, meet, 0))
		for b := range blocks {
			if warm.In[b] != fresh.In[b] || warm.Out[b] != fresh.Out[b] || warm.Reached[b] != fresh.Reached[b] {
				t.Fatalf("solve %d: warm and fresh disagree at block %d", i, b)
			}
		}
	}
}

// BenchmarkSolverReused measures the steady-state solve cost with pooled
// buffers; BenchmarkSolverFresh is the old behavior (new solver state
// every call) for comparison.
func BenchmarkSolverReused(b *testing.B) {
	blocks := ladderCFG(64)
	p := genProblem(blocks, union, 0)
	var s Solver[uint64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(p)
	}
}

func BenchmarkSolverFresh(b *testing.B) {
	blocks := ladderCFG(64)
	p := genProblem(blocks, union, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Solver[uint64]).Solve(p)
	}
}

// ladderCFG builds a chain of diamonds with back edges, the shape that
// maximizes worklist churn: each rung i is a diamond (head, two arms,
// tail) whose tail feeds the next rung's head and jumps back to its own
// head.
func ladderCFG(rungs int) []*ir.Block {
	adj := make([][]int, rungs*4)
	for r := 0; r < rungs; r++ {
		head, a, b, tail := r*4, r*4+1, r*4+2, r*4+3
		adj[head] = []int{a, b}
		adj[a] = []int{tail}
		adj[b] = []int{tail}
		adj[tail] = []int{head}
		if r+1 < rungs {
			adj[tail] = append(adj[tail], (r+1)*4)
		}
	}
	return graph(adj)
}
