package dataflow

import (
	"testing"
	"testing/quick"

	"policyoracle/internal/ir"
)

// graph builds a CFG skeleton from an adjacency list.
func graph(adj [][]int) []*ir.Block {
	blocks := make([]*ir.Block, len(adj))
	for i := range blocks {
		blocks[i] = &ir.Block{Index: i}
	}
	for i, succs := range adj {
		for _, s := range succs {
			blocks[i].Succs = append(blocks[i].Succs, blocks[s])
			blocks[s].Preds = append(blocks[s].Preds, blocks[i])
		}
	}
	return blocks
}

// bits is a simple gen-set problem: each block generates the bit of its
// index (for indexes < 64).
func genProblem(blocks []*ir.Block, meet func(a, b uint64) uint64, entryIn uint64) *Problem[uint64] {
	return &Problem[uint64]{
		Blocks:  blocks,
		EntryIn: entryIn,
		Meet:    meet,
		Equal:   func(a, b uint64) bool { return a == b },
		Transfer: func(b *ir.Block, in uint64) uint64 {
			return in | 1<<uint(b.Index)
		},
	}
}

func union(a, b uint64) uint64     { return a | b }
func intersect(a, b uint64) uint64 { return a & b }

func TestDiamondMayMust(t *testing.T) {
	// 0 -> 1, 2; 1 -> 3; 2 -> 3
	blocks := graph([][]int{{1, 2}, {3}, {3}, {}})

	may := new(Solver[uint64]).Solve(genProblem(blocks, union, 0))
	if may.In[3] != 0b0111 {
		t.Errorf("may IN(3) = %b", may.In[3])
	}
	must := new(Solver[uint64]).Solve(genProblem(blocks, intersect, 0))
	// Only block 0's bit survives the intersection at the join.
	if must.In[3] != 0b0001 {
		t.Errorf("must IN(3) = %b", must.In[3])
	}
}

func TestLoopConverges(t *testing.T) {
	// 0 -> 1; 1 -> 2, 3; 2 -> 1 (back edge); 3 exit
	blocks := graph([][]int{{1}, {2, 3}, {1}, {}})
	may := new(Solver[uint64]).Solve(genProblem(blocks, union, 0))
	if may.In[3] != 0b0111 {
		t.Errorf("may IN(3) = %b", may.In[3])
	}
	must := new(Solver[uint64]).Solve(genProblem(blocks, intersect, 0))
	// The loop may be skipped... it cannot: 1 is on every path. 2 may be.
	if must.In[3]&0b0010 == 0 || must.In[3]&0b0100 != 0 {
		t.Errorf("must IN(3) = %b", must.In[3])
	}
}

func TestUnreachableBlocks(t *testing.T) {
	// Block 2 has no in-edges.
	blocks := graph([][]int{{1}, {}, {1}})
	sol := new(Solver[uint64]).Solve(genProblem(blocks, union, 0))
	if sol.Reached[2] {
		t.Error("unreachable block marked reached")
	}
	if !sol.Reached[0] || !sol.Reached[1] {
		t.Error("reachable blocks not marked")
	}
	// Unreachable predecessors must not pollute the meet.
	if sol.In[1] != 0b001 {
		t.Errorf("IN(1) = %b", sol.In[1])
	}
}

func TestInfeasibleEdges(t *testing.T) {
	// Diamond, but the 0->2 edge is infeasible (constant-folded).
	blocks := graph([][]int{{1, 2}, {3}, {3}, {}})
	p := genProblem(blocks, intersect, 0)
	p.EdgeFeasible = func(b *ir.Block, i int) bool {
		return !(b.Index == 0 && i == 1)
	}
	sol := new(Solver[uint64]).Solve(p)
	if sol.Reached[2] {
		t.Error("block behind infeasible edge reached")
	}
	// With the false path dead, block 1's bit becomes a MUST fact at 3.
	if sol.In[3] != 0b0011 {
		t.Errorf("must IN(3) = %b", sol.In[3])
	}
}

func TestEntryIn(t *testing.T) {
	blocks := graph([][]int{{1}, {}})
	sol := new(Solver[uint64]).Solve(genProblem(blocks, union, 0b1000000))
	if sol.In[1]&0b1000000 == 0 {
		t.Errorf("entry seed lost: IN(1) = %b", sol.In[1])
	}
}

func TestEmptyFunction(t *testing.T) {
	sol := new(Solver[uint64]).Solve(genProblem(nil, union, 0))
	if len(sol.In) != 0 {
		t.Error("non-empty solution for empty graph")
	}
}

// Property: on random DAGs, the MAY solution at every reached block equals
// the union of all blocks on some path — which for gen-bit transfer means
// IN(b) ⊇ bit(p) for every reached pred p, and the solution is a fixed
// point of the equations.
func TestRandomDAGFixedPoint(t *testing.T) {
	f := func(edges [][2]uint8, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		adj := make([][]int, n)
		for _, e := range edges {
			from, to := int(e[0])%n, int(e[1])%n
			if from < to { // forward edges only: a DAG
				adj[from] = append(adj[from], to)
			}
		}
		blocks := graph(adj)
		for _, meet := range []func(a, b uint64) uint64{union, intersect} {
			sol := new(Solver[uint64]).Solve(genProblem(blocks, meet, 0))
			for _, b := range blocks {
				if !sol.Reached[b.Index] {
					continue
				}
				// OUT = IN | bit (transfer consistency).
				if sol.Out[b.Index] != sol.In[b.Index]|1<<uint(b.Index) {
					return false
				}
				// IN = meet over reached preds' OUT (fixed-point check).
				var in uint64
				have := false
				for _, p := range b.Preds {
					if !sol.Reached[p.Index] {
						continue
					}
					if !have {
						in = sol.Out[p.Index]
						have = true
					} else {
						in = meet(in, sol.Out[p.Index])
					}
				}
				if have && in != sol.In[b.Index] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
