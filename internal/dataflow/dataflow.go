// Package dataflow provides a generic forward worklist solver over IR
// control-flow graphs. The security policy dataflow analysis (SPDA,
// Algorithm 1 in the paper) instantiates it twice — MAY (union meet) and
// MUST (intersection meet) — over the powerset-of-checks lattice, and a
// third time over bounded path-set states for Figure 2-style reporting.
package dataflow

import "policyoracle/internal/ir"

// Problem describes one forward dataflow instance over a function's CFG.
type Problem[T any] struct {
	Blocks  []*ir.Block
	EntryIn T

	// Meet combines the OUT values of multiple feasible predecessors
	// (union for MAY, intersection for MUST).
	Meet func(a, b T) T
	// Equal detects convergence.
	Equal func(a, b T) bool
	// Transfer computes OUT from IN for one block.
	Transfer func(b *ir.Block, in T) T
	// EdgeFeasible reports whether the i'th successor edge of b can
	// execute; nil means all edges are feasible. Infeasible edges are the
	// product of conditional constant propagation.
	EdgeFeasible func(b *ir.Block, i int) bool
}

// Solution holds per-block dataflow values after convergence.
type Solution[T any] struct {
	In      []T
	Out     []T
	Reached []bool
}

// Solver is a reusable worklist solver. Its buffers are retained between
// calls, so a Solver amortises all per-Solve allocations across the many
// functions an interprocedural analysis visits. The Solution returned by
// Solve aliases the solver's internal buffers: it is valid only until the
// next Solve call on the same Solver.
//
// The zero value is ready to use. A Solver is not safe for concurrent use.
type Solver[T any] struct {
	sol      Solution[T]
	worklist []*ir.Block
	inList   []bool
}

// Solve runs the worklist algorithm to a fixed point, reusing the
// solver's buffers. Blocks with no feasible path from the entry are left
// unreached; their In/Out values are meaningless and Reached reports
// false. Worklist order is FIFO, identical to the one-shot Solve.
func (s *Solver[T]) Solve(p *Problem[T]) *Solution[T] {
	n := len(p.Blocks)
	if cap(s.sol.In) < n {
		s.sol.In = make([]T, n)
		s.sol.Out = make([]T, n)
		s.sol.Reached = make([]bool, n)
		s.inList = make([]bool, n)
	}
	sol := &s.sol
	sol.In = sol.In[:n]
	sol.Out = sol.Out[:n]
	sol.Reached = sol.Reached[:n]
	inList := s.inList[:n]
	var zero T
	for i := 0; i < n; i++ {
		sol.In[i] = zero
		sol.Out[i] = zero
		sol.Reached[i] = false
		inList[i] = false
	}
	if n == 0 {
		return sol
	}
	feasible := p.EdgeFeasible

	entry := p.Blocks[0]
	sol.In[entry.Index] = p.EntryIn
	sol.Out[entry.Index] = p.Transfer(entry, p.EntryIn)
	sol.Reached[entry.Index] = true

	// FIFO worklist with an index-cursor pop: popping advances head
	// instead of re-slicing, which would pin the backing array's head and
	// force a re-grow on every push cycle. The buffer is compacted once
	// drained and reused across Solve calls.
	worklist := s.worklist[:0]
	head := 0
	push := func(b *ir.Block) {
		if !inList[b.Index] {
			worklist = append(worklist, b)
			inList[b.Index] = true
		}
	}
	for i, succ := range entry.Succs {
		if feasible == nil || feasible(entry, i) {
			push(succ)
		}
	}

	for head < len(worklist) {
		b := worklist[head]
		worklist[head] = nil
		head++
		if head == len(worklist) {
			worklist = worklist[:0]
			head = 0
		}
		inList[b.Index] = false

		// IN(b) = meet over feasible, reached predecessor edges.
		var in T
		have := false
		for _, pred := range b.Preds {
			if !sol.Reached[pred.Index] {
				continue
			}
			for i, succ := range pred.Succs {
				if succ != b || !(feasible == nil || feasible(pred, i)) {
					continue
				}
				if !have {
					in = sol.Out[pred.Index]
					have = true
				} else {
					in = p.Meet(in, sol.Out[pred.Index])
				}
				break // one edge from this pred suffices for the meet
			}
		}
		if !have {
			continue // no feasible path here yet
		}

		out := p.Transfer(b, in)
		first := !sol.Reached[b.Index]
		if first || !p.Equal(sol.Out[b.Index], out) || !p.Equal(sol.In[b.Index], in) {
			sol.In[b.Index] = in
			sol.Out[b.Index] = out
			sol.Reached[b.Index] = true
			for i, succ := range b.Succs {
				if feasible == nil || feasible(b, i) {
					push(succ)
				}
			}
		}
	}
	s.worklist = worklist[:0]
	return sol
}
