package lp

import (
	"fmt"
	"time"
)

// Stats accumulates solver effort across Solve/WarmSolve calls on every
// problem it is attached to (SetStats). It is not safe for concurrent
// use: give each worker its own Stats and merge with Add.
type Stats struct {
	// Solves counts cold two-phase solves (presolve + phase 1 + phase 2).
	Solves int
	// SparseSolves counts the subset of Solves (cold and warm) that ran
	// on the sparse revised-simplex core rather than the dense tableau.
	SparseSolves int
	// WarmSolves counts warm-started re-optimizations that reused the
	// factored basis of a previous solve (phase 2 only).
	WarmSolves int
	// NetSolves counts solves answered by the network-dual fast path
	// (min-cost flow on the RLP's difference structure) without running
	// any simplex. They are not included in Solves or WarmSolves.
	NetSolves int
	// Pivots counts simplex pivots across all solves.
	Pivots int64
	// Augments counts the flow augmentations of the network-dual fast
	// path (its analogue of Pivots).
	Augments int64
	// Refactors counts basis refactorizations of the sparse core (the
	// eta file is rebuilt from scratch every refactorStride pivots and
	// at every warm start).
	Refactors int64
	// PresolveFixed counts variables the Reduce presolver fixed to a
	// constant (pins and everything a pin chain reaches) and
	// substituted out before any solve ran.
	PresolveFixed int
	// PresolveContracted counts variables Reduce eliminated by
	// contracting difference-equality chains into their class
	// representative.
	PresolveContracted int
	// Blocks counts the independent blocks actually solved after
	// Reduce split a problem (warm rounds skip clean blocks, which are
	// not counted).
	Blocks int
	// Phase1 and Phase2 are the wall times spent pivoting in the
	// feasibility and optimality phases.
	Phase1, Phase2 time.Duration
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Solves += o.Solves
	s.SparseSolves += o.SparseSolves
	s.WarmSolves += o.WarmSolves
	s.NetSolves += o.NetSolves
	s.Pivots += o.Pivots
	s.Augments += o.Augments
	s.Refactors += o.Refactors
	s.PresolveFixed += o.PresolveFixed
	s.PresolveContracted += o.PresolveContracted
	s.Blocks += o.Blocks
	s.Phase1 += o.Phase1
	s.Phase2 += o.Phase2
}

// Arena is a scratch allocator for the dense simplex tableau. Solving
// re-carves row storage from the same block instead of allocating a
// fresh tableau per solve, which removes the dominant allocation cost
// when many small RLPs are solved in sequence (per-axis, per-refinement
// round). An Arena is not safe for concurrent use; a problem that keeps
// its basis (KeepBasis) stores the retained tableau in its arena, so do
// not share one arena between problems that keep bases.
type Arena struct {
	f   []float64
	fi  int
	i   []int
	ii  int
	i3  []int32
	i3i int

	// sp is the sparse core's resident state: the solver value whose
	// FTRAN/BTRAN vectors, flat eta file, and pricing scratch persist
	// across solves, plus form-construction scratch. It rides the same
	// pool handoff as the carved blocks (Reset), but is length-checked
	// on reuse rather than cursor-rewound.
	sp sparseScratch
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

func (ar *Arena) reset() { ar.fi, ar.ii, ar.i3i = 0, 0, 0 }

// Reset rewinds the arena so the next carve reuses its blocks from the
// start. It is the pool-handoff point for arenas recycled across
// solves (the batch engine's scratch pools): call it only once no live
// tableau reads previously carved storage — every owning Problem is
// dead or has dropped its basis — since later carves overwrite it.
func (ar *Arena) Reset() { ar.reset() }

// floats carves a zeroed []float64 of length n. Growth abandons the old
// block (outstanding slices stay valid) and doubles, so a steady-state
// workload allocates nothing.
func (ar *Arena) floats(n int) []float64 {
	if ar.fi+n > len(ar.f) {
		sz := 2 * len(ar.f)
		if sz < n {
			sz = n
		}
		if sz < 1024 {
			sz = 1024
		}
		ar.f = make([]float64, sz)
		ar.fi = 0
	}
	s := ar.f[ar.fi : ar.fi+n : ar.fi+n]
	ar.fi += n
	for j := range s {
		s[j] = 0
	}
	return s
}

func (ar *Arena) int32s(n int) []int32 {
	if ar.i3i+n > len(ar.i3) {
		sz := 2 * len(ar.i3)
		if sz < n {
			sz = n
		}
		if sz < 256 {
			sz = 256
		}
		ar.i3 = make([]int32, sz)
		ar.i3i = 0
	}
	s := ar.i3[ar.i3i : ar.i3i+n : ar.i3i+n]
	ar.i3i += n
	for j := range s {
		s[j] = 0
	}
	return s
}

func (ar *Arena) ints(n int) []int {
	if ar.ii+n > len(ar.i) {
		sz := 2 * len(ar.i)
		if sz < n {
			sz = n
		}
		if sz < 256 {
			sz = 256
		}
		ar.i = make([]int, sz)
		ar.ii = 0
	}
	s := ar.i[ar.ii : ar.ii+n : ar.ii+n]
	ar.ii += n
	for j := range s {
		s[j] = 0
	}
	return s
}

// SetArena makes the problem carve its tableau from ar across Solve
// calls. Passing nil restores per-solve allocation.
func (p *Problem) SetArena(ar *Arena) { p.arena = ar }

// SetStats attaches an effort accumulator; nil detaches it.
func (p *Problem) SetStats(s *Stats) { p.stats = s }

// SetCost replaces the objective cost of variable v. Combined with
// KeepBasis/WarmSolve this re-optimizes an already-factored problem
// after an objective change without re-running phase 1.
func (p *Problem) SetCost(v VarID, cost float64) { p.costs[v] = cost }

// KeepBasis makes Solve retain the final tableau and basis so a later
// WarmSolve (after SetCost changes) re-optimizes with phase 2 only.
// Keeping a basis bypasses the equality presolve: the retained tableau
// must correspond to the full problem, or cost updates on presolved-away
// variables would be lost.
func (p *Problem) KeepBasis() { p.keep = true }

// warmState is the retained end-of-solve tableau of a KeepBasis problem.
type warmState struct {
	tableau
	nz           []int // pivot's column scratch
	nVars, nCons int   // structure fingerprint at solve time
	cost         []float64
}

// WarmSolve re-optimizes from the basis retained by the previous Solve.
// If no basis is retained, or variables/constraints were added since, it
// falls back to a full cold Solve. The current basis stays primal
// feasible under any objective change, so only phase 2 runs.
func (p *Problem) WarmSolve() (*Solution, error) {
	if p.keep && p.sws != nil && p.sws.nVars == len(p.costs) && p.sws.nCons == len(p.cons) {
		return p.warmSolveSparse()
	}
	ws := p.ws
	if !p.keep || ws == nil || ws.nVars != len(p.costs) || ws.nCons != len(p.cons) {
		return p.Solve()
	}
	if ws.cost == nil {
		ws.cost = make([]float64, ws.nTotal())
	}
	phase2Cost(ws.cost, p.costs, &ws.tableau)
	maxIter, ctx := p.budget(len(ws.a), ws.nTotal())
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	t0 := now()
	_, piv, err := simplex(ws.a, ws.b, ws.b2, ws.basis, ws.cost, ws.artIdx, maxIter, ctx, ws.nz)
	if p.stats != nil {
		p.stats.WarmSolves++
		p.stats.Pivots += piv
		p.stats.Phase2 += since(t0)
	}
	if err != nil {
		return nil, err
	}
	return p.extract(&ws.tableau), nil
}

// Indirection for time so the hot path reads naturally.
var (
	now   = time.Now
	since = time.Since
)
