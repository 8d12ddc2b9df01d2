package align

import (
	"repro/internal/lp"
	"repro/internal/space"
)

// This file owns the one route every offset RLP takes, cheapest engine
// first: the network-dual fast path on the whole problem when it is
// network-shaped; else the presolver (lp.Problem.Reduce), whose
// independent blocks are solved in deterministic block order — each
// as a flow when the block is network-shaped (blocks of a non-network
// RLP often are: the contraction collapses most θ terms to pure
// differences, quarantining the transformer rows that defeat
// whole-problem classification into their own blocks), by the simplex
// otherwise — and stitched back together by Reduction.Postsolve; else
// the simplex on the whole problem. Every tier is exact and
// self-certifying, so a decline at any stage falls through without
// observable effect beyond the effort counters.
//
// The one-shot and refining solves build one axisLP per RLP; the §6
// replication rounds keep one per axis and re-solve it after each
// labeling change, which alters only θ costs: the classification and
// the reduction are structural, so both run once.

// axisLP is one built offset RLP and its route.
type axisLP struct {
	prob *lp.Problem
	vars map[coefKey]lp.VarID
	// keep retains simplex bases (whole problem or per block) so a
	// re-solve after setCost runs phase 2 only.
	keep bool
	// nf is the whole problem's network form; nil once it is known not
	// to be network-shaped or the flow declined.
	nf *lp.NetForm
	// red and blocks hold the presolved decomposition; nil when the
	// simplex solves the whole problem.
	red    *lp.Reduction
	blocks []lpBlock
}

// lpBlock is one independent block of a presolved RLP.
type lpBlock struct {
	prob *lp.Problem
	nf   *lp.NetForm // cached network form; nil = simplex block
	// sol is the block's last solution, reused while the block stays
	// clean (no cost on any of its variables changed).
	sol   *lp.Solution
	dirty bool
}

// presolveFloor is the RLP size floor (variables + constraints) below
// which the offset solver skips the presolver: on tiny axis problems
// the reduction's snapshot-and-contract pass costs more than the
// handful of simplex pivots it saves, and E17 measured the fig1 RLPs
// (183) as a net ~9% regression under presolve while the mixed
// partial-network workload (256) and the rank4-dp RLPs (558) gain from
// it. 220 splits those measured sizes.
const presolveFloor = 220

// newAxisLP builds the RLP for the given subrange partitions and picks
// its route.
func (ax *axisSolver) newAxisLP(parts map[int][]space.Space, keep bool) *axisLP {
	prob, vars := ax.buildRLP(parts)
	l := &axisLP{prob: prob, vars: vars, keep: keep}
	if !ax.opts.NoNetPath {
		l.nf, _ = prob.NetworkForm()
	}
	if l.nf == nil {
		l.presolve(ax)
	}
	return l
}

// presolve splits the problem into Reduce's blocks when presolve is on
// and the problem clears presolveFloor; otherwise, or when Reduce
// declines, the simplex solves the whole problem.
func (l *axisLP) presolve(ax *axisSolver) {
	size := l.prob.NumVariables() + l.prob.NumConstraints()
	if ax.opts.Presolve != lp.PresolveOff && size >= presolveFloor {
		l.split(ax)
	}
	if l.red == nil && l.keep {
		l.prob.KeepBasis()
	}
}

// split runs Reduce and prepares its blocks. Blocks that keep a basis
// must not share an arena, so they allocate their own tableaux; the
// others solve one after another in the axis arena.
func (l *axisLP) split(ax *axisSolver) {
	red, ok := l.prob.Reduce()
	if !ok {
		return
	}
	l.red = red
	l.blocks = make([]lpBlock, len(red.Blocks))
	for i := range red.Blocks {
		b := &l.blocks[i]
		b.prob, b.dirty = red.Blocks[i].Prob, true
		if l.keep {
			b.prob.KeepBasis()
		} else {
			b.prob.SetArena(ax.arena)
		}
		if !ax.opts.NoNetPath {
			b.nf, _ = b.prob.NetworkForm()
		}
	}
}

// setCost changes one objective cost between §6 rounds. Under a
// reduction it dirties exactly the block holding the variable;
// untouched blocks keep last round's solution.
func (l *axisLP) setCost(v lp.VarID, cost float64) {
	if l.prob.Cost(v) == cost {
		return
	}
	l.prob.SetCost(v, cost)
	if l.red != nil {
		if bi, bv, ok := l.red.BlockVar(v); ok {
			l.blocks[bi].prob.SetCost(bv, cost)
			l.blocks[bi].dirty = true
		}
	}
}

// solve runs the route once into res and returns the coefficient
// values and the LP objective.
func (l *axisLP) solve(ax *axisSolver, res *OffsetResult) (map[coefKey]float64, float64, error) {
	res.LPVariables = max(res.LPVariables, l.prob.NumVariables())
	res.LPConstraints = max(res.LPConstraints, l.prob.NumConstraints())
	sol, err := l.run(ax)
	if err != nil {
		return nil, 0, err
	}
	res.Solves++
	coefs := make(map[coefKey]float64, len(l.vars))
	for k, v := range l.vars {
		coefs[k] = sol.Value(v)
	}
	return coefs, sol.Objective, nil
}

// run solves the problem down the route. A flow that declines after
// classifying hands the problem to the presolver for this and every
// later solve. A block error is final: the blocks partition the
// original constraints, so a failing block means the whole problem
// fails the same way.
func (l *axisLP) run(ax *axisSolver) (*lp.Solution, error) {
	l.prob.SetStats(ax.stats)
	if l.nf != nil {
		if sol, ok := solveNetForm(l.prob, l.nf, ax.stats); ok {
			return sol, nil
		}
		l.nf = nil
		l.presolve(ax)
	}
	if l.red == nil {
		return l.prob.WarmSolve()
	}
	sols := make([]*lp.Solution, len(l.blocks))
	for i := range l.blocks {
		b := &l.blocks[i]
		if b.dirty {
			b.prob.SetStats(ax.stats)
			if ax.stats != nil {
				ax.stats.Blocks++
			}
			var sol *lp.Solution
			if b.nf != nil {
				sol, _ = solveNetForm(b.prob, b.nf, ax.stats)
			}
			if sol == nil {
				var err error
				if sol, err = b.prob.WarmSolve(); err != nil {
					return nil, err
				}
			}
			b.sol, b.dirty = sol, false
		}
		sols[i] = b.sol
	}
	return l.red.Postsolve(sols), nil
}
