package align

import (
	"math"
	"slices"

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
// the reduction are structural, so both run once, and a block none of
// whose costs changed keeps last round's solution.

// axisLP is one built offset RLP and its route.
type axisLP struct {
	prob *lp.Problem
	// cols maps each coefficient slot (coefLayout) to its column; -1
	// for a coefficient no row references.
	cols []lp.VarID
	// thetas lists the θ columns of a kept RLP with their edges.
	thetas []edgeTheta
	// keep retains simplex bases (whole problem or per block) so a
	// re-solve after setCost runs phase 2 only.
	keep bool
	// routed is set once the first solve has picked the route below.
	routed bool
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
// which a one-shot solve skips Reduce. A one-shot problem still runs
// the simplex's own equality presolve (lp.Problem.Solve), and on tiny
// axis problems Reduce's snapshot-and-contract pass costs more than the
// pivots it saves on top of that: E17 measured the fig1 RLPs (183) as
// a net ~9% regression under Reduce while the mixed partial-network
// workload (256) and the rank4-dp RLPs (558) gain from it. 220 splits
// those measured sizes. A kept RLP ignores the floor: keeping a basis
// bypasses the equality presolve, so without Reduce its cold solve and
// every §6 round would pivot through the full problem.
const presolveFloor = 220

// newAxisLP builds the RLP for the given subrange partitions. Its
// route is picked by its first solve.
func (ax *axisSolver) newAxisLP(parts map[int][]space.Space, keep bool) *axisLP {
	prob, cols, thetas := ax.buildRLP(parts)
	return &axisLP{prob: prob, cols: cols, thetas: thetas, keep: keep}
}

// route classifies the built problem for the flow and, failing that,
// presolves it. Both read the current costs, so a kept RLP is routed
// under the costs of its first solve.
func (l *axisLP) route(ax *axisSolver) {
	l.routed = true
	if !ax.opts.NoNetPath {
		l.nf, _ = l.prob.NetworkForm()
	}
	if l.nf == nil {
		l.presolve(ax)
	}
}

// equal reports whether l and o are the same RLP exactly: the same
// problem (lp.Problem.Equal), slot → column map and θ columns. Equal
// RLPs take the same deterministic route and solve.
func (l *axisLP) equal(o *axisLP) bool {
	return slices.Equal(l.cols, o.cols) && slices.Equal(l.thetas, o.thetas) && l.prob.Equal(o.prob)
}

// sameCosts reports whether the θ costs of l and o agree bit for bit;
// o must be equal to l up to those costs.
func (l *axisLP) sameCosts(o *axisLP) bool {
	for _, th := range l.thetas {
		if math.Float64bits(l.prob.Cost(th.v)) != math.Float64bits(o.prob.Cost(th.v)) {
			return false
		}
	}
	return true
}

// thetaCosts returns the current cost of every θ column, in θ order.
func (l *axisLP) thetaCosts() []float64 {
	c := make([]float64, len(l.thetas))
	for i, th := range l.thetas {
		c[i] = l.prob.Cost(th.v)
	}
	return c
}

// setThetaCosts sets the θ costs from a thetaCosts vector.
func (l *axisLP) setThetaCosts(c []float64) {
	for i, th := range l.thetas {
		l.setCost(th.v, c[i])
	}
}

// presolve splits the problem into Reduce's blocks when presolve is on
// and the problem is kept or clears presolveFloor; otherwise, or when
// Reduce declines, the simplex solves the whole problem.
func (l *axisLP) presolve(ax *axisSolver) {
	size := l.prob.NumVariables() + l.prob.NumConstraints()
	if ax.opts.Presolve != lp.PresolveOff && (l.keep || size >= presolveFloor) {
		l.split(ax)
	}
	if l.red == nil && l.keep {
		l.prob.KeepBasis()
	}
}

// split runs Reduce and prepares its blocks; it settles the route, so
// run never classifies the whole problem after it. Blocks that keep a
// basis must not share an arena, so each simplex block takes its own
// from the scratch pool (returned with the axis arena); the others
// solve one after another in the axis arena.
func (l *axisLP) split(ax *axisSolver) {
	l.routed = true
	red, ok := l.prob.Reduce()
	if !ok {
		return
	}
	l.red = red
	l.blocks = make([]lpBlock, len(red.Blocks))
	for i := range red.Blocks {
		b := &l.blocks[i]
		b.prob, b.dirty = red.Blocks[i].Prob, true
		if !ax.opts.NoNetPath {
			b.nf, _ = b.prob.NetworkForm()
		}
		if !l.keep {
			b.prob.SetArena(ax.arena)
			continue
		}
		b.prob.KeepBasis()
		if b.nf == nil {
			ar := ax.opts.scratch.getArena()
			ax.blockArenas = append(ax.blockArenas, ar)
			b.prob.SetArena(ar)
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

// solve runs the route once, counting it into res, writes the
// coefficient values into ax.vals and returns the LP objective.
func (l *axisLP) solve(ax *axisSolver, res *OffsetResult) (float64, error) {
	sol, err := l.run(ax)
	if err != nil {
		return 0, err
	}
	l.tally(res)
	for s, v := range l.cols {
		ax.vals[s] = 0
		if v >= 0 {
			ax.vals[s] = sol.Value(v)
		}
	}
	return sol.Objective, nil
}

// tally counts one answer of this RLP into res: its size and one Solve.
func (l *axisLP) tally(res *OffsetResult) {
	res.LPVariables = max(res.LPVariables, l.prob.NumVariables())
	res.LPConstraints = max(res.LPConstraints, l.prob.NumConstraints())
	res.Solves++
}

// run solves the problem down the route. A flow that declines after
// classifying hands the problem to the presolver for this and every
// later solve. A block error is final: the blocks partition the
// original constraints, so a failing block means the whole problem
// fails the same way.
func (l *axisLP) run(ax *axisSolver) (*lp.Solution, error) {
	l.prob.SetStats(ax.stats)
	if !l.routed {
		l.route(ax)
	}
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
