package align

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/adg"
)

// OffsetSolver solves the per-template-axis offset RLPs, fanning the
// axes over a bounded worker pool (OffsetOptions.Parallelism) and — when
// constructed with NewOffsetSolver — warm-starting repeated solves under
// changing replication labelings from the previous round's basis (§6:
// only the objective changes between rounds, so the factored basis stays
// primal feasible and each re-solve runs phase 2 only).
//
// A kept solver solves each distinct axis RLP once per round: an axis
// whose RLP equals that of a lower-index leader mirrors it, copying
// the leader's solution and running only its own rounding and descent
// (see solveKept).
//
// Every axis owns a private axisSolver, lp.Arena, lp.Stats, and tally,
// and writes only its own entry of each port's offsets in the one
// result; Solve sums the per-axis tallies in axis order, which makes
// the outcome byte-identical for every Parallelism setting.
type OffsetSolver struct {
	g    *adg.Graph
	as   *AxisStrideResult
	opts OffsetOptions
	axes []*axisState
}

// axisState is the retained per-axis solver state across rounds.
type axisState struct {
	ax *axisSolver
	// rlp is the axis RLP kept across §6 rounds under ax.warmAll: its
	// constraint matrix is round-invariant, so each round only rewrites
	// θ costs and re-solves.
	rlp *axisLP
	// lead is the index of the axis whose solve this one mirrors; its
	// own index for an axis that solves for itself.
	lead int
	// hist holds the θ costs of every round a follower mirrored its
	// leader, oldest first: a follower whose costs part from its
	// leader's replays them (replay) to reach its solo state.
	hist [][]float64
	// obj is the LP objective of this round's solve.
	obj float64
}

// NewOffsetSolver returns a reusable solver for the graph. Repeated
// Solve calls with different replication labelings reuse each axis's
// tableau arena and (for the fixed-partition strategies) the previous
// basis. The one-shot Offsets function is equivalent to a single Solve.
func NewOffsetSolver(g *adg.Graph, as *AxisStrideResult, opts OffsetOptions) *OffsetSolver {
	return newOffsetSolver(g, as, opts, true)
}

func newOffsetSolver(g *adg.Graph, as *AxisStrideResult, opts OffsetOptions, reuse bool) *OffsetSolver {
	opts = opts.withDefaults()
	// Warm starts require the constraint matrix to be round-invariant,
	// which holds only for strategies with fixed partitions and a single
	// LP round; the refining strategies re-partition, so they stay cold.
	warm := reuse &&
		(opts.Strategy == StrategyFixed || opts.Strategy == StrategyUnroll || opts.Strategy == StrategySingle)
	s := &OffsetSolver{g: g, as: as, opts: opts}
	lay := newCoefLayout(g)
	n := lay.slots(len(g.Ports))
	for t := 0; t < g.TemplateRank; t++ {
		ax := &axisSolver{g: g, as: as, axis: t, opts: opts, lay: lay, warmAll: warm,
			vals: make([]float64, n), ints: make([]int64, n)}
		ax.table = ax.compileTable()
		s.axes = append(s.axes, &axisState{ax: ax, lead: t})
	}
	return s
}

// Solve computes the mobile offsets for every axis under repl (nil means
// no replication). It is not safe to call concurrently on one solver.
func (s *OffsetSolver) Solve(repl *ReplResult) (*OffsetResult, error) {
	if repl == nil {
		repl = NoReplication(s.g)
	}
	res := newOffsetResult(s.g)
	n := len(s.axes)
	// perAxis holds each axis's counts; their Offsets stay nil.
	perAxis := make([]OffsetResult, n)
	errs := make([]error, n)
	for t, st := range s.axes {
		st.ax.repl = repl
		st.ax.offs = res.Offsets
		st.ax.stats = &perAxis[t].Stats
	}
	fail := func(t int, err error) {
		if err != nil {
			errs[t] = fmt.Errorf("align: axis %d: %w", t, err)
		}
	}
	if n > 0 && s.axes[0].ax.warmAll {
		s.solveKept(perAxis, fail)
	} else {
		s.fanOut(n, func(t int) { fail(t, s.axes[t].ax.solve(&perAxis[t])) })
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Deterministic merge in axis order.
	for t := range perAxis {
		r := &perAxis[t]
		res.Approx += r.Approx
		res.Solves += r.Solves
		res.Shared += r.Shared
		if r.LPVariables > res.LPVariables {
			res.LPVariables = r.LPVariables
		}
		if r.LPConstraints > res.LPConstraints {
			res.LPConstraints = r.LPConstraints
		}
		res.Stats.Add(r.Stats)
	}
	if math.Abs(res.Approx) < 1e-6 {
		// The optimum is integral at problem scale, so a sub-tolerance
		// sum is numeric dust — and its sign is an engine accident
		// (−1e-24 from the postsolve path prints as "-0"). Collapse it
		// so reports agree across engines.
		res.Approx = 0
	}
	res.Exact = ExactOffsetCost(s.g, repl, res.Offsets)
	return res, nil
}

// solveKept runs one round of a kept solver in four steps, so each
// distinct axis RLP is solved once:
//
//  1. every axis builds its RLP (first round) or re-costs it, in
//     parallel;
//  2. group: in the first round an axis whose RLP equals that of a
//     lower-index leader (axisLP.equal) follows the lowest such
//     leader. The matrix never changes, so in later rounds a follower
//     stays one exactly while its θ costs equal its leader's; once they
//     differ it leaves for good and solves alone from then on;
//  3. the leaders route and solve, in parallel;
//  4. every follower copies its leader's solution, and every axis
//     rounds, stores and runs the descent on its own, in parallel.
//
// A leader is always the lowest index of its group, so the grouping is
// the same at every Parallelism. A leader's error is the first error
// of its group in axis order, and its text is the one the follower
// would have reported alone. Only the leaders' solves reach lp.Stats;
// a follower's answer still counts one Solve, and one Shared. With one
// axis every step runs inline and the grouping is empty.
func (s *OffsetSolver) solveKept(perAxis []OffsetResult, fail func(int, error)) {
	n := len(s.axes)
	first := s.axes[0].rlp == nil
	s.fanOut(n, func(t int) { s.axes[t].cost() })
	var leads []int
	for t, st := range s.axes {
		s.group(t, first)
		if st.lead == t {
			leads = append(leads, t)
		}
	}
	solved := make([]bool, n)
	s.fanOut(len(leads), func(i int) {
		t := leads[i]
		err := s.axes[t].solve(&perAxis[t])
		solved[t] = err == nil
		fail(t, err)
	})
	s.fanOut(n, func(t int) {
		st := s.axes[t]
		if !solved[st.lead] {
			return
		}
		if st.lead != t {
			st.mirror(s.axes[st.lead], &perAxis[t])
		}
		fail(t, st.ax.finish(&perAxis[t], st.obj))
	})
}

// group assigns axis t its leader for this round (solveKept step 2);
// first marks the round that built the RLPs. Lower axes are already
// grouped.
func (s *OffsetSolver) group(t int, first bool) {
	st := s.axes[t]
	switch {
	case first:
		for l := 0; l < t; l++ {
			if s.axes[l].lead == l && st.rlp.equal(s.axes[l].rlp) {
				st.lead = l
				break
			}
		}
	case st.lead != t && !st.rlp.sameCosts(s.axes[st.lead].rlp):
		st.lead = t // leaves for good; axisState.solve replays st.hist
		return
	}
	if st.lead != t {
		st.hist = append(st.hist, st.rlp.thetaCosts())
	}
}

// fanOut runs f(0..n-1) on a worker pool bounded by Parallelism and
// returns once all calls have.
func (s *OffsetSolver) fanOut(n int, f func(int)) {
	par := min(s.opts.Parallelism, n)
	if par <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			f(i)
		}(i)
	}
	wg.Wait()
}

// releaseScratch returns the per-axis and per-block tableau arenas to
// the scratch pool. Call only once the solver is finished: warm bases
// and live tableaux read arena storage, so releasing between rounds
// would hand their memory to another solve.
func (s *OffsetSolver) releaseScratch() {
	for _, st := range s.axes {
		if st.ax.arena != nil {
			s.opts.scratch.putArena(st.ax.arena)
			st.ax.arena = nil
		}
		for _, ar := range st.ax.blockArenas {
			s.opts.scratch.putArena(ar)
		}
		st.ax.blockArenas = nil
		st.rlp = nil
	}
}

// cost builds the kept RLP in the first round. Later rounds only
// rewrite its objective: a θ term counts 1 when its edge is live under
// the current labeling, 0 when the edge has a replicated endpoint
// (§5.1).
func (st *axisState) cost() {
	ax := st.ax
	if st.rlp == nil {
		st.rlp = ax.newAxisLP(ax.initialPartitions(), true)
		return
	}
	for _, th := range st.rlp.thetas {
		cost := 0.0
		if ax.liveEdge(th.e) {
			cost = 1
		}
		st.rlp.setCost(th.v, cost)
	}
}

// solve solves the kept RLP into ax.vals and st.obj, first replaying
// the history of a follower that has just left its group.
func (st *axisState) solve(res *OffsetResult) error {
	if st.hist != nil {
		if err := st.replay(); err != nil {
			return err
		}
	}
	obj, err := st.rlp.solve(st.ax, res)
	st.obj = obj
	return err
}

// replay brings a former follower's RLP to the state it would have
// reached solving alone: routed and solved cold under its first
// round's costs, then re-solved warm under each later round's, before
// this round's costs are restored. The replayed solves count in
// lp.Stats, not in Solves.
func (st *axisState) replay() error {
	l, ax := st.rlp, st.ax
	cur := l.thetaCosts()
	for _, c := range st.hist {
		l.setThetaCosts(c)
		if _, err := l.run(ax); err != nil {
			return err
		}
	}
	l.setThetaCosts(cur)
	st.hist = nil
	return nil
}

// mirror gives a follower its leader's solution for this round.
func (st *axisState) mirror(lead *axisState, res *OffsetResult) {
	copy(st.ax.vals, lead.ax.vals)
	st.obj = lead.obj
	st.rlp.tally(res)
	res.Shared++
}
