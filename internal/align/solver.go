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
		s.axes = append(s.axes, &axisState{
			ax: &axisSolver{g: g, as: as, axis: t, opts: opts, lay: lay, warmAll: warm,
				vals: make([]float64, n), ints: make([]int64, n)},
		})
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
	run := func(t int) {
		st := s.axes[t]
		st.ax.repl = repl
		st.ax.offs = res.Offsets
		st.ax.stats = &perAxis[t].Stats
		if err := st.solve(&perAxis[t]); err != nil {
			errs[t] = fmt.Errorf("align: axis %d: %w", t, err)
		}
	}
	if par := min(s.opts.Parallelism, n); par <= 1 {
		for t := 0; t < n; t++ {
			run(t)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, par)
		for t := 0; t < n; t++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(t int) {
				defer func() { <-sem; wg.Done() }()
				run(t)
			}(t)
		}
		wg.Wait()
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

// solve runs one round for this axis into res: the one-shot solve for
// non-warm strategies; otherwise the kept RLP, built the first time and
// re-solved after a θ cost rebuild afterwards.
func (st *axisState) solve(res *OffsetResult) error {
	ax := st.ax
	if !ax.warmAll {
		return ax.solve(res)
	}
	if st.rlp == nil {
		st.rlp = ax.newAxisLP(ax.initialPartitions(), true)
	} else {
		// Only the objective changes across rounds: a θ term counts 1
		// when its edge is live under the current labeling, 0 when the
		// edge has a replicated endpoint (§5.1).
		for _, th := range st.rlp.thetas {
			cost := 0.0
			if ax.liveEdge(th.e) {
				cost = 1
			}
			st.rlp.setCost(th.v, cost)
		}
	}
	obj, err := st.rlp.solve(ax, res)
	if err != nil {
		return err
	}
	return ax.finish(res, obj)
}
