package align

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/adg"
	"repro/internal/expr"
	"repro/internal/lp"
	"repro/internal/space"
)

// Strategy selects among the §4.2 algorithms for mobile offset alignment.
type Strategy int

// The five algorithms of §4.2.
const (
	// StrategyFixed partitions every iteration range into m subranges and
	// solves one RLP; the paper's recommended compromise (m=3 → within
	// 22% of optimal, m=5 → 8%).
	StrategyFixed Strategy = iota
	// StrategyUnroll makes every iteration its own subrange — exact but
	// impractical unless the iteration count is small.
	StrategyUnroll
	// StrategySingle approximates the whole range as one subrange and
	// then improves the exact cost by steepest descent (state-space
	// search).
	StrategySingle
	// StrategyZeroTrack starts with two equal subranges and iteratively
	// moves the boundary to the span's zero crossing.
	StrategyZeroTrack
	// StrategyRecursive starts with one subrange and recursively splits
	// subranges containing a zero crossing.
	StrategyRecursive
)

func (s Strategy) String() string {
	switch s {
	case StrategyFixed:
		return "fixed-partition"
	case StrategyUnroll:
		return "unrolling"
	case StrategySingle:
		return "state-space-search"
	case StrategyZeroTrack:
		return "zero-crossing-tracking"
	case StrategyRecursive:
		return "recursive-refinement"
	}
	return "?"
}

// ParseStrategy maps a strategy's command-line and request name —
// fixed, unroll, search, zerotrack or recursive — to the Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "fixed":
		return StrategyFixed, nil
	case "unroll":
		return StrategyUnroll, nil
	case "search":
		return StrategySingle, nil
	case "zerotrack":
		return StrategyZeroTrack, nil
	case "recursive":
		return StrategyRecursive, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

// OffsetOptions configures the mobile offset solver.
type OffsetOptions struct {
	Strategy Strategy
	// M is the number of subranges per loop level for StrategyFixed
	// (default 3).
	M int
	// MaxRefine bounds the re-solve iterations of the zero-crossing and
	// recursive strategies (default 6).
	MaxRefine int
	// UnrollCap bounds the number of subranges per edge for
	// StrategyUnroll (default 4096).
	UnrollCap int
	// Static forbids mobile offsets: every loop-variable coefficient is
	// pinned to zero, so offsets are plain integers. Used to reproduce
	// the paper's static-vs-mobile comparisons.
	Static bool
	// Parallelism bounds the worker pool solving per-template-axis RLPs
	// concurrently (the axes are independent problems, §4). Values ≤ 0
	// mean GOMAXPROCS. The result is identical for every setting: each
	// axis solves into its own result and the merge is in axis order.
	Parallelism int
	// MaxIter caps the simplex iterations of each LP solve
	// (lp.Options.MaxIter); values <= 0 derive the budget from the
	// problem size. Exhaustion fails the solve with lp.ErrBudget.
	MaxIter int64
	// Engine forces a simplex core for every offset LP
	// (lp.EngineDense / lp.EngineSparse). The default, lp.EngineAuto,
	// picks the sparse revised simplex for large low-density instances
	// and the dense tableau otherwise. Differential tests and benchmark
	// baselines force a core; production callers leave it auto.
	Engine lp.Engine
	// NoNetPath disables the network-dual fast path: axes whose RLP is
	// network-shaped (every θ term couples at most two offsets, no
	// per-LIV unknowns) are normally solved as a min-cost circulation
	// without running any simplex. The toggle exists for differential
	// testing and baseline measurement; the fast path falls back to the
	// simplex transparently whenever its preconditions fail.
	NoNetPath bool
	// Presolve gates the RLP presolver (lp.Problem.Reduce) on every
	// route that is not a whole-problem flow: pins and
	// difference-equality chains are contracted out and the residue
	// split into independent blocks solved per block (network fast path
	// per block where it applies, simplex otherwise). One-shot RLPs
	// below presolveFloor skip it; RLPs a NewOffsetSolver keeps across
	// §6 rounds run it at every size. The default, lp.PresolveAuto, is
	// on; lp.PresolveOff solves every RLP exactly as built
	// (differential testing, baseline measurement).
	Presolve lp.PresolveMode

	// scratch, when non-nil, recycles tableau arenas across solves.
	// Threaded in by the pipeline from Options.scratch.
	scratch *scratchPool

	// ctx, when non-nil, cancels the solve between refinement rounds and
	// (amortized) inside simplex iterations. Threaded in by the pipeline
	// from Options.ctx.
	ctx context.Context
}

func (o OffsetOptions) withDefaults() OffsetOptions {
	if o.M <= 0 {
		o.M = 3
	}
	if o.MaxRefine <= 0 {
		o.MaxRefine = 6
	}
	if o.UnrollCap <= 0 {
		o.UnrollCap = 4096
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// OffsetResult is the outcome of (mobile) offset alignment.
type OffsetResult struct {
	// Offsets maps port ID → per-template-axis mobile offset.
	Offsets map[int][]expr.Affine
	// Approx is the summed LP objective: the subrange approximation of
	// the grid-metric realignment cost.
	Approx float64
	// Exact is the exact grid-metric realignment cost of the rounded
	// solution (excluding replicated edges).
	Exact int64
	// LPVariables and LPConstraints count the largest single LP solved.
	LPVariables, LPConstraints int
	// Solves counts LP solves across all axes and refinement rounds:
	// one per axis answer, whether solved or shared.
	Solves int
	// Shared counts the axis answers of a kept solver copied from a
	// lower axis with the same RLP instead of solved (OffsetSolver).
	Shared int
	// Stats is the accumulated LP solver effort: cold solves,
	// warm-started solves (basis reuse across §6 replication rounds),
	// pivots, and wall time per simplex phase.
	Stats lp.Stats
}

// coefLayout numbers the unknown coefficients of a graph's offset
// RLPs. Port p's offset on one axis is a_p + Σ_l a_p,l·livs[l]: its
// constant term a_p sits at slot p·stride and its coefficient of the
// graph's l-th loop variable at slot p·stride+1+l. The layout is the
// same on every axis, so one serves a whole OffsetSolver.
type coefLayout struct {
	livs   []string // every loop variable of the graph, first-seen order
	stride int      // 1 + len(livs)
	// portLivs[p] holds the livs indices of port p's own loop
	// variables, in the order of p.Space.LIVs.
	portLivs [][]int
}

func newCoefLayout(g *adg.Graph) *coefLayout {
	lay := &coefLayout{}
	add := func(name string) {
		if lay.index(name) < 0 {
			lay.livs = append(lay.livs, name)
		}
	}
	n := 0
	for _, p := range g.Ports {
		for _, v := range p.Space.LIVs {
			add(v)
		}
		n += len(p.Space.LIVs)
	}
	lay.stride = 1 + len(lay.livs)
	flat := make([]int, 0, n)
	lay.portLivs = make([][]int, len(g.Ports))
	for _, p := range g.Ports {
		start := len(flat)
		for _, v := range p.Space.LIVs {
			flat = append(flat, lay.index(v))
		}
		lay.portLivs[p.ID] = flat[start:len(flat):len(flat)]
	}
	return lay
}

// index returns the position of loop variable name in livs, or -1.
func (lay *coefLayout) index(name string) int {
	for i, v := range lay.livs {
		if v == name {
			return i
		}
	}
	return -1
}

// liv returns the index of a loop variable the graph names.
func (lay *coefLayout) liv(name string) int {
	li := lay.index(name)
	if li < 0 {
		panic(fmt.Sprintf("align: loop variable %q is not in the graph", name))
	}
	return li
}

// slot returns the slot of port's coefficient of livs[li]; li = -1
// selects the constant term.
func (lay *coefLayout) slot(port, li int) int { return port*lay.stride + 1 + li }

// slots returns the number of slots of a graph with n ports.
func (lay *coefLayout) slots(n int) int { return n * lay.stride }

// hasLiv reports whether port's own loop variables include livs[li].
func (lay *coefLayout) hasLiv(port, li int) bool {
	for _, l := range lay.portLivs[port] {
		if l == li {
			return true
		}
	}
	return false
}

// nodeCoefs returns -1 (the constant term), then the loop variables of
// n's ports in first-seen order, in buf's storage.
func (lay *coefLayout) nodeCoefs(n *adg.Node, buf []int) []int {
	buf = append(buf[:0], -1)
	for _, ports := range [2][]*adg.Port{n.In, n.Out} {
		for _, p := range ports {
			for _, li := range lay.portLivs[p.ID] {
				if !slices.Contains(buf, li) {
					buf = append(buf, li)
				}
			}
		}
	}
	return buf
}

// Offsets solves mobile offset alignment (§4) for every template axis
// under the given axis/stride labels and replication labeling. The axes
// are independent problems and solve concurrently under
// OffsetOptions.Parallelism; callers that re-solve under changing
// replication labelings (the §6 iteration) should hold a NewOffsetSolver
// instead, which warm-starts each round from the previous basis.
func Offsets(g *adg.Graph, as *AxisStrideResult, repl *ReplResult, opts OffsetOptions) (*OffsetResult, error) {
	s := newOffsetSolver(g, as, opts, false)
	defer s.releaseScratch()
	return s.Solve(repl)
}

// newOffsetResult returns a result whose every port offset is 0 on
// every axis; the per-port slices are carved from one array.
func newOffsetResult(g *adg.Graph) *OffsetResult {
	res := &OffsetResult{Offsets: make(map[int][]expr.Affine, len(g.Ports))}
	tr := g.TemplateRank
	offs := make([]expr.Affine, tr*len(g.Ports))
	for i, p := range g.Ports {
		res.Offsets[p.ID] = offs[i*tr : (i+1)*tr : (i+1)*tr]
	}
	return res
}

type axisSolver struct {
	g    *adg.Graph
	as   *AxisStrideResult
	repl *ReplResult
	axis int
	opts OffsetOptions
	lay  *coefLayout
	// table holds the axis's node constraints, compiled once.
	table *nodeTable

	arena *lp.Arena // tableau storage reused across this axis's solves
	stats *lp.Stats // per-axis effort accounting (merged post-join)
	// blockArenas hold the tableaux of kept simplex blocks, one each.
	blockArenas []*lp.Arena
	// offs is the result being solved: the axis writes only its own
	// entry of each port's offsets.
	offs map[int][]expr.Affine
	// vals and ints hold the last solve's coefficients per layout
	// slot, as solved and as rounded.
	vals []float64
	ints []int64
	// warmAll builds the RLP over all edges — dead (replicated) edges
	// keep their θ terms at objective cost 0 — so the constraint matrix
	// is invariant across §6 replication rounds and the basis can be
	// reused.
	warmAll bool
	// memoJobs, when non-nil, memoizes the per-(edge, subrange) moment
	// sums across refinement rounds: a refining strategy re-partitions
	// only the edges whose span crosses zero, so every unchanged
	// subrange reuses last round's moments instead of re-summing them.
	memoJobs map[int][]termJob
}

// ctxErr returns the solve's cancellation error, or nil.
func (ax *axisSolver) ctxErr() error {
	if ax.opts.ctx == nil {
		return nil
	}
	return ax.opts.ctx.Err()
}

// liveEdge reports whether the edge contributes offset cost on this axis:
// edges with a replicated endpoint are discarded (§5.1 — a replicated
// tail needs no communication; a replicated head costs the same
// regardless of the tail's offset).
func (ax *axisSolver) liveEdge(e *adg.Edge) bool {
	return !ax.repl.Replicated(e.Src, ax.axis) && !ax.repl.Replicated(e.Dst, ax.axis)
}

func (ax *axisSolver) solve(res *OffsetResult) error {
	parts := ax.initialPartitions()
	var obj float64
	refining := ax.opts.Strategy == StrategyZeroTrack || ax.opts.Strategy == StrategyRecursive
	rounds := 1
	if refining {
		rounds = ax.opts.MaxRefine
		ax.memoJobs = map[int][]termJob{}
	}
	for round := 0; round < rounds; round++ {
		if err := ax.ctxErr(); err != nil {
			return err
		}
		var err error
		obj, err = ax.newAxisLP(parts, false).solve(ax, res)
		if err != nil {
			return err
		}
		if !refining {
			break
		}
		newParts, changed := ax.refinePartitions(parts)
		if !changed {
			break
		}
		parts = newParts
	}
	return ax.finish(res, obj)
}

// finish rounds the solved coefficients to integers, stores them, and
// runs the state-space search's descent. A cancellation that arrived
// mid-descent left a feasible but partially optimized labeling; it is
// reported as an error so a canceled solve never delivers a result
// that differs from an uncanceled one.
func (ax *axisSolver) finish(res *OffsetResult, obj float64) error {
	for s, v := range ax.vals {
		ax.ints[s] = int64(math.Round(v))
	}
	ax.store()
	res.Approx += obj
	if ax.opts.Strategy == StrategySingle {
		ax.steepestDescent()
	}
	return ax.ctxErr()
}

// initialPartitions builds the per-edge subrange decomposition of the
// iteration space per the strategy.
func (ax *axisSolver) initialPartitions() map[int][]space.Space {
	parts := map[int][]space.Space{}
	for _, e := range ax.g.Edges {
		if !ax.warmAll && !ax.liveEdge(e) {
			continue
		}
		sp := e.Space()
		conc, ok := sp.Concrete()
		if !ok || conc.Rank() == 0 {
			continue // single symbolic subrange handled separately
		}
		var m int
		switch ax.opts.Strategy {
		case StrategyFixed:
			m = ax.opts.M
		case StrategyUnroll:
			m = ax.opts.UnrollCap
		case StrategySingle, StrategyRecursive:
			m = 1
		case StrategyZeroTrack:
			m = 2
		}
		subs := conc.SubSpaces(m)
		if ax.opts.Strategy == StrategyUnroll && int64(len(subs)) > int64(ax.opts.UnrollCap) {
			subs = conc.SubSpaces(ax.opts.M)
		}
		parts[e.ID] = subs
	}
	return parts
}

// edgeTheta is one θ column of an RLP and the edge it measures.
type edgeTheta struct {
	e *adg.Edge
	v lp.VarID
}

// rlpBuilder emits one axis RLP. Rows are collected as term lists and
// handed to lp.Problem.AddRow; a coefficient's column is created the
// first time a row references it, so the column order — and with it
// every pivot choice — follows the emission order.
type rlpBuilder struct {
	ax   *axisSolver
	prob *lp.Problem
	cols []lp.VarID // slot → column; -1 until referenced
	// thetas records every θ column when the RLP is kept across §6
	// rounds, for the per-round cost rebuild.
	thetas []edgeTheta
	row    []lp.Term
}

// col returns the column of a coefficient slot, creating it if needed.
func (b *rlpBuilder) col(slot int) lp.VarID {
	if v := b.cols[slot]; v >= 0 {
		return v
	}
	v := b.prob.AddVariable(0, true)
	b.cols[slot] = v
	return v
}

// term appends a·(port's coefficient of livs[li]) to the pending row.
func (b *rlpBuilder) term(port, li int, a float64) {
	b.row = append(b.row, lp.Term{V: b.col(b.ax.lay.slot(port, li)), A: a})
}

// emit adds the pending row to the problem.
func (b *rlpBuilder) emit(op lp.Op, rhs float64) {
	b.prob.AddRow(b.row, op, rhs)
	b.row = b.row[:0]
}

// newTheta adds one θ variable for edge e, at cost 0 when the edge is
// currently dead under warmAll (the cost is rebuilt every round).
func (b *rlpBuilder) newTheta(e *adg.Edge) lp.VarID {
	ax := b.ax
	cost := 1.0
	if ax.warmAll && !ax.liveEdge(e) {
		cost = 0
	}
	th := b.prob.AddVariable(cost, false)
	if ax.warmAll {
		b.thetas = append(b.thetas, edgeTheta{e: e, v: th})
	}
	return th
}

// buildRLP constructs the RLP instance for the current axis and returns
// it with its slot → column map and its θ columns.
func (ax *axisSolver) buildRLP(parts map[int][]space.Space) (*lp.Problem, []lp.VarID, []edgeTheta) {
	prob := lp.NewProblem()
	if ax.arena == nil {
		ax.arena = ax.opts.scratch.getArena()
	}
	prob.SetArena(ax.arena)
	prob.SetStats(ax.stats)
	prob.SetOptions(lp.Options{MaxIter: ax.opts.MaxIter, Ctx: ax.opts.ctx, Engine: ax.opts.Engine})
	lay := ax.lay
	b := &rlpBuilder{ax: ax, prob: prob, cols: make([]lp.VarID, lay.slots(len(ax.g.Ports)))}
	for s := range b.cols {
		b.cols[s] = -1
	}
	// Ensure every port has its variables (even unconstrained ones).
	for _, p := range ax.g.Ports {
		b.col(lay.slot(p.ID, -1))
		for _, li := range lay.portLivs[p.ID] {
			b.col(lay.slot(p.ID, li))
		}
	}
	// Static mode: pin LIV coefficients to zero so every chosen alignment
	// is constant. Ports whose mobility is forced by a node constraint —
	// the section side of Section/SectionAssign/Gather nodes, whose
	// position is the whole array's plus a subscript-dependent delta —
	// must stay free or the system is infeasible; their positions are
	// consequences, not choices.
	if ax.opts.Static {
		forced := make([]bool, len(ax.g.Ports))
		for _, n := range ax.g.Nodes {
			switch n.Kind {
			case adg.KindSection, adg.KindGather:
				forced[n.Out[0].ID] = true
			case adg.KindSectionAssign:
				forced[n.In[1].ID] = true
			}
		}
		for _, p := range ax.g.Ports {
			if forced[p.ID] {
				continue
			}
			for _, li := range lay.portLivs[p.ID] {
				b.term(p.ID, li, 1)
				b.emit(lp.EQ, 0)
			}
		}
	}

	// Node constraints, from the axis's compiled table.
	tab := ax.table
	for _, r := range tab.rows {
		for _, tm := range tab.terms[r.start:r.end] {
			b.row = append(b.row, lp.Term{V: b.col(int(tm.slot)), A: float64(tm.c)})
		}
		b.emit(lp.EQ, float64(r.rhs))
	}
	// Anchor the constant coefficient of the lowest port in each
	// connected component to remove translation freedom.
	for _, pid := range ax.anchors() {
		b.term(pid, -1, 1)
		b.emit(lp.EQ, 0)
	}

	// Edge objective: θ per (edge, subrange). The per-subrange moment
	// sums are independent pure computations — the hot part of RLP
	// construction — so they precompute on a worker pool; emission stays
	// in edge order, so the problem is identical for any parallelism.
	var jobs []termJob
	for _, e := range ax.g.Edges {
		if !ax.warmAll && !ax.liveEdge(e) {
			continue
		}
		subs, ok := parts[e.ID]
		if !ok {
			continue
		}
		w := e.Weight()
		livs := e.Space().LIVs
		for _, sub := range subs {
			jobs = append(jobs, termJob{edge: e.ID, w: w, livs: livs, sub: sub})
		}
	}
	ax.recallMoments(jobs)
	computeMoments(jobs, ax.opts.Parallelism)
	ax.retainMoments(jobs)
	cursor := 0
	for _, e := range ax.g.Edges {
		if !ax.warmAll && !ax.liveEdge(e) {
			continue
		}
		subs, ok := parts[e.ID]
		if !ok {
			// Symbolic or scalar space: single subrange via TotalOf.
			b.addEdgeTermSymbolic(e)
			continue
		}
		for range subs {
			j := &jobs[cursor]
			cursor++
			b.addEdgeTerm(e, j.m0, j.mv)
		}
	}

	return prob, b.cols, b.thetas
}

// termJob is one (edge, subrange) moment computation. done marks a job
// whose moments were recalled from a previous refinement round.
type termJob struct {
	edge int
	w    expr.Poly
	livs []string
	sub  space.Space
	m0   int64
	mv   []int64 // first moments, indexed like livs
	done bool
}

// recallMoments fills jobs whose (edge, subrange) pair already had its
// moments computed in a previous refinement round. Moments depend only
// on the edge's weight polynomial and the subrange, both of which a
// refinement leaves untouched for every subrange it does not split, so
// reuse is exact.
func (ax *axisSolver) recallMoments(jobs []termJob) {
	if ax.memoJobs == nil {
		return
	}
	for i := range jobs {
		j := &jobs[i]
		for _, prev := range ax.memoJobs[j.edge] {
			if prev.sub.Equal(j.sub) {
				j.m0, j.mv, j.done = prev.m0, prev.mv, true
				break
			}
		}
	}
}

// retainMoments records this round's computed jobs for the next round.
func (ax *axisSolver) retainMoments(jobs []termJob) {
	if ax.memoJobs == nil {
		return
	}
	memo := make(map[int][]termJob, len(ax.memoJobs))
	for _, j := range jobs {
		memo[j.edge] = append(memo[j.edge], j)
	}
	ax.memoJobs = memo
}

// computeMoments fills in the moment sums of every not-yet-done job,
// fanning out over min(par, pending) workers when it pays.
func computeMoments(jobs []termJob, par int) {
	pending := 0
	for i := range jobs {
		if !jobs[i].done {
			pending++
		}
	}
	if par > pending {
		par = pending
	}
	if par <= 1 || pending < 8 {
		for i := range jobs {
			if jobs[i].done {
				continue
			}
			jobs[i].m0, jobs[i].mv = moments(jobs[i].w, jobs[i].livs, jobs[i].sub)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if jobs[i].done {
					continue
				}
				jobs[i].m0, jobs[i].mv = moments(jobs[i].w, jobs[i].livs, jobs[i].sub)
			}
		}()
	}
	wg.Wait()
}

// addEdgeTerm emits θ ≥ ±Σ_{i∈sub} w(i)·span(i) for one subrange, from
// its moments. An edge's space carries its source port's loop
// variables (Edge.Space only pins a level), so mv is indexed like the
// source port's layout LIVs.
func (b *rlpBuilder) addEdgeTerm(e *adg.Edge, m0 int64, mv []int64) {
	if m0 == 0 && allZero(mv) {
		return
	}
	theta := b.newTheta(e)
	livs := b.ax.lay.portLivs[e.Src.ID]
	c := e.Control
	// Row θ − L ≥ 0, then θ + L ≥ 0. A zero coefficient adds no term
	// (and creates no column).
	for _, sign := range [2]float64{-1, 1} {
		b.row = append(b.row, lp.Term{V: theta, A: 1})
		if x := c * float64(m0); x != 0 {
			b.term(e.Src.ID, -1, sign*x)
			b.term(e.Dst.ID, -1, -sign*x)
		}
		for k, li := range livs {
			if x := c * float64(mv[k]); x != 0 {
				b.term(e.Src.ID, li, sign*x)
				b.term(e.Dst.ID, li, -sign*x)
			}
		}
		b.emit(lp.GE, 0)
	}
}

// addEdgeTermSymbolic emits the single-subrange term for edges whose
// iteration space has symbolic (affine) bounds or rank 0.
func (b *rlpBuilder) addEdgeTermSymbolic(e *adg.Edge) {
	sp := e.Space()
	w := e.Weight()
	m0 := sp.TotalOf(w)
	mv := make([]int64, len(sp.LIVs))
	for k, liv := range sp.LIVs {
		mv[k] = sp.TotalOf(w.Mul(expr.PolyVar(liv)))
	}
	b.addEdgeTerm(e, m0, mv)
}

// moments returns M0 = Σ_{i∈sub} w(i) and Mv[k] = Σ_{i∈sub} w(i)·i_k
// for each LIV livs[k]. Subranges are boxes of concrete triplets, so
// expr.SumMoments sums them from per-level power sums; only a weight it
// declines (a variable other than the LIVs, or sums past its int64
// bounds) is summed symbolically.
func moments(w expr.Poly, livs []string, sub space.Space) (int64, []int64) {
	mv := make([]int64, len(livs))
	if m0, ok := expr.SumMoments(w, livs, sub, mv); ok {
		return m0, mv
	}
	m0, _ := expr.SumOverSpace(w, livs, sub).IsConst()
	for k, liv := range livs {
		mv[k], _ = expr.SumOverSpace(w.Mul(expr.PolyVar(liv)), livs, sub).IsConst()
	}
	return m0, mv
}

func allZero(m []int64) bool {
	for _, v := range m {
		if v != 0 {
			return false
		}
	}
	return true
}

// anchors returns one port ID per connected component of the
// constraint+edge graph.
func (ax *axisSolver) anchors() []int {
	parent := make([]int, len(ax.g.Ports))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, e := range ax.g.Edges {
		union(e.Src.ID, e.Dst.ID)
	}
	for _, n := range ax.g.Nodes {
		first := -1
		for _, ports := range [2][]*adg.Port{n.In, n.Out} {
			for _, p := range ports {
				if first < 0 {
					first = p.ID
				} else {
					union(first, p.ID)
				}
			}
		}
	}
	seen := make([]bool, len(ax.g.Ports))
	var out []int
	for _, p := range ax.g.Ports {
		r := find(p.ID)
		if !seen[r] {
			seen[r] = true
			out = append(out, p.ID)
		}
	}
	return out
}

// refinePartitions implements the zero-crossing moves of the
// StrategyZeroTrack and StrategyRecursive drivers for singly-nested
// (rank-1) edges, from the last solve's coefficients; deeper edges keep
// their partitions.
func (ax *axisSolver) refinePartitions(parts map[int][]space.Space) (map[int][]space.Space, bool) {
	lay := ax.lay
	changed := false
	out := map[int][]space.Space{}
	for _, e := range ax.g.Edges {
		subs, ok := parts[e.ID]
		if !ok {
			continue
		}
		conc, _ := e.Space().Concrete()
		if conc.Rank() != 1 {
			out[e.ID] = subs
			continue
		}
		liv := e.Space().LIVs[0]
		li := lay.portLivs[e.Src.ID][0]
		// Current span coefficients.
		a0 := int64(math.Round(ax.vals[lay.slot(e.Src.ID, -1)] - ax.vals[lay.slot(e.Dst.ID, -1)]))
		a1 := int64(math.Round(ax.vals[lay.slot(e.Src.ID, li)] - ax.vals[lay.slot(e.Dst.ID, li)]))
		span := expr.Axpy(a1, liv, a0)
		if ax.opts.Strategy == StrategyZeroTrack {
			// Move the (single) boundary to the zero crossing.
			pieces := expr.SplitAtZeroCrossing(span, liv, conc.Dim(0))
			newSubs := make([]space.Space, 0, 2)
			for _, t := range pieces {
				newSubs = append(newSubs, space.NewSpace(t))
			}
			if !samePartition(newSubs, subs) {
				changed = true
			}
			out[e.ID] = newSubs
			continue
		}
		// StrategyRecursive: split any subrange containing a crossing.
		var newSubs []space.Space
		split := false
		for _, sub := range subs {
			pieces := expr.SplitAtZeroCrossing(span, liv, sub.Dim(0))
			if len(pieces) == 2 {
				split = true
				for _, t := range pieces {
					newSubs = append(newSubs, space.NewSpace(t))
				}
			} else {
				newSubs = append(newSubs, sub)
			}
		}
		if split {
			changed = true
		}
		out[e.ID] = newSubs
	}
	return out, changed
}

func samePartition(a, b []space.Space) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// store writes the rounded coefficients into this axis's entry of
// every port's offset. The terms of all ports are carved from one
// array.
func (ax *axisSolver) store() {
	lay := ax.lay
	n := 0
	for _, p := range ax.g.Ports {
		n += len(lay.portLivs[p.ID])
	}
	terms := make([]expr.Term, 0, n)
	for _, p := range ax.g.Ports {
		start := len(terms)
		for k, li := range lay.portLivs[p.ID] {
			if c := ax.ints[lay.slot(p.ID, li)]; c != 0 {
				terms = append(terms, expr.Term{Var: p.Space.LIVs[k], Coef: c})
			}
		}
		end := len(terms)
		ax.offs[p.ID][ax.axis] = expr.FromTerms(ax.ints[lay.slot(p.ID, -1)], terms[start:end:end])
	}
}

// steepestDescent improves the exact cost on this axis by coordinate
// descent over the rounded coefficients (the optimization step of the
// state-space-search strategy). Because node constraints are hard, the
// unit moves shift a whole node's ports together and rebalance the
// node's rows (move); a trial that breaks a row is undone. A node's
// coefficients are tried constant term first, then its ports' loop
// variables in first-seen order.
func (ax *axisSolver) steepestDescent() {
	cur := ExactOffsetCostAxis(ax.g, ax.repl, ax.offs, ax.axis)
	var coeffs []int
	saved := make([]int64, len(ax.ints))
	for pass := 0; pass < 10; pass++ {
		if ax.ctxErr() != nil {
			return // descent only improves an already-feasible solution
		}
		improved := false
		for _, n := range ax.g.Nodes {
			coeffs = ax.lay.nodeCoefs(n, coeffs)
			for _, li := range coeffs {
				for _, d := range [2]int64{1, -1} {
					copy(saved, ax.ints)
					ax.move(n, li, d)
					if !ax.table.holds(ax.ints) {
						copy(ax.ints, saved)
						continue
					}
					ax.store()
					c := ExactOffsetCostAxis(ax.g, ax.repl, ax.offs, ax.axis)
					if c < cur {
						cur = c
						improved = true
					} else {
						copy(ax.ints, saved)
						ax.store()
					}
				}
			}
		}
		if !improved {
			break
		}
	}
}

// ExactOffsetCost evaluates the exact grid-metric realignment cost
// Σ_e Σ_i w(i)·|π_src(i) − π_dst(i)| over all template axes, skipping
// replicated edges.
func ExactOffsetCost(g *adg.Graph, repl *ReplResult, offsets map[int][]expr.Affine) int64 {
	var total int64
	for t := 0; t < g.TemplateRank; t++ {
		total += ExactOffsetCostAxis(g, repl, offsets, t)
	}
	return total
}

// ExactOffsetCostAxis evaluates the exact grid-metric cost on one axis,
// scaling conditional-arm edges by their §6 control weights.
func ExactOffsetCostAxis(g *adg.Graph, repl *ReplResult, offsets map[int][]expr.Affine, t int) int64 {
	var total int64
	for _, e := range g.Edges {
		if repl != nil && (repl.Replicated(e.Src, t) || repl.Replicated(e.Dst, t)) {
			continue
		}
		span := offsets[e.Src.ID][t].Sub(offsets[e.Dst.ID][t])
		if span.IsZero() {
			continue
		}
		w := e.Weight()
		sp := e.Space()
		var edgeTotal int64
		sp.Each(func(env map[string]int64) bool {
			d := span.Eval(env)
			if d < 0 {
				d = -d
			}
			edgeTotal += w.Eval(env) * d
			return true
		})
		if e.Control != 1 {
			edgeTotal = int64(e.Control * float64(edgeTotal))
		}
		total += edgeTotal
	}
	return total
}
