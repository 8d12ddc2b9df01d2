package align

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adg"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/lp"
)

// Options configures the full alignment pipeline.
type Options struct {
	// AxisStride configures the §3 compact dynamic program (multi-start
	// parallelism and restart count).
	AxisStride AxisStrideOptions
	// Offset configures the mobile offset solver (§4).
	Offset OffsetOptions
	// Replication enables replication labeling (§5). When false every
	// port is non-replicated.
	Replication bool
	// ReplicationRounds bounds the replication ↔ offset iteration of §6
	// (the chicken-and-egg between mobile offsets motivating replication
	// and replication discarding edges from the offset problem).
	// Default 2.
	ReplicationRounds int
	// Cache, when non-nil, memoizes completed results per region — each
	// weakly connected component of the ADG, content-addressed by its
	// canonical serialization and the result-affecting options — so an
	// unchanged program runs no solver, and after an edit only the
	// edited components re-solve. Concurrent solves of one key run the
	// pipeline once (singleflight). See NewCache.
	Cache *Cache

	// Partition is ignored.
	//
	// Deprecated: every solve is cut into regions, and with a Cache
	// every region is one cache entry.
	Partition bool

	// MaxLPIter caps the simplex iterations of each LP solve of the §4
	// offset phase (lp.Options.MaxIter); values <= 0 derive the budget
	// from the problem size. A solve that exhausts the budget fails with
	// lp.ErrBudget instead of spinning.
	MaxLPIter int64

	// scratch, when non-nil, recycles per-solve solver state (intern
	// tables, tableau arenas). Set by the batch engine's scheduler.
	scratch *scratchPool

	// ctx, when non-nil, cancels the pipeline: it is observed between
	// phases, between DP sweeps, between LP refinement rounds, and
	// (amortized) inside simplex iterations. Set by AlignContext.
	ctx context.Context
}

// ctxErr returns the pipeline's cancellation error, or nil.
func (o *Options) ctxErr() error {
	if o.ctx == nil {
		return nil
	}
	return o.ctx.Err()
}

// PhaseTimes is the wall time of each pipeline phase.
type PhaseTimes struct {
	// AxisStride covers the §3 discrete-metric phase.
	AxisStride time.Duration
	// Offsets covers every offset LP round (§4), including the re-solves
	// of the §6 replication iteration.
	Offsets time.Duration
	// Replication covers the §5 min-cut labeling rounds.
	Replication time.Duration
}

// Result is the complete alignment of a program's ADG.
type Result struct {
	Graph      *adg.Graph
	AxisStride *AxisStrideResult
	Repl       *ReplResult
	Offset     *OffsetResult
	// Assignment is the consolidated per-port alignment.
	Assignment *adg.Assignment
	// Cost is the exact §2.3 cost of Assignment (cost.Exact). A
	// decomposed program sums its regions' costs (no edge crosses
	// regions), so a region served from the cache is not re-costed.
	Cost cost.Breakdown
	// Times records per-phase wall time.
	Times PhaseTimes
	// CacheHit reports that every region of this result was served from
	// Options.Cache (phase times are zero in that case — no solver ran).
	CacheHit bool
	// Regions is the number of weakly connected components the graph
	// decomposed into (1 for a connected program, 0 for an empty one).
	Regions int
	// RegionHits is how many of those components were served from the
	// cache during this solve, including singleflight waiters served by
	// another caller's solve (always 0 without Options.Cache).
	RegionHits int
}

// Align runs the full pipeline of the paper on an ADG: axis and (mobile)
// stride alignment under the discrete metric (§3), replication labeling
// by min-cut (§5), and mobile offset alignment by rounded linear
// programming (§4), iterating the last two until quiescence (§6).
func Align(g *adg.Graph, opts Options) (*Result, error) {
	return AlignContext(context.Background(), g, opts)
}

// AlignContext is Align under a context: cancellation or deadline
// expiry aborts the pipeline between phases, between DP sweeps, between
// LP refinement rounds, and (amortized) inside simplex iterations,
// returning an error satisfying errors.Is on ctx.Err(). A canceled
// waiter of a singleflight miss abandons the flight without disturbing
// the leader's solve.
func AlignContext(ctx context.Context, g *adg.Graph, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.ctx = ctx
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.ReplicationRounds <= 0 {
		opts.ReplicationRounds = 2
	}
	return alignRegions(g, adg.PartitionGraph(g), opts)
}

// alignMono runs the solver pipeline on one connected graph: the
// compute body of every region.
func alignMono(g *adg.Graph, opts Options) (*Result, error) {
	var times PhaseTimes
	opts.AxisStride.scratch = opts.scratch
	opts.AxisStride.ctx = opts.ctx
	opts.Offset.scratch = opts.scratch
	opts.Offset.ctx = opts.ctx
	opts.Offset.MaxIter = opts.MaxLPIter
	t0 := time.Now()
	as, err := AxisStrideOpts(g, opts.AxisStride)
	if err != nil {
		return nil, fmt.Errorf("align: axis/stride phase: %w", err)
	}
	times.AxisStride = time.Since(t0)
	if err := opts.ctxErr(); err != nil {
		return nil, err
	}
	repl := NoReplication(g)
	var off *OffsetResult
	if opts.Replication {
		// Round 0 labels without mobility information; subsequent rounds
		// use the offsets of the previous round. The solver is shared
		// across rounds so each re-solve warm-starts from the previous
		// basis (only the per-edge θ costs change between rounds).
		solver := NewOffsetSolver(g, as, opts.Offset)
		defer solver.releaseScratch()
		var mobile MobilePredicate
		// Effort accounting accumulates across the §6 rounds: each Solve
		// reports only its own round's counters, but the result handed to
		// the caller describes the whole iteration — without the sum, the
		// cold round-0 solves (the expensive ones) would vanish from the
		// report the moment a warm round overwrote off.
		var effort lp.Stats
		solves, shared, lpVars, lpCons := 0, 0, 0, 0
		for round := 0; round < opts.ReplicationRounds; round++ {
			if err := opts.ctxErr(); err != nil {
				return nil, err
			}
			t0 = time.Now()
			repl, err = Replicate(g, as, mobile)
			if err != nil {
				return nil, fmt.Errorf("align: replication phase: %w", err)
			}
			times.Replication += time.Since(t0)
			t0 = time.Now()
			off, err = solver.Solve(repl)
			if err != nil {
				return nil, err
			}
			times.Offsets += time.Since(t0)
			effort.Add(off.Stats)
			solves += off.Solves
			shared += off.Shared
			if off.LPVariables > lpVars {
				lpVars = off.LPVariables
			}
			if off.LPConstraints > lpCons {
				lpCons = off.LPConstraints
			}
			prev := off
			mobile = func(p *adg.Port, t int) bool {
				return !prev.Offsets[p.ID][t].IsConst()
			}
		}
		off.Stats = effort
		off.Solves = solves
		off.Shared = shared
		off.LPVariables = lpVars
		off.LPConstraints = lpCons
	} else {
		// Even without replication labeling, spreads force their inputs
		// replicated (§5.2 constraint 2) — Figure 4's per-iteration
		// broadcast baseline.
		t0 = time.Now()
		repl = ReplicateForced(g, as)
		times.Replication = time.Since(t0)
		t0 = time.Now()
		off, err = Offsets(g, as, repl, opts.Offset)
		if err != nil {
			return nil, err
		}
		times.Offsets = time.Since(t0)
	}
	res := &Result{Graph: g, AxisStride: as, Repl: repl, Offset: off, Times: times, Regions: 1}
	res.Assignment = res.BuildAssignment()
	res.Cost = cost.Exact(g, res.Assignment)
	return res, nil
}

// BuildAssignment consolidates the phase outputs into per-port
// alignments. It is exported so callers composing the phases manually
// (e.g. mobile-vs-static experiments) can evaluate their own results.
func (r *Result) BuildAssignment() *adg.Assignment {
	// Every port's slices are carved, capacity-capped, from one backing
	// array per element type.
	tr := r.Graph.TemplateRank
	nAxes, nAffs := 0, 0
	for _, p := range r.Graph.Ports {
		label := r.AxisStride.Labels[p.ID]
		nAxes += len(label.AxisMap)
		nAffs += len(label.Stride) + len(r.Offset.Offsets[p.ID])
	}
	axes := make([]int, 0, nAxes)
	affs := make([]expr.Affine, 0, nAffs)
	repl := make([]bool, tr*len(r.Graph.Ports))
	carve := func(p *adg.Port) adg.Alignment {
		label := r.AxisStride.Labels[p.ID]
		off := r.Offset.Offsets[p.ID]
		a0, s0 := len(axes), len(affs)
		axes = append(axes, label.AxisMap...)
		affs = append(affs, label.Stride...)
		s1 := len(affs)
		affs = append(affs, off...)
		a := adg.Alignment{
			AxisMap:    axes[a0:len(axes):len(axes)],
			Stride:     affs[s0:s1:s1],
			Offset:     affs[s1:len(affs):len(affs)],
			Replicated: repl[:tr:tr],
		}
		repl = repl[tr:]
		for t := 0; t < tr; t++ {
			a.Replicated[t] = r.Repl.Replicated(p, t)
		}
		return a
	}
	return adg.NewAssignmentFunc(r.Graph, carve)
}
