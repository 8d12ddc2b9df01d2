// Package repro is a reproduction of "Mobile and Replicated Alignment of
// Arrays in Data-Parallel Programs" (Chatterjee, Gilbert, Schreiber;
// Supercomputing '93). It determines array alignments — axis, stride, and
// offset, all possibly mobile (affine in loop induction variables), plus
// replication labels — that minimize residual (realignment) communication
// for data-parallel programs written in a small Fortran-90-flavored array
// language.
//
// The pipeline: parse → semantic analysis → alignment-distribution graph
// (ADG) construction → axis/stride alignment under the discrete metric
// (compact dynamic programming, §3) → replication labeling by min-cut
// (§5) ↔ mobile offset alignment by rounded linear programming (§4),
// iterated to quiescence (§6).
//
// Quick start:
//
//	res, err := repro.AlignSource(src, repro.DefaultOptions())
//	fmt.Println(res.Report())
package repro

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/adg"
	"repro/internal/align"
	"repro/internal/build"
	"repro/internal/cost"
	"repro/internal/lang"
)

// Options configures the alignment pipeline.
type Options struct {
	// Strategy selects the §4.2 mobile-offset algorithm.
	Strategy align.Strategy
	// Subranges is the per-loop-level subrange count m for the
	// fixed-partitioning strategy (default 3; the paper's recommendation).
	Subranges int
	// Replication enables replication labeling (§5).
	Replication bool
	// ReplicationRounds bounds the replication↔offset iteration (§6).
	ReplicationRounds int
	// Parallelism bounds the workers solving per-template-axis offset
	// LPs concurrently, and the workers running the axis/stride DP's
	// multi-start optimization; values ≤ 0 mean GOMAXPROCS. The computed
	// alignment is identical for every setting.
	Parallelism int
	// Restarts is the number of perturbed restarts of the axis/stride DP
	// beyond the two canonical seeds (0 means the default of 2; negative
	// disables restarts).
	Restarts int
	// Cache, when non-nil, memoizes pipeline results per weakly connected
	// component of the ADG, content-addressed by the component and the
	// result-affecting options: re-aligning an unchanged program skips
	// every solver, and after an edit only the edited components
	// re-solve. AlignSource additionally memoizes the completed result
	// under the normalized token stream of the source (the source memo
	// tier), so re-aligning an unchanged or merely reformatted program
	// costs one hash. Share one cache across AlignSource / AlignProgram
	// calls; see NewCache.
	Cache *Cache
	// Partition is ignored.
	//
	// Deprecated: every solve is cut into its weakly connected
	// components, and with a Cache each component is one cache entry,
	// so editing one independent computation re-solves only that
	// component.
	Partition bool
	// MaxLPIter, when > 0, caps the simplex pivots of every offset LP
	// solve; a solve that exhausts the budget fails with an error
	// wrapping lp.ErrBudget instead of spinning. 0 means a generous
	// default derived from each LP's size, which well-posed programs
	// never approach.
	MaxLPIter int64
}

// Cache is a bounded content-addressed memo of pipeline results; see
// Options.Cache.
type Cache = align.Cache

// NewCache returns a pipeline result cache holding at most capacity
// entries (a default capacity if capacity <= 0).
func NewCache(capacity int) *Cache { return align.NewCache(capacity) }

// DefaultOptions returns the paper's recommended configuration:
// fixed partitioning with m = 3 and replication labeling enabled.
func DefaultOptions() Options {
	return Options{Strategy: align.StrategyFixed, Subranges: 3, Replication: true}
}

// Result is a fully aligned program.
type Result struct {
	Program *lang.Program
	Info    *lang.Info
	Graph   *adg.Graph
	Align   *align.Result
	// Cost is the exact realignment cost breakdown of the chosen
	// alignment under the §2.3 model.
	Cost cost.Breakdown
	// Frontend records per-phase front-end wall time (lex, parse, sema,
	// ADG build, source-key hashing); for a memo hit every phase but
	// Key is zero — nothing else ran.
	Frontend FrontendTimes
	// MemoHit reports that this result was served by the source-keyed
	// memo tier: the entire front end and pipeline were skipped, and
	// the nested Align result is the original leader's (its CacheHit
	// reflects that solve, not this lookup).
	MemoHit bool
}

// AlignSource parses, analyzes, builds the ADG, and aligns a program.
func AlignSource(src string, opts Options) (*Result, error) {
	return AlignSourceContext(context.Background(), src, opts)
}

// AlignSourceContext is AlignSource under a context: the solvers poll
// ctx at their iteration boundaries (simplex pivots, DP sweeps,
// refinement rounds) and a canceled or expired context aborts the
// solve with an error wrapping ctx.Err() — never a partial result.
func AlignSourceContext(ctx context.Context, src string, opts Options) (*Result, error) {
	return alignSourceLeased(ctx, nil, src, opts.alignOptions(), 0)
}

// AlignProgram aligns an already-parsed program.
func AlignProgram(prog *lang.Program, opts Options) (*Result, error) {
	return AlignProgramContext(context.Background(), prog, opts)
}

// AlignProgramContext is AlignProgram under a context (see
// AlignSourceContext).
func AlignProgramContext(ctx context.Context, prog *lang.Program, opts Options) (*Result, error) {
	info, err := lang.Analyze(prog)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	g, err := build.Build(info)
	if err != nil {
		return nil, fmt.Errorf("build ADG: %w", err)
	}
	ar, err := align.AlignContext(ctx, g, opts.alignOptions())
	if err != nil {
		return nil, err
	}
	res := &Result{Program: prog, Info: info, Graph: g, Align: ar}
	res.Cost = ar.Cost
	return res, nil
}

// alignOptions lowers the public options to the pipeline's.
func (o Options) alignOptions() align.Options {
	return align.Options{
		AxisStride: align.AxisStrideOptions{
			Parallelism: o.Parallelism,
			Restarts:    o.Restarts,
		},
		Offset: align.OffsetOptions{
			Strategy:    o.Strategy,
			M:           o.Subranges,
			Parallelism: o.Parallelism,
		},
		Replication:       o.Replication,
		ReplicationRounds: o.ReplicationRounds,
		Cache:             o.Cache,
		MaxLPIter:         o.MaxLPIter,
	}
}

// BatchOptions configures AlignBatch.
type BatchOptions struct {
	// Workers is the global worker budget shared by the whole batch;
	// values ≤ 0 mean GOMAXPROCS. The budget is leased to in-flight
	// programs: a batch wider than the budget runs that many
	// single-threaded solves concurrently, a narrower batch grants each
	// solve a proportionally larger share for its internal parallelism.
	// The batch never runs programs × per-solve workers goroutines, and
	// Options.Parallelism is ignored in favor of the lease.
	Workers int
	// SolveTimeout, when > 0, bounds each program's solve with its own
	// deadline: a slot that exceeds it fails with an error wrapping
	// context.DeadlineExceeded while the rest of the batch proceeds.
	SolveTimeout time.Duration
}

// BatchResult is one slot of an AlignBatch: the aligned program or the
// error of the source at the same index of the input slice.
type BatchResult struct {
	Result *Result
	Err    error
}

// AlignBatch aligns many programs under one global worker budget and
// returns the results in input order (slot i belongs to srcs[i]); a
// failing program reports its error in its own slot without voiding the
// rest. Options applies to every program. Its Cache — or a batch-local
// cache when nil — dedups identical programs: each distinct ADG is
// solved exactly once per batch, concurrent duplicates collapsing into
// the leader's solve (singleflight) and receiving the shared result
// rebound to their own graphs.
//
// The computed alignments and costs are byte-identical for every
// Workers setting and every input permutation (modulo slot order
// following the permutation): worker count only changes scheduling,
// never results.
func AlignBatch(srcs []string, opts Options, bopts BatchOptions) []BatchResult {
	return AlignBatchContext(context.Background(), srcs, opts, bopts)
}

// AlignBatchContext is AlignBatch under a context. Once ctx dies, no
// new slot starts and running solves abort at their next cancellation
// check; slots never started report ctx.Err(). An already-canceled
// context returns immediately with ctx.Err() in every slot.
// BatchOptions.SolveTimeout additionally bounds each slot with its own
// deadline.
//
// Every slot's pipeline — parsing through the solvers — runs under a
// recover boundary: a program that panics inside the library reports a
// *PanicError in its own slot (carrying the slot label and panic
// value) while every other slot completes with results identical to a
// batch without the offender.
func AlignBatchContext(ctx context.Context, srcs []string, opts Options, bopts BatchOptions) []BatchResult {
	return alignBatch(ctx, srcs, opts.alignOptions(), bopts)
}

// alignBatch is AlignBatchContext on pipeline options.
func alignBatch(ctx context.Context, srcs []string, aopts align.Options, bopts BatchOptions) []BatchResult {
	out := make([]BatchResult, len(srcs))
	if len(srcs) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if aopts.Cache == nil {
		aopts.Cache = align.NewCache(len(srcs))
	}
	sched := align.NewScheduler(bopts.Workers)
	sched.MapContext(ctx, len(srcs), func(i, lease int) {
		out[i].Result, out[i].Err = align.Protect(fmt.Sprintf("program %d", i), func() (*Result, error) {
			slotCtx := ctx
			if bopts.SolveTimeout > 0 {
				var cancel context.CancelFunc
				slotCtx, cancel = context.WithTimeout(ctx, bopts.SolveTimeout)
				defer cancel()
			}
			return alignSourceLeased(slotCtx, sched, srcs[i], aopts, lease)
		})
	})
	// Slots the scheduler never dispatched (cancellation arrived first)
	// report the batch context's error.
	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].Result == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// PanicError is a library panic captured at the batch engine's
// per-slot recover boundary; see AlignBatchContext.
type PanicError = align.PanicError

// Assignment returns the consolidated per-port alignment.
func (r *Result) Assignment() *adg.Assignment { return r.Align.Assignment }

// Report renders a human-readable summary: graph statistics, the chosen
// alignments, and the cost breakdown.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ADG: %s\n", r.Graph.Stats())
	fmt.Fprintf(&b, "axis/stride discrete cost: %d (%d general edges)\n",
		r.Align.AxisStride.Cost, len(r.Align.AxisStride.GeneralEdges))
	dp := r.Align.AxisStride.Stats
	fmt.Fprintf(&b, "DP effort: %d starts, %d labels, %d configs, %d sweeps, %d moves, %d evals, %d expansions\n",
		dp.Starts, dp.Labels, dp.Configs, dp.Sweeps, dp.Moves, dp.Evals, dp.ExpansionAccepts)
	if r.Align.CacheHit {
		b.WriteString("pipeline cache: hit (solvers skipped)\n")
	}
	if r.MemoHit {
		b.WriteString("source memo: hit (front end skipped)\n")
	}
	if r.Align.Regions > 1 {
		// The count is a structural property of the program; region
		// cache hits are not printed here — they vary with cache
		// warmth, and reports must stay byte-identical with and without
		// a cache.
		fmt.Fprintf(&b, "regions: %d independent components\n", r.Align.Regions)
	}
	fmt.Fprintf(&b, "replication broadcast volume: %d\n", r.Align.Repl.Broadcast)
	// Exact − Approx: beyond the §4.2 subrange error, a gap means the
	// rounded offsets lost the LP's optimum.
	off := r.Align.Offset
	fmt.Fprintf(&b, "offset LP: %d vars, %d constraints, %d solves (%d shared), approx cost %.0f, exact - approx %.0f\n",
		off.LPVariables, off.LPConstraints, off.Solves, off.Shared, off.Approx, float64(off.Exact)-off.Approx)
	st := r.Align.Offset.Stats
	fmt.Fprintf(&b, "LP effort: %d cold + %d warm + %d network solves (%d sparse), %d pivots, %d refactors, %d augments, phase1 %s, phase2 %s\n",
		st.Solves, st.WarmSolves, st.NetSolves, st.SparseSolves,
		st.Pivots, st.Refactors, st.Augments,
		st.Phase1.Round(time.Microsecond), st.Phase2.Round(time.Microsecond))
	fmt.Fprintf(&b, "LP presolve: %d fixed, %d contracted, %d block solves\n",
		st.PresolveFixed, st.PresolveContracted, st.Blocks)
	t := r.Align.Times
	fmt.Fprintf(&b, "phase times: axis/stride %s, replication %s, offsets %s\n",
		t.AxisStride.Round(time.Microsecond), t.Replication.Round(time.Microsecond),
		t.Offsets.Round(time.Microsecond))
	fe := r.Frontend
	fmt.Fprintf(&b, "front-end times: lex %s, parse %s, sema %s, build %s, key %s\n",
		fe.Lex.Round(time.Microsecond), fe.Parse.Round(time.Microsecond),
		fe.Sema.Round(time.Microsecond), fe.Build.Round(time.Microsecond),
		fe.Key.Round(time.Microsecond))
	fmt.Fprintf(&b, "exact cost: %s\n", r.Cost)
	b.WriteString("alignments:\n")
	b.WriteString(r.Align.Assignment.String())
	return b.String()
}

// CostReport renders the per-edge cost table of the costliest edges.
func (r *Result) CostReport(top int) string {
	return cost.Report(r.Graph, r.Align.Assignment, top)
}
