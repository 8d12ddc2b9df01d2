package align

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adg"
)

// BatchOptions configures the batch alignment engine.
type BatchOptions struct {
	// Workers is the global worker budget shared by every solve of the
	// batch; values <= 0 mean GOMAXPROCS. This replaces per-solve
	// parallelism: Options.AxisStride.Parallelism and
	// Options.Offset.Parallelism are overridden by each solve's lease,
	// so a batch never oversubscribes (N programs × M solver workers).
	Workers int
	// Scheduler, when non-nil, runs the batch under an existing
	// scheduler's budget and scratch pools (long-running drivers
	// serving many batches share one); Workers is then ignored.
	Scheduler *Scheduler
	// SolveTimeout, when > 0, bounds each program's solve: a slot whose
	// solve exceeds it fails with an error wrapping
	// context.DeadlineExceeded while the rest of the batch proceeds.
	SolveTimeout time.Duration
}

// PanicError is a library panic captured at the batch engine's
// per-slot boundary: the panicking program's slot reports it as an
// ordinary error and every other slot completes normally.
type PanicError struct {
	// Label identifies the panicking program (the batch slot index,
	// prefixed by the caller's label when it supplied one).
	Label string
	// Value is the recovered panic value.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("align: panic in %s: %v", e.Label, e.Value)
}

// Protect runs f with a recover boundary, converting a panic into a
// *PanicError carrying label and the panic value. It is the per-slot
// isolation the batch engine wraps every solve in, exported so drivers
// that dispatch through Scheduler.Map themselves (the root package's
// source-level batch) get the same boundary.
func Protect[T any](label string, f func() (T, error)) (res T, err error) {
	defer func() {
		if p := recover(); p != nil {
			var zero T
			res, err = zero, &PanicError{Label: label, Value: p}
		}
	}()
	return f()
}

// AlignBatch aligns every graph under one global worker budget and
// returns results in input order (results[i] and errs[i] belong to
// graphs[i]) regardless of completion order. Each graph's error is
// reported per slot, so one failing program never voids the batch —
// including programs that panic inside the solvers: the panic is
// recovered at the slot boundary (see PanicError) after the slot's
// lease and scratch state have been returned by their defers.
//
// The batch shares Options.Cache across its solves — each distinct
// region of the duplicate graphs runs the pipeline once (concurrent
// duplicates via the cache's singleflight, later ones via plain hits)
// and the duplicates receive the shared results reassembled onto their
// own graphs. When Options.Cache is nil a batch-local cache (sized to the
// batch) provides the same dedup without persisting anything.
//
// All solver state is scratch-pooled on the scheduler, so a
// steady-state stream of batches allocates near zero beyond the
// results themselves. Output is byte-identical at every worker count:
// the per-solve lease only changes wall-clock interleaving, never the
// computed alignment.
func AlignBatch(graphs []*adg.Graph, opts Options, bopts BatchOptions) ([]*Result, []error) {
	return AlignBatchContext(context.Background(), graphs, opts, bopts)
}

// AlignBatchContext is AlignBatch under a context. Cancellation is
// observed between solves (no new slot starts once ctx dies) and
// inside them (running solves abort at their next cancellation check);
// slots never started report ctx.Err(). BatchOptions.SolveTimeout
// additionally bounds each slot with its own deadline. An
// already-canceled context returns immediately with ctx.Err() in every
// slot.
func AlignBatchContext(ctx context.Context, graphs []*adg.Graph, opts Options, bopts BatchOptions) ([]*Result, []error) {
	results := make([]*Result, len(graphs))
	errs := make([]error, len(graphs))
	if len(graphs) == 0 {
		return results, errs
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sched := bopts.Scheduler
	if sched == nil {
		sched = NewScheduler(bopts.Workers)
	}
	if opts.Cache == nil {
		opts.Cache = NewCache(len(graphs))
	}
	sched.MapContext(ctx, len(graphs), func(i, lease int) {
		results[i], errs[i] = Protect(fmt.Sprintf("program %d", i), func() (*Result, error) {
			slotCtx := ctx
			if bopts.SolveTimeout > 0 {
				var cancel context.CancelFunc
				slotCtx, cancel = context.WithTimeout(ctx, bopts.SolveTimeout)
				defer cancel()
			}
			return sched.AlignLeasedContext(slotCtx, graphs[i], opts, lease)
		})
	})
	// Slots the scheduler never dispatched (cancellation arrived first)
	// report the batch context's error.
	if err := ctx.Err(); err != nil {
		for i := range errs {
			if results[i] == nil && errs[i] == nil {
				errs[i] = err
			}
		}
	}
	return results, errs
}

// AlignLeased runs the full pipeline for g under the scheduler's
// scratch pools with a solver-internal parallelism of lease workers.
// It is the per-program body of AlignBatch, exported for drivers that
// own their program loading (the root package's source-level batch,
// cmd/alignc's -batch mode) and dispatch through Scheduler.Map
// themselves.
func (s *Scheduler) AlignLeased(g *adg.Graph, opts Options, lease int) (*Result, error) {
	return s.AlignLeasedContext(context.Background(), g, opts, lease)
}

// AlignLeasedContext is AlignLeased under a context (see AlignContext
// for where cancellation is observed).
func (s *Scheduler) AlignLeasedContext(ctx context.Context, g *adg.Graph, opts Options, lease int) (*Result, error) {
	if lease < 1 {
		lease = 1
	}
	opts.AxisStride.Parallelism = lease
	opts.Offset.Parallelism = lease
	opts.scratch = &s.scratch
	return AlignContext(ctx, g, opts)
}
