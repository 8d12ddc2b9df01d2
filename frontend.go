package repro

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/build"
	"repro/internal/lang"
)

// FrontendTimes records the per-phase wall time of the front end: lex,
// parse, semantic analysis, ADG construction, and source-key hashing.
// A source-memo hit skips every phase but Key (the hash is what a hit
// costs), so its times are zero except Key.
type FrontendTimes struct {
	Lex   time.Duration
	Parse time.Duration
	Sema  time.Duration
	Build time.Duration
	// Key is the time spent hashing the normalized token stream into
	// the source-memo key (zero when no cache is configured).
	Key time.Duration
}

// Total returns the summed front-end wall time.
func (t FrontendTimes) Total() time.Duration {
	return t.Lex + t.Parse + t.Sema + t.Build + t.Key
}

// feTokens is a pooled lexer token buffer, recycled across front-end
// runs: the AST retains source substrings, never the tokens themselves,
// so the slice is free for reuse the moment ParseTokens returns.
type feTokens struct{ toks []lang.Token }

var feTokenPool = sync.Pool{New: func() any { return &feTokens{} }}

// alignSourceLeased is the one source→cost pipeline behind AlignSource,
// every AlignBatch slot, and the alignd daemon's solves. It layers the
// source-keyed memo tier (when a cache is configured) in front of the
// full front end: a hit returns the memoized completed result for the
// cost of one token-stream hash; a miss runs lex → parse → sema →
// build → solve under the memo's singleflight and populates the tier
// on the way out. sched may be nil (solver parallelism then comes from
// aopts alone).
func alignSourceLeased(ctx context.Context, sched *align.Scheduler, src string, aopts align.Options, lease int) (*Result, error) {
	if aopts.Cache != nil {
		t0 := time.Now()
		key, ok := align.SourceKeyOf(src, aopts)
		keyT := time.Since(t0)
		if ok {
			// Fast path first, without building the compute closure:
			// the warm hit stays a hash, a map probe, and one shallow
			// copy (TestHitPathZeroAlloc gates it at ≤ 8 allocs).
			if v, hit := aopts.Cache.SourceGet(key); hit {
				return memoResult(v, keyT), nil
			}
			v, owned, err := aopts.Cache.SourceDo(ctx, key, func() (any, error) {
				res, err := frontendSolve(ctx, sched, src, aopts, lease, keyT)
				if err != nil {
					return nil, err
				}
				return res, nil
			})
			if err != nil {
				return nil, err
			}
			if owned {
				return v.(*Result), nil
			}
			return memoResult(v, keyT), nil
		}
		// src does not lex: fall through so the full front end reports
		// the error with its source position.
	}
	return frontendSolve(ctx, sched, src, aopts, lease, 0)
}

// memoResult adapts a memoized value to this caller: a shallow copy of
// the stored Result flagged as a memo hit, so concurrent hitters never
// share the mutable top-level struct. The nested results (Align, Graph,
// Program) are immutable once published and stay shared.
func memoResult(v any, keyT time.Duration) *Result {
	cached := v.(*Result)
	out := *cached
	out.MemoHit = true
	out.Frontend = FrontendTimes{Key: keyT}
	return &out
}

// frontendSolve is the memo-miss path: the timed front end (pooled
// token buffer, arena-backed parser, ADG build) followed by the
// alignment pipeline and exact costing.
func frontendSolve(ctx context.Context, sched *align.Scheduler, src string, aopts align.Options, lease int, keyT time.Duration) (*Result, error) {
	ft := FrontendTimes{Key: keyT}
	tb := feTokenPool.Get().(*feTokens)
	t0 := time.Now()
	toks, err := lang.LexInto(src, tb.toks[:0])
	tb.toks = toks
	ft.Lex = time.Since(t0)
	if err != nil {
		feTokenPool.Put(tb)
		return nil, fmt.Errorf("parse: %w", err)
	}
	t0 = time.Now()
	prog, err := lang.ParseTokens(toks)
	ft.Parse = time.Since(t0)
	feTokenPool.Put(tb)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	t0 = time.Now()
	info, err := lang.Analyze(prog)
	ft.Sema = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	t0 = time.Now()
	g, err := build.Build(info)
	ft.Build = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("build ADG: %w", err)
	}
	var ar *align.Result
	if sched != nil {
		ar, err = sched.AlignLeasedContext(ctx, g, aopts, lease)
	} else {
		ar, err = align.AlignContext(ctx, g, aopts)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Program: prog, Info: info, Graph: g, Align: ar, Frontend: ft}
	res.Cost = ar.Cost
	return res, nil
}

// AlignSourceLeased aligns src with solver parallelism bounded by a
// lease on sched's worker budget, through the same memo-aware pipeline
// as AlignSource (the alignd daemon drives its solves through this).
// sched must not be nil; lease is the number of workers granted.
func AlignSourceLeased(ctx context.Context, sched *align.Scheduler, src string, aopts align.Options, lease int) (*Result, error) {
	return alignSourceLeased(ctx, sched, src, aopts, lease)
}
