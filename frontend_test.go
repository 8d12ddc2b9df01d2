package repro

import (
	"context"
	"testing"
)

// TestHitPathZeroAlloc gates the allocation budget of the source-memo
// hit path: once a program's result is memoized, re-aligning the same
// source must cost at most 8 allocations — the shallow Result copy,
// the pooled hash state, and nothing proportional to the program
// (measured: 2 allocs/op; the headroom absorbs runtime and pool
// jitter, not regressions). Skipped under the race detector, whose
// instrumentation allocates and would invalidate the gate.
func TestHitPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates, invalidating AllocsPerRun")
	}
	opts := DefaultOptions()
	opts.Cache = NewCache(0)
	if _, err := AlignSource(axisHeavySrc, opts); err != nil {
		t.Fatal(err)
	}
	var (
		res *Result
		err error
	)
	allocs := testing.AllocsPerRun(100, func() {
		res, err = AlignSource(axisHeavySrc, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.MemoHit {
		t.Fatal("warm repeat was not served by the source memo tier")
	}
	if allocs > 8 {
		t.Errorf("source-memo hit path: %.0f allocs/op, want <= 8", allocs)
	}
}

// TestMemoDeterminism pins the memo tier's output contract: solving
// through the memo (AlignSource) and past it (frontendSolve, the memo
// miss path) at Parallelism 1/2/8 yields byte-identical normalized
// reports for both the cold solve and the warm repeat — the memo only
// ever returns what the full pipeline would have computed. The warm
// repeat must hit the memo tier through AlignSource and the pipeline
// cache past it.
func TestMemoDeterminism(t *testing.T) {
	for name, src := range determinismSources {
		t.Run(name, func(t *testing.T) {
			var wantCold, wantWarm string
			for _, direct := range []bool{false, true} {
				for _, par := range []int{1, 2, 8} {
					opts := DefaultOptions()
					opts.Cache = NewCache(4)
					opts.Parallelism = par
					solve := func() (*Result, error) {
						if direct {
							return frontendSolve(context.Background(), nil, src, opts.alignOptions(), 0, 0)
						}
						return AlignSource(src, opts)
					}
					cold, err := solve()
					if err != nil {
						t.Fatal(err)
					}
					if cold.MemoHit {
						t.Errorf("memo=%v par=%d: cold solve reported a memo hit", !direct, par)
					}
					warm, err := solve()
					if err != nil {
						t.Fatal(err)
					}
					if direct {
						if warm.MemoHit {
							t.Errorf("par=%d: memo tier answered on the memo-miss path", par)
						}
						if !warm.Align.CacheHit {
							t.Errorf("par=%d: memo off, warm repeat missed the pipeline cache", par)
						}
					} else if !warm.MemoHit {
						t.Errorf("par=%d: memo on, warm repeat was not a memo hit", par)
					}
					gotCold := normalizeBatchReport(cold.Report())
					gotWarm := normalizeBatchReport(warm.Report())
					if wantCold == "" {
						wantCold, wantWarm = gotCold, gotWarm
						continue
					}
					if gotCold != wantCold {
						t.Errorf("memo=%v par=%d: cold report differs from baseline:\n--- baseline\n%s\n--- got\n%s",
							!direct, par, wantCold, gotCold)
					}
					if gotWarm != wantWarm {
						t.Errorf("memo=%v par=%d: warm report differs from baseline:\n--- baseline\n%s\n--- got\n%s",
							!direct, par, wantWarm, gotWarm)
					}
				}
			}
		})
	}
}
