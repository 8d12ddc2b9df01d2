package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/lp"
)

// goodSrc returns the i-th well-behaved program of the acceptance
// batch: fig1-shaped with a distinct loop trip count so every program
// is a distinct cache key yet all solve comfortably inside a modest LP
// iteration budget.
func goodSrc(i int) string {
	return fmt.Sprintf(`real A(100,100), V(200)
do k = 1, %d
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`, 40+i)
}

// robustPanicSrc panics mid-solve: the inner loop's symbolic bounds
// with a non-dividing step defeat the closed-form communication sum
// (adg.sumLevel), which panics rather than guess. Parse and ADG
// construction succeed.
const robustPanicSrc = `real A(100)
do i = 1, 10
  do k = i, i+9, 2
    A(k:k+1) = A(k:k+1) * 2
  enddo
enddo
`

// robustHungrySrc needs far more simplex pivots than the fig1 family
// (five mutually coupled arrays with skewed mobile offsets): under the
// batch's shared MaxLPIter budget it exhausts its iteration budget
// while every fig1-sized program finishes with room to spare. The
// thresholds were measured: fig1-family solves need < 200 pivots per
// LP, this one needs > 300.
const robustHungrySrc = `real U(400), F(400), G(400), H(400), W(400)
do k = 1, 100
  U(k:k+99) = U(k:k+99) + F(k+1:k+100)
  F(k:k+99) = F(k:k+99) + G(k+2:k+101)
  G(k:k+99) = G(k:k+99) + H(k+3:k+102)
  H(k:k+99) = H(k:k+99) + W(k+4:k+103)
  W(k:k+99) = W(k:k+99) + U(k+5:k+104)
enddo
`

// TestAlignBatchPanicAndBudgetIsolation is the acceptance test of the
// robustness PR: a batch of 32 programs in which one panics mid-solve
// and one exhausts its LP iteration budget completes with exactly those
// two per-slot errors, and the other 30 results are byte-identical to
// the same batch run without any failing program.
func TestAlignBatchPanicAndBudgetIsolation(t *testing.T) {
	const n = 32
	const badPanic, badBudget = 7, 19
	opts := DefaultOptions()
	opts.MaxLPIter = 250 // fig1 family needs < 200, hungry needs > 300
	// The thresholds above were measured on the monolithic simplex path;
	// the presolver's block decomposition lets the hungry program finish
	// inside the budget, so pin the path the test is about.
	aopts := opts.alignOptions()
	aopts.Offset.Presolve = lp.PresolveOff

	good := make([]string, 0, n-2)
	srcs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch i {
		case badPanic:
			srcs = append(srcs, robustPanicSrc)
		case badBudget:
			srcs = append(srcs, robustHungrySrc)
		default:
			srcs = append(srcs, goodSrc(i))
			good = append(good, goodSrc(i))
		}
	}

	ref := alignBatch(context.Background(), good, aopts, BatchOptions{Workers: 4})
	for i, r := range ref {
		if r.Err != nil {
			t.Fatalf("reference batch slot %d: %v", i, r.Err)
		}
	}

	got := alignBatch(context.Background(), srcs, aopts, BatchOptions{Workers: 4})
	nerr := 0
	gi := 0
	for i, r := range got {
		switch i {
		case badPanic:
			nerr++
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("slot %d: err = %v, want *PanicError", i, r.Err)
			}
			if pe.Label == "" || pe.Value == nil {
				t.Errorf("slot %d: PanicError missing label or value: %+v", i, pe)
			}
			if r.Result != nil {
				t.Errorf("slot %d: panicking program has a result", i)
			}
		case badBudget:
			nerr++
			if !errors.Is(r.Err, lp.ErrBudget) {
				t.Fatalf("slot %d: err = %v, want lp.ErrBudget", i, r.Err)
			}
			if r.Result != nil {
				t.Errorf("slot %d: budget-exhausted program has a result", i)
			}
		default:
			if r.Err != nil {
				t.Fatalf("slot %d: unexpected error %v", i, r.Err)
			}
			want := ref[gi]
			gi++
			if ga, wa := r.Result.Align.Assignment.String(), want.Result.Align.Assignment.String(); ga != wa {
				t.Errorf("slot %d: assignment diverged from failure-free batch\ngot:  %s\nwant: %s", i, ga, wa)
			}
			if gc, wc := r.Result.Cost.String(), want.Result.Cost.String(); gc != wc {
				t.Errorf("slot %d: cost diverged: got %s, want %s", i, gc, wc)
			}
		}
	}
	if nerr != 2 {
		t.Errorf("batch reported %d failing slots, want 2", nerr)
	}
}

// TestAlignBatchContextCancelFast pins the acceptance bound at the
// public API: an already-canceled context makes AlignBatchContext
// return in well under 100ms with context.Canceled in every slot.
func TestAlignBatchContextCancelFast(t *testing.T) {
	srcs := make([]string, 32)
	for i := range srcs {
		srcs[i] = goodSrc(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	out := AlignBatchContext(ctx, srcs, DefaultOptions(), BatchOptions{Workers: 4})
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("canceled batch took %v, want < 100ms", d)
	}
	for i, r := range out {
		if r.Result != nil {
			t.Errorf("slot %d has a result despite pre-canceled context", i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("slot %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestAlignBatchSolveTimeoutBudget checks the per-slot deadline at the
// public API: a timeout only the hungry program exceeds fails that slot
// with context.DeadlineExceeded and leaves the rest intact.
func TestAlignBatchSolveTimeoutBudget(t *testing.T) {
	srcs := []string{goodSrc(0), goodSrc(1)}
	out := AlignBatch(srcs, DefaultOptions(), BatchOptions{Workers: 2, SolveTimeout: time.Nanosecond})
	for i, r := range out {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("slot %d with 1ns timeout: err = %v, want DeadlineExceeded", i, r.Err)
		}
	}
	out = AlignBatch(srcs, DefaultOptions(), BatchOptions{Workers: 2, SolveTimeout: time.Minute})
	for i, r := range out {
		if r.Err != nil {
			t.Errorf("slot %d with generous timeout: %v", i, r.Err)
		}
	}
}

// TestAlignSourceContextCancel checks single-solve context plumbing at
// the public API: a canceled context aborts with an error wrapping
// context.Canceled and never returns a partial result.
func TestAlignSourceContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AlignSourceContext(ctx, goodSrc(0), DefaultOptions())
	if err == nil {
		t.Fatal("canceled AlignSourceContext returned success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled AlignSourceContext returned a non-nil result")
	}
}

// TestAlignSourceBudgetExhausted checks MaxLPIter at the public API: an
// impossible pivot budget fails with lp.ErrBudget; the default budget
// solves the same program.
func TestAlignSourceBudgetExhausted(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxLPIter = 1
	if _, err := AlignSource(goodSrc(0), opts); !errors.Is(err, lp.ErrBudget) {
		t.Errorf("MaxLPIter=1: err = %v, want lp.ErrBudget", err)
	}
	opts.MaxLPIter = 0
	if _, err := AlignSource(goodSrc(0), opts); err != nil {
		t.Errorf("default budget: %v", err)
	}
}
