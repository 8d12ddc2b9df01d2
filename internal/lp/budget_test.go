package lp

import (
	"context"
	"errors"
	"testing"
)

// budgetProblem builds a small LP that needs several pivots: min Σ x_i
// subject to chained coupling constraints, so phase 1 and phase 2 both
// have work to do.
func budgetProblem(n int) *Problem {
	p := NewProblem()
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = p.AddVariable(1, false)
	}
	for i := 0; i < n; i++ {
		co := map[VarID]float64{vars[i]: 1, vars[(i+1)%n]: 1}
		p.AddConstraint(co, GE, float64(i+2))
	}
	return p
}

// TestSolveBudgetExhausted pins the iteration budget: a MaxIter far
// below the pivots the problem needs returns ErrBudget instead of
// spinning (the simplex main loop is now always bounded).
func TestSolveBudgetExhausted(t *testing.T) {
	p := budgetProblem(12)
	p.SetOptions(Options{MaxIter: 1})
	_, err := p.Solve()
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Solve with MaxIter=1: err = %v, want ErrBudget", err)
	}

	// The same problem solves fine under the default (size-derived)
	// budget.
	p = budgetProblem(12)
	if _, err := p.Solve(); err != nil {
		t.Fatalf("Solve with default budget: %v", err)
	}
}

// TestSolveCanceledContext pins cancellation: a context that dies
// before or during the solve aborts it with an error satisfying both
// ErrCanceled and the context's own error, for cancel and deadline
// alike.
func TestSolveCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := budgetProblem(8)
	p.SetOptions(Options{Ctx: ctx})
	_, err := p.Solve()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled Solve: err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Solve: err = %v, want to wrap context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), now().Add(-1))
	defer dcancel()
	p = budgetProblem(8)
	p.SetOptions(Options{Ctx: dctx})
	_, err = p.Solve()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline Solve: err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestWarmSolveBudgetAndCancel checks the limits hold on the warm
// (phase-2-only) re-optimization path as well.
func TestWarmSolveBudgetAndCancel(t *testing.T) {
	p := budgetProblem(12)
	p.KeepBasis()
	if _, err := p.Solve(); err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	// Flip the objective so the warm re-solve has pivoting to do, with a
	// budget too small to finish it.
	for v := 0; v < p.NumVariables(); v++ {
		p.SetCost(VarID(v), float64(p.NumVariables()-v))
	}
	p.SetOptions(Options{MaxIter: 1})
	if _, err := p.WarmSolve(); !errors.Is(err, ErrBudget) {
		t.Fatalf("WarmSolve with MaxIter=1: err = %v, want ErrBudget", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.SetOptions(Options{Ctx: ctx})
	if _, err := p.WarmSolve(); !errors.Is(err, context.Canceled) {
		t.Fatalf("WarmSolve with canceled ctx: err = %v, want context.Canceled", err)
	}
}
