package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestPresolveEliminatesChains(t *testing.T) {
	// x0 = 0, x1 = x0 + 5, x2 = x1 - 2; min θ ≥ |x2 - 1|.
	p := NewProblem()
	x0 := p.AddVariable(0, true)
	x1 := p.AddVariable(0, true)
	x2 := p.AddVariable(0, true)
	th := p.AddVariable(1, false)
	p.AddConstraint(map[VarID]float64{x0: 1}, EQ, 0)
	p.AddConstraint(map[VarID]float64{x1: 1, x0: -1}, EQ, 5)
	p.AddConstraint(map[VarID]float64{x2: 1, x1: -1}, EQ, -2)
	p.AddConstraint(map[VarID]float64{th: 1, x2: -1}, GE, -1)
	p.AddConstraint(map[VarID]float64{th: 1, x2: 1}, GE, 1)
	ps := presolveEq(p)
	if ps.infeasible {
		t.Fatal("presolve infeasible")
	}
	if len(ps.order) != 3 {
		t.Errorf("eliminated %d vars, want 3", len(ps.order))
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// x2 = 3 fixed; θ = |3-1| = 2.
	if !almost(sol.Objective, 2) {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
	if !almost(sol.Value(x2), 3) {
		t.Errorf("x2 = %v, want 3", sol.Value(x2))
	}
}

func TestPresolveDetectsInconsistency(t *testing.T) {
	// x = 1 and x = 2 → infeasible, caught at presolve.
	p := NewProblem()
	x := p.AddVariable(0, true)
	p.AddConstraint(map[VarID]float64{x: 1}, EQ, 1)
	p.AddConstraint(map[VarID]float64{x: 1}, EQ, 2)
	if _, err := p.Solve(); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestPresolveRedundantRows(t *testing.T) {
	// Duplicate equalities must be dropped, not declared inconsistent.
	p := NewProblem()
	x := p.AddVariable(1, true)
	y := p.AddVariable(1, true)
	p.AddConstraint(map[VarID]float64{x: 1, y: 1}, EQ, 4)
	p.AddConstraint(map[VarID]float64{x: 2, y: 2}, EQ, 8) // same row × 2
	p.AddConstraint(map[VarID]float64{x: 1, y: -1}, EQ, 0)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Value(x), 2) || !almost(sol.Value(y), 2) {
		t.Errorf("x=%v y=%v, want 2, 2", sol.Value(x), sol.Value(y))
	}
}

func TestPresolveKeepsNonnegEqualities(t *testing.T) {
	// An equality over only nonnegative variables cannot be eliminated by
	// free-variable substitution; it must survive to the simplex.
	p := NewProblem()
	x := p.AddVariable(1, false)
	y := p.AddVariable(2, false)
	p.AddConstraint(map[VarID]float64{x: 1, y: 1}, EQ, 10)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, 10) { // all weight on the cheap variable
		t.Errorf("objective = %v, want 10", sol.Objective)
	}
}

// TestPresolveRandomEquivalence: solving with presolve (Solve) and
// without (solveRaw) gives the same optimum on random feasible LPs with
// equality chains.
func TestPresolveRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		p := NewProblem()
		n := 3 + rng.Intn(3)
		xs := make([]VarID, n)
		for i := range xs {
			xs[i] = p.AddVariable(0, true)
		}
		// Chain: x0 = c, x_{i+1} = x_i + d_i.
		p.AddConstraint(map[VarID]float64{xs[0]: 1}, EQ, float64(rng.Intn(7)-3))
		for i := 0; i+1 < n; i++ {
			p.AddConstraint(map[VarID]float64{xs[i+1]: 1, xs[i]: -1}, EQ, float64(rng.Intn(9)-4))
		}
		// θ terms pulling the last variable toward random targets.
		for j := 0; j < 2; j++ {
			th := p.AddVariable(float64(1+rng.Intn(3)), false)
			tgt := float64(rng.Intn(11) - 5)
			p.AddConstraint(map[VarID]float64{th: 1, xs[n-1]: -1}, GE, -tgt)
			p.AddConstraint(map[VarID]float64{th: 1, xs[n-1]: 1}, GE, tgt)
		}
		withPre, err1 := p.Solve()
		raw, err2 := p.solveRaw()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: presolve err=%v raw err=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(withPre.Objective-raw.Objective) > 1e-5 {
			t.Errorf("trial %d: presolve obj %v != raw obj %v", trial, withPre.Objective, raw.Objective)
		}
	}
}
