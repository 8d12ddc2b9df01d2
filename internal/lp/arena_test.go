package lp

import (
	"math/rand"
	"testing"
)

// buildRandomLP constructs a feasible bounded problem with nv variables
// (a mix of free and nonnegative) and nc GE/LE constraints around a
// known feasible point.
func buildRandomLP(rng *rand.Rand, nv, nc int) *Problem {
	p := NewProblem()
	feas := make([]float64, nv)
	for v := 0; v < nv; v++ {
		free := rng.Intn(2) == 0
		p.AddVariable(1+rng.Float64(), free)
		feas[v] = float64(rng.Intn(5))
		if free && rng.Intn(2) == 0 {
			feas[v] = -feas[v]
		}
	}
	for c := 0; c < nc; c++ {
		coefs := map[VarID]float64{}
		lhs := 0.0
		for k := 0; k < 3; k++ {
			v := VarID(rng.Intn(nv))
			co := float64(rng.Intn(5) - 2)
			coefs[v] += co
			lhs += co * feas[v]
		}
		if rng.Intn(2) == 0 {
			p.AddConstraint(coefs, GE, lhs-float64(rng.Intn(3)))
		} else {
			p.AddConstraint(coefs, LE, lhs+float64(rng.Intn(3)))
		}
	}
	// Bound free variables so the objective cannot run away.
	for v := 0; v < nv; v++ {
		p.AddConstraint(map[VarID]float64{VarID(v): 1}, GE, -10)
		p.AddConstraint(map[VarID]float64{VarID(v): 1}, LE, 10)
	}
	return p
}

// TestArenaReuseMatchesFreshSolve solves a sequence of random problems
// twice — once with fresh allocation, once carving every tableau from
// one shared arena — and requires identical objectives.
func TestArenaReuseMatchesFreshSolve(t *testing.T) {
	ar := NewArena()
	for trial := 0; trial < 40; trial++ {
		fresh := buildRandomLP(rand.New(rand.NewSource(int64(trial))), 6, 8)
		arena := buildRandomLP(rand.New(rand.NewSource(int64(trial))), 6, 8)
		arena.SetArena(ar)
		sf, ef := fresh.Solve()
		sa, ea := arena.Solve()
		if (ef == nil) != (ea == nil) {
			t.Fatalf("trial %d: fresh err=%v arena err=%v", trial, ef, ea)
		}
		if ef != nil {
			continue
		}
		if !almost(sf.Objective, sa.Objective) {
			t.Errorf("trial %d: fresh objective %g != arena objective %g", trial, sf.Objective, sa.Objective)
		}
	}
}

// TestWarmSolveMatchesColdResolve changes objective costs on a
// KeepBasis problem and checks the warm re-optimization agrees with a
// freshly built cold solve of the same problem.
func TestWarmSolveMatchesColdResolve(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		warm := buildRandomLP(rng, 6, 8)
		warm.KeepBasis()
		if _, err := warm.Solve(); err != nil {
			continue // infeasible/unbounded instance: nothing to warm-start
		}
		for round := 0; round < 3; round++ {
			cold := buildRandomLP(rand.New(rand.NewSource(int64(1000+trial))), 6, 8)
			for v := 0; v < 6; v++ {
				c := float64(rng.Intn(4)) // includes 0: dead-edge θ case
				warm.SetCost(VarID(v), c)
				cold.costs[VarID(v)] = c
			}
			ws, errW := warm.WarmSolve()
			cs, errC := cold.Solve()
			if (errW == nil) != (errC == nil) {
				t.Fatalf("trial %d round %d: warm err=%v cold err=%v", trial, round, errW, errC)
			}
			if errW != nil {
				break
			}
			if !almost(ws.Objective, cs.Objective) {
				t.Errorf("trial %d round %d: warm objective %g != cold %g", trial, round, ws.Objective, cs.Objective)
			}
		}
	}
}

// TestWarmSolveFallsBackAfterStructuralChange adds a constraint after
// the basis was kept; WarmSolve must detect the mismatch and run a full
// cold solve instead of reusing the stale tableau.
func TestWarmSolveFallsBackAfterStructuralChange(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, false)
	p.AddConstraint(map[VarID]float64{x: 1}, GE, 2)
	p.KeepBasis()
	sol := solveOrFail(t, p)
	if !almost(sol.Value(x), 2) {
		t.Fatalf("x = %g, want 2", sol.Value(x))
	}
	p.AddConstraint(map[VarID]float64{x: 1}, GE, 5)
	sol2, err := p.WarmSolve()
	if err != nil {
		t.Fatalf("WarmSolve after structural change: %v", err)
	}
	if !almost(sol2.Value(x), 5) {
		t.Errorf("after added constraint x = %g, want 5 (stale basis reused?)", sol2.Value(x))
	}
}

// TestStatsAccounting checks the effort counters: cold solves increment
// Solves, warm re-solves increment WarmSolves, and Add merges.
func TestStatsAccounting(t *testing.T) {
	var st Stats
	p := NewProblem()
	x := p.AddVariable(1, false)
	y := p.AddVariable(2, false)
	p.AddConstraint(map[VarID]float64{x: 1, y: 1}, GE, 4)
	p.SetStats(&st)
	p.KeepBasis()
	solveOrFail(t, p)
	if st.Solves != 1 || st.WarmSolves != 0 {
		t.Fatalf("after cold solve: %+v", st)
	}
	p.SetCost(x, 5)
	if _, err := p.WarmSolve(); err != nil {
		t.Fatal(err)
	}
	if st.Solves != 1 || st.WarmSolves != 1 {
		t.Fatalf("after warm solve: %+v", st)
	}
	var total Stats
	total.Add(st)
	total.Add(st)
	if total.Solves != 2 || total.WarmSolves != 2 || total.Pivots != 2*st.Pivots {
		t.Fatalf("Add merge wrong: %+v from %+v", total, st)
	}
}

// TestStatsAccountingSparse checks the sparse-core counters: a cold
// sparse solve increments Solves and SparseSolves (plus at least one
// refactorization), a warm sparse re-solve increments WarmSolves and
// SparseSolves, and Add merges every new counter.
func TestStatsAccountingSparse(t *testing.T) {
	var st Stats
	p := buildRandomRLP(rand.New(rand.NewSource(7)), 8, 12)
	p.SetOptions(Options{Engine: EngineSparse})
	p.SetStats(&st)
	p.KeepBasis()
	solveOrFail(t, p)
	if st.Solves != 1 || st.SparseSolves != 1 || st.WarmSolves != 0 {
		t.Fatalf("after cold sparse solve: %+v", st)
	}
	if st.Refactors == 0 {
		t.Fatalf("cold sparse solve did not refactorize: %+v", st)
	}
	p.SetCost(0, 3)
	if _, err := p.WarmSolve(); err != nil {
		t.Fatal(err)
	}
	if st.Solves != 1 || st.WarmSolves != 1 || st.SparseSolves != 2 {
		t.Fatalf("after warm sparse solve: %+v", st)
	}
	st.NetSolves, st.Augments = 3, 17
	var total Stats
	total.Add(st)
	total.Add(st)
	if total.SparseSolves != 2*st.SparseSolves || total.Refactors != 2*st.Refactors ||
		total.NetSolves != 6 || total.Augments != 34 {
		t.Fatalf("Add merge wrong: %+v from %+v", total, st)
	}
}
