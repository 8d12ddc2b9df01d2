package lp

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func solveOrFail(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleMin(t *testing.T) {
	// min x + y s.t. x + y >= 2, x >= 0, y >= 0 → obj 2.
	p := NewProblem()
	x := p.AddVariable(1, false)
	y := p.AddVariable(1, false)
	p.AddConstraint(map[VarID]float64{x: 1, y: 1}, GE, 2)
	sol := solveOrFail(t, p)
	if !almost(sol.Objective, 2) {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x <= 4 → x=4, y=6, obj 26.
	p := NewProblem()
	x := p.AddVariable(2, false)
	y := p.AddVariable(3, false)
	p.AddConstraint(map[VarID]float64{x: 1, y: 1}, EQ, 10)
	p.AddConstraint(map[VarID]float64{x: 1}, LE, 4)
	sol := solveOrFail(t, p)
	if !almost(sol.Objective, 26) {
		t.Errorf("objective = %v, want 26", sol.Objective)
	}
	if !almost(sol.Value(x), 4) || !almost(sol.Value(y), 6) {
		t.Errorf("x=%v y=%v, want 4, 6", sol.Value(x), sol.Value(y))
	}
}

// eqSpec is the data a Problem is built from in TestProblemEqual.
type eqSpec struct {
	costs []float64
	free  []bool
	rows  [][]Term
	ops   []Op
	rhs   []float64
}

func newEqSpec() *eqSpec {
	return &eqSpec{
		costs: []float64{1, 0, 2},
		free:  []bool{true, false, false},
		rows:  [][]Term{{{0, 1}, {1, -1}}, {{1, 2}, {2, 0.5}}},
		ops:   []Op{EQ, GE},
		rhs:   []float64{3, 1},
	}
}

func (s *eqSpec) build() *Problem {
	p := NewProblem()
	for v, c := range s.costs {
		p.AddVariable(c, s.free[v])
	}
	for i, r := range s.rows {
		p.AddRow(r, s.ops[i], s.rhs[i])
	}
	return p
}

// TestProblemEqual: Equal holds for two problems built the same way,
// whatever their solve settings or retained state, and fails on any
// one differing cost (bitwise: 0 and −0 differ), free flag, relation,
// right-hand side or coefficient, or on an extra variable or row.
func TestProblemEqual(t *testing.T) {
	base := newEqSpec().build()
	same := newEqSpec().build()
	same.SetOptions(Options{MaxIter: 7})
	same.KeepBasis()
	if _, err := same.Solve(); err != nil {
		t.Fatal(err)
	}
	if !base.Equal(same) || !same.Equal(base) {
		t.Fatal("identically built problems are not Equal")
	}
	for name, edit := range map[string]func(*eqSpec){
		"cost":          func(s *eqSpec) { s.costs[2] = 3 },
		"negative zero": func(s *eqSpec) { s.costs[1] = math.Copysign(0, -1) },
		"free":          func(s *eqSpec) { s.free[1] = true },
		"relation":      func(s *eqSpec) { s.ops[1] = LE },
		"rhs":           func(s *eqSpec) { s.rhs[0] = 4 },
		"coefficient":   func(s *eqSpec) { s.rows[1][1].A = 0.25 },
		"column":        func(s *eqSpec) { s.rows[1][1].V = 0 },
		"variable": func(s *eqSpec) {
			s.costs, s.free = append(s.costs, 0), append(s.free, false)
		},
		"row": func(s *eqSpec) {
			s.rows, s.ops, s.rhs = append(s.rows, []Term{{2, 1}}), append(s.ops, LE), append(s.rhs, 5)
		},
	} {
		spec := newEqSpec()
		edit(spec)
		if q := spec.build(); base.Equal(q) || q.Equal(base) {
			t.Errorf("%s: problems differ but are Equal", name)
		}
	}
}

func TestFreeVariable(t *testing.T) {
	// min |x - 5| encoded as min t s.t. t >= x-5, t >= 5-x, x free,
	// with x pinned by x = 3 → t = 2.
	p := NewProblem()
	x := p.AddVariable(0, true)
	th := p.AddVariable(1, false)
	p.AddConstraint(map[VarID]float64{th: 1, x: -1}, GE, -5)
	p.AddConstraint(map[VarID]float64{th: 1, x: 1}, GE, 5)
	p.AddConstraint(map[VarID]float64{x: 1}, EQ, 3)
	sol := solveOrFail(t, p)
	if !almost(sol.Objective, 2) {
		t.Errorf("objective = %v, want 2", sol.Objective)
	}
}

func TestFreeVariableNegativeOptimum(t *testing.T) {
	// min t s.t. t >= x+7, t >= -x-7, x free → x = -7, t = 0.
	p := NewProblem()
	x := p.AddVariable(0, true)
	th := p.AddVariable(1, false)
	p.AddConstraint(map[VarID]float64{th: 1, x: -1}, GE, 7)
	p.AddConstraint(map[VarID]float64{th: 1, x: 1}, GE, -7)
	sol := solveOrFail(t, p)
	if !almost(sol.Objective, 0) {
		t.Errorf("objective = %v, want 0", sol.Objective)
	}
	if !almost(sol.Value(x), -7) {
		t.Errorf("x = %v, want -7", sol.Value(x))
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(1, false)
	p.AddConstraint(map[VarID]float64{x: 1}, GE, 5)
	p.AddConstraint(map[VarID]float64{x: 1}, LE, 3)
	if _, err := p.Solve(); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x s.t. x >= 0 (no upper bound) → unbounded.
	p := NewProblem()
	x := p.AddVariable(-1, false)
	p.AddConstraint(map[VarID]float64{x: 1}, GE, 0)
	if _, err := p.Solve(); err != ErrUnbounded {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestDegenerateTranslationRay(t *testing.T) {
	// Alignment-shaped problem: offsets π1, π2, π3 free; costs only on
	// differences; the uniform-translation ray must not be reported as
	// unbounded. min 5θ12 + 3θ23, θ12 ≥ |π1−π2|, θ23 ≥ |π2−π3+4|.
	p := NewProblem()
	p1 := p.AddVariable(0, true)
	p2 := p.AddVariable(0, true)
	p3 := p.AddVariable(0, true)
	t12 := p.AddVariable(5, false)
	t23 := p.AddVariable(3, false)
	p.AddConstraint(map[VarID]float64{t12: 1, p1: -1, p2: 1}, GE, 0)
	p.AddConstraint(map[VarID]float64{t12: 1, p1: 1, p2: -1}, GE, 0)
	p.AddConstraint(map[VarID]float64{t23: 1, p2: -1, p3: 1}, GE, -4)
	p.AddConstraint(map[VarID]float64{t23: 1, p2: 1, p3: -1}, GE, 4)
	sol := solveOrFail(t, p)
	if !almost(sol.Objective, 0) {
		t.Errorf("objective = %v, want 0 (π2=π1, π3=π2+4)", sol.Objective)
	}
}

func TestLargeCoefficientRows(t *testing.T) {
	// Mixed magnitudes like real alignment LPs: weights ~1e6.
	p := NewProblem()
	a := p.AddVariable(0, true)
	b := p.AddVariable(0, true)
	th := p.AddVariable(1, false)
	p.AddConstraint(map[VarID]float64{th: 1, a: -1e6, b: 1e6}, GE, -3e6)
	p.AddConstraint(map[VarID]float64{th: 1, a: 1e6, b: -1e6}, GE, 3e6)
	p.AddConstraint(map[VarID]float64{a: 1}, EQ, 0)
	sol := solveOrFail(t, p)
	// θ ≥ |1e6(b−a) + 3e6| with a=0 → minimized at b = −3, θ = 0.
	if !almost(sol.Objective, 0) {
		t.Errorf("objective = %v, want 0", sol.Objective)
	}
	if math.Abs(sol.Value(b)+3) > 1e-6 {
		t.Errorf("b = %v, want -3", sol.Value(b))
	}
}

func TestEqualityChain(t *testing.T) {
	// A chain of equalities like ADG node constraints:
	// x0 = 0, x1 = x0 + 2, x2 = x1 - 5, min θ ≥ |x2 - x0|.
	p := NewProblem()
	x0 := p.AddVariable(0, true)
	x1 := p.AddVariable(0, true)
	x2 := p.AddVariable(0, true)
	th := p.AddVariable(1, false)
	p.AddConstraint(map[VarID]float64{x0: 1}, EQ, 0)
	p.AddConstraint(map[VarID]float64{x1: 1, x0: -1}, EQ, 2)
	p.AddConstraint(map[VarID]float64{x2: 1, x1: -1}, EQ, -5)
	p.AddConstraint(map[VarID]float64{th: 1, x2: -1, x0: 1}, GE, 0)
	p.AddConstraint(map[VarID]float64{th: 1, x2: 1, x0: -1}, GE, 0)
	sol := solveOrFail(t, p)
	if !almost(sol.Objective, 3) {
		t.Errorf("objective = %v, want 3", sol.Objective)
	}
}

func TestManyThetaTerms(t *testing.T) {
	// A star of K offsets all pulled toward different constants with
	// different weights; optimum is the weighted median.
	p := NewProblem()
	x := p.AddVariable(0, true)
	targets := []float64{1, 4, 9, 16, 25}
	weights := []float64{1, 2, 7, 2, 1}
	for i := range targets {
		th := p.AddVariable(weights[i], false)
		p.AddConstraint(map[VarID]float64{th: 1, x: -1}, GE, -targets[i])
		p.AddConstraint(map[VarID]float64{th: 1, x: 1}, GE, targets[i])
	}
	sol := solveOrFail(t, p)
	// Weighted median is 9 (weight mass: 3 below, 3 above, 7 at 9).
	if math.Abs(sol.Value(x)-9) > 1e-6 {
		t.Errorf("x = %v, want 9", sol.Value(x))
	}
}

// TestRandomFeasibility cross-checks the solver on random LPs against a
// brute-force grid search over a small integer box.
func TestRandomFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nv := 2 + rng.Intn(2) // 2-3 vars
		p := NewProblem()
		vars := make([]VarID, nv)
		costs := make([]float64, nv)
		for i := range vars {
			costs[i] = float64(rng.Intn(5) + 1)
			vars[i] = p.AddVariable(costs[i], false)
		}
		type con struct {
			coefs []float64
			op    Op
			rhs   float64
		}
		var cons []con
		nc := 1 + rng.Intn(3)
		for c := 0; c < nc; c++ {
			coefs := make([]float64, nv)
			m := map[VarID]float64{}
			for i := range vars {
				coefs[i] = float64(rng.Intn(5) - 2)
				m[vars[i]] = coefs[i]
			}
			op := GE
			rhs := float64(rng.Intn(6) - 1)
			cons = append(cons, con{coefs, op, rhs})
			p.AddConstraint(m, op, rhs)
		}
		// Brute force over integer grid [0,10]^nv.
		best := math.Inf(1)
		var rec func(i int, x []float64)
		rec = func(i int, x []float64) {
			if i == nv {
				for _, c := range cons {
					s := 0.0
					for j := range x {
						s += c.coefs[j] * x[j]
					}
					if s < c.rhs-1e-9 {
						return
					}
				}
				obj := 0.0
				for j := range x {
					obj += costs[j] * x[j]
				}
				if obj < best {
					best = obj
				}
				return
			}
			for v := 0; v <= 10; v++ {
				x[i] = float64(v)
				rec(i+1, x)
			}
		}
		rec(0, make([]float64, nv))
		sol, err := p.Solve()
		if err != nil {
			if err == ErrInfeasible && !math.IsInf(best, 1) {
				t.Fatalf("trial %d: solver infeasible but grid found %v", trial, best)
			}
			continue
		}
		// LP optimum must be ≤ any feasible integer point.
		if !math.IsInf(best, 1) && sol.Objective > best+1e-6 {
			t.Errorf("trial %d: objective %v worse than grid %v", trial, sol.Objective, best)
		}
	}
}

// TestZeroRowSolves covers dense solves left with no rows, directly or
// after the equality presolve eliminates every row: the reduced costs
// are then the costs, so a free variable with nonzero cost or a
// nonnegative one with negative cost is unbounded, and otherwise every
// variable rests at zero.
func TestZeroRowSolves(t *testing.T) {
	cases := []struct {
		name    string
		build   func(p *Problem)
		wantErr error
		wantObj float64
	}{
		{"eliminated row, free column with cost", func(p *Problem) {
			x0 := p.AddVariable(1, true)
			x1 := p.AddVariable(0, true)
			p.AddConstraint(map[VarID]float64{x1: 1, x0: -1}, EQ, 2)
		}, ErrUnbounded, 0},
		{"no rows, free column with cost", func(p *Problem) {
			p.AddVariable(-1, true)
		}, ErrUnbounded, 0},
		{"no rows, nonnegative column with negative cost", func(p *Problem) {
			p.AddVariable(-1, false)
		}, ErrUnbounded, 0},
		{"eliminated row, bounded", func(p *Problem) {
			// x0 = x1 − 2 leaves min x1 over x1 ≥ 0: x1 = 0, x0 = −2.
			x0 := p.AddVariable(0, true)
			x1 := p.AddVariable(1, false)
			p.AddConstraint(map[VarID]float64{x1: 1, x0: -1}, EQ, 2)
		}, nil, 0},
	}
	for _, tc := range cases {
		p := NewProblem()
		tc.build(p)
		p.SetOptions(Options{Engine: EngineDense})
		sol, err := p.Solve()
		if err != tc.wantErr {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil {
			if !almost(sol.Objective, tc.wantObj) {
				t.Errorf("%s: objective = %v, want %v", tc.name, sol.Objective, tc.wantObj)
			}
			if r := p.Residual(sol.Values()); r > 1e-9 {
				t.Errorf("%s: residual %v", tc.name, r)
			}
		}
	}
}

// redundantRowProblem is min |x−1| + c·|y−1| subject to x + y = 4 and
// the same row again as 2x + 2y = 8. Row scaling makes the two rows
// identical, so once phase 1 pivots one of them the other is all zero
// and its artificial stays basic at level 0.
func redundantRowProblem(c float64) (*Problem, VarID) {
	p := NewProblem()
	x := p.AddVariable(0, true)
	y := p.AddVariable(0, true)
	tx := p.AddVariable(1, false)
	ty := p.AddVariable(c, false)
	p.AddConstraint(map[VarID]float64{x: 1, y: 1}, EQ, 4)
	p.AddConstraint(map[VarID]float64{x: 2, y: 2}, EQ, 8)
	p.AddConstraint(map[VarID]float64{tx: 1, x: -1}, GE, -1)
	p.AddConstraint(map[VarID]float64{tx: 1, x: 1}, GE, 1)
	p.AddConstraint(map[VarID]float64{ty: 1, y: -1}, GE, -1)
	p.AddConstraint(map[VarID]float64{ty: 1, y: 1}, GE, 1)
	return p, ty
}

// TestRedundantRowKeepsArtificial solves a problem with a redundant
// equality row on the dense tableau (with the basis kept, so the
// equality presolve does not remove the row): an implicit artificial
// stays basic at level 0, the dense and sparse engines agree, and a
// WarmSolve after SetCost matches a cold solve of the changed problem.
func TestRedundantRowKeepsArtificial(t *testing.T) {
	for _, eng := range []Engine{EngineDense, EngineSparse} {
		p, ty := redundantRowProblem(2)
		var st Stats
		p.SetStats(&st)
		p.SetOptions(Options{Engine: eng})
		p.KeepBasis()
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		// x = 3, y = 1: cost |3−1| + 2·0 = 2.
		if !almost(sol.Objective, 2) {
			t.Errorf("%v: objective = %v, want 2", eng, sol.Objective)
		}
		if eng == EngineDense {
			stuck := 0
			for i, bj := range p.ws.basis {
				if bj >= p.ws.artIdx {
					stuck++
					if p.ws.b2[i] != 0 {
						t.Errorf("basic artificial of row %d at level %v, want 0", i, p.ws.b2[i])
					}
				}
				if w := len(p.ws.a[i]); w != p.ws.artIdx {
					t.Errorf("row %d has %d columns, want nStruct+nSlack = %d", i, w, p.ws.artIdx)
				}
			}
			if stuck != 1 {
				t.Errorf("%d artificials basic after the solve, want 1 (the redundant row's)", stuck)
			}
		}
		// x = 1, y = 3 once y's deviation costs 0.5: cost 1.
		p.SetCost(ty, 0.5)
		warm, err := p.WarmSolve()
		if err != nil {
			t.Fatalf("%v warm: %v", eng, err)
		}
		cold, _ := redundantRowProblem(0.5)
		cold.SetOptions(Options{Engine: eng})
		want := solveOrFail(t, cold)
		if st.WarmSolves != 1 || !almost(warm.Objective, want.Objective) || !almost(want.Objective, 1) {
			t.Errorf("%v: warm objective %v (%d warm solves), cold %v, want 1 from one warm solve",
				eng, warm.Objective, st.WarmSolves, want.Objective)
		}
		if r := p.Residual(warm.Values()); r > 1e-6 {
			t.Errorf("%v: warm residual %v", eng, r)
		}
	}
}

// TestLiftedArtificialFails pins the guard after phase 2. The rows
// x + y = 1000 and x + y − δz = 1000 force z = 0, but after phase 1
// pivots x into the first row the second row's only entry is −δ, below
// pivTol, so its artificial stays basic. Phase 2 then enters z (cost
// −1) through the bound z ≤ 1000, which lifts that artificial to δ·1000:
// the solve must fail rather than return z = 1000.
func TestLiftedArtificialFails(t *testing.T) {
	const delta = 5e-8
	p := NewProblem()
	x := p.AddVariable(0, false)
	y := p.AddVariable(0, false)
	z := p.AddVariable(-1, false)
	p.AddConstraint(map[VarID]float64{x: 1, y: 1}, EQ, 1000)
	p.AddConstraint(map[VarID]float64{x: 1, y: 1, z: -delta}, EQ, 1000)
	p.AddConstraint(map[VarID]float64{z: 1}, LE, 1000)
	p.SetOptions(Options{Engine: EngineDense})
	p.KeepBasis()
	_, err := p.Solve()
	if !errors.Is(err, ErrBudget) || !strings.Contains(err.Error(), "artificial lifted") {
		t.Fatalf("err = %v, want the artificial-lifted ErrBudget", err)
	}
}
