package lp

import (
	"errors"
	"math"
	"testing"
)

// reduceCase is one Reduce input: build returns a fresh problem (the
// reduction and the reference solve each get their own), check inspects
// an accepted reduction, and solveErr is the direct Solve's verdict on
// a declined one.
type reduceCase struct {
	name     string
	build    func() *Problem
	wantOK   bool
	check    func(t *testing.T, r *Reduction)
	solveErr error
}

// TestReduceAndPostsolve drives Problem.Reduce and Reduction.Postsolve
// directly. Every accepted reduction must postsolve to a point of the
// original problem (residual ≤ 1e-9) whose objective equals a direct
// Solve; every decline must leave the verdict to the simplex.
func TestReduceAndPostsolve(t *testing.T) {
	cases := []reduceCase{
		{
			// x0 = 2 pins x0; folded into x1 − x0 = 3 it pins x1 = 5.
			// min θ, θ ≥ |x2 − x1|, x2 ≥ 7 → x2 = 7, θ = 2.
			name: "pins fold through a difference row",
			build: func() *Problem {
				p := NewProblem()
				x0 := p.AddVariable(0, true)
				x1 := p.AddVariable(0, true)
				x2 := p.AddVariable(0, true)
				th := p.AddVariable(1, false)
				p.AddConstraint(map[VarID]float64{x1: 1, x0: -1}, EQ, 3)
				p.AddConstraint(map[VarID]float64{x0: 1}, EQ, 2)
				p.AddConstraint(map[VarID]float64{th: 1, x2: -1, x1: 1}, GE, 0)
				p.AddConstraint(map[VarID]float64{th: 1, x2: 1, x1: -1}, GE, 0)
				p.AddConstraint(map[VarID]float64{x2: 1}, GE, 7)
				return p
			},
			wantOK: true,
			check: func(t *testing.T, r *Reduction) {
				if r.Fixed != 2 || r.Contracted != 0 {
					t.Errorf("fixed %d contracted %d, want 2 and 0", r.Fixed, r.Contracted)
				}
				for _, v := range []VarID{0, 1} {
					if _, _, ok := r.BlockVar(v); ok {
						t.Errorf("pinned x%d still sits in a block", v)
					}
				}
				if len(r.Blocks) != 1 || len(r.Blocks[0].Vars) != 2 {
					t.Fatalf("blocks %+v, want one block over x2 and θ", r.Blocks)
				}
			},
		},
		{
			// x1 = x0 + 1, x2 = x1 + 4 contract into x0, whose cost is
			// the class sum 2 + 3 − 1 = 4; x2 ≥ 10 bounds it at x0 = 5.
			name: "chain contraction sums the class cost",
			build: func() *Problem {
				p := NewProblem()
				x0 := p.AddVariable(2, true)
				x1 := p.AddVariable(3, true)
				x2 := p.AddVariable(-1, true)
				p.AddConstraint(map[VarID]float64{x1: 1, x0: -1}, EQ, 1)
				p.AddConstraint(map[VarID]float64{x2: 1, x1: -1}, EQ, 4)
				p.AddConstraint(map[VarID]float64{x2: 1}, GE, 10)
				return p
			},
			wantOK: true,
			check: func(t *testing.T, r *Reduction) {
				if r.Fixed != 0 || r.Contracted != 2 {
					t.Errorf("fixed %d contracted %d, want 0 and 2", r.Fixed, r.Contracted)
				}
				if len(r.Blocks) != 1 || len(r.Blocks[0].Vars) != 1 || r.Blocks[0].Vars[0] != 0 {
					t.Fatalf("blocks %+v, want one block over the representative x0", r.Blocks)
				}
				if c := r.Blocks[0].Prob.Cost(0); c != 4 {
					t.Errorf("representative cost %v, want 4", c)
				}
			},
		},
		{
			// Rows over {x2, x3} come before rows over {x0, x1}, yet
			// blocks are ordered by their smallest variable; the pin on
			// x4 is what makes the reduction worth taking.
			name: "blocks split in ascending variable order",
			build: func() *Problem {
				p := NewProblem()
				for i := 0; i < 4; i++ {
					p.AddVariable(1, false)
				}
				x4 := p.AddVariable(0, true)
				p.AddConstraint(map[VarID]float64{2: 1, 3: 1}, GE, 3)
				p.AddConstraint(map[VarID]float64{0: 1, 1: 2}, GE, 4)
				p.AddConstraint(map[VarID]float64{x4: 1}, EQ, 1)
				return p
			},
			wantOK: true,
			check: func(t *testing.T, r *Reduction) {
				if len(r.Blocks) != 2 {
					t.Fatalf("%d blocks, want 2", len(r.Blocks))
				}
				for bi, want := range [][]VarID{{0, 1}, {2, 3}} {
					got := r.Blocks[bi].Vars
					if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
						t.Errorf("block %d vars %v, want %v", bi, got, want)
					}
				}
			},
		},
		{
			name: "declines a contradictory chain",
			build: func() *Problem {
				p := NewProblem()
				x0 := p.AddVariable(0, true)
				x1 := p.AddVariable(0, true)
				p.AddConstraint(map[VarID]float64{x0: 1, x1: -1}, EQ, 1)
				p.AddConstraint(map[VarID]float64{x0: 1, x1: -1}, EQ, 2)
				return p
			},
			solveErr: ErrInfeasible,
		},
		{
			name: "declines a nonnegative variable fixed negative",
			build: func() *Problem {
				p := NewProblem()
				y := p.AddVariable(1, false)
				p.AddConstraint(map[VarID]float64{y: 1}, EQ, -3)
				return p
			},
			solveErr: ErrInfeasible,
		},
		{
			// The class {x0, x1} appears in no surviving row and costs 1:
			// the objective is unbounded below. The row on y keeps one
			// constraint for the direct Solve's simplex to run on.
			name: "declines an unbounded ray",
			build: func() *Problem {
				p := NewProblem()
				x0 := p.AddVariable(1, true)
				x1 := p.AddVariable(0, true)
				y := p.AddVariable(1, false)
				p.AddConstraint(map[VarID]float64{x1: 1, x0: -1}, EQ, 2)
				p.AddConstraint(map[VarID]float64{y: 1}, GE, 1)
				return p
			},
			solveErr: ErrUnbounded,
		},
		{
			// The same ray with no other row: the direct Solve's
			// equality presolve eliminates the only row, and the
			// zero-row simplex must still report the ray.
			name: "declines an unbounded ray with no other row",
			build: func() *Problem {
				p := NewProblem()
				x0 := p.AddVariable(1, true)
				x1 := p.AddVariable(0, true)
				p.AddConstraint(map[VarID]float64{x1: 1, x0: -1}, EQ, 2)
				return p
			},
			solveErr: ErrUnbounded,
		},
		{
			name: "declines when nothing reduces",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddVariable(0, true)
				th := p.AddVariable(1, false)
				p.AddConstraint(map[VarID]float64{th: 1, x: -1}, GE, -2)
				p.AddConstraint(map[VarID]float64{th: 1, x: 1}, GE, 2)
				return p
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			r, ok := p.Reduce()
			if ok != tc.wantOK {
				t.Fatalf("Reduce ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				if _, err := tc.build().Solve(); !errors.Is(err, tc.solveErr) {
					t.Errorf("direct Solve error %v, want %v", err, tc.solveErr)
				}
				return
			}
			tc.check(t, r)
			sols := make([]*Solution, len(r.Blocks))
			for i := range r.Blocks {
				sol, err := r.Blocks[i].Prob.Solve()
				if err != nil {
					t.Fatalf("block %d: %v", i, err)
				}
				sols[i] = sol
			}
			got := r.Postsolve(sols)
			if res := p.Residual(got.Values()); res > 1e-9 {
				t.Errorf("postsolve residual %g on the original problem", res)
			}
			want, err := tc.build().Solve()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Objective-want.Objective) > 1e-9 {
				t.Errorf("postsolve objective %v, direct Solve %v", got.Objective, want.Objective)
			}
		})
	}
}
