package lp

import (
	"math"
	"math/rand"
	"testing"
)

// buildRandomRLP constructs an offset-RLP-shaped problem: free offsets
// π, a nonnegative θ per edge bounded by the adjacent GE pair
// θ ± c(π_src − π_dst + d) ≥ 0, a few node equalities, and an anchor.
// This is the exact shape the sparse core's θ-pair merge targets.
func buildRandomRLP(rng *rand.Rand, nPorts, nEdges int) *Problem {
	p := NewProblem()
	ports := make([]VarID, nPorts)
	for i := range ports {
		ports[i] = p.AddVariable(0, true)
	}
	p.AddConstraint(map[VarID]float64{ports[0]: 1}, EQ, 0) // anchor
	for e := 0; e < nEdges; e++ {
		src := ports[rng.Intn(nPorts)]
		dst := ports[rng.Intn(nPorts)]
		for dst == src {
			dst = ports[rng.Intn(nPorts)]
		}
		c := float64(1 + rng.Intn(4))
		d := float64(rng.Intn(7) - 3)
		w := float64(rng.Intn(5)) // includes 0: dead-edge θ
		th := p.AddVariable(w, false)
		p.AddConstraint(map[VarID]float64{th: 1, src: c, dst: -c}, GE, -c*d)
		p.AddConstraint(map[VarID]float64{th: 1, src: -c, dst: c}, GE, c*d)
	}
	for k := 0; k < nPorts/3; k++ {
		a := ports[rng.Intn(nPorts)]
		b := ports[rng.Intn(nPorts)]
		if a == b {
			continue
		}
		p.AddConstraint(map[VarID]float64{a: 1, b: -1}, EQ, float64(rng.Intn(5)-2))
	}
	return p
}

// feasible reports whether vals satisfies every constraint of p within
// tol, returning the first violated row otherwise.
func feasible(p *Problem, vals []float64, tol float64) (bool, int) {
	for i, c := range p.cons {
		lhs := 0.0
		for _, e := range c.ents {
			lhs += e.a * vals[e.v]
		}
		switch c.op {
		case LE:
			if lhs > c.rhs+tol {
				return false, i
			}
		case GE:
			if lhs < c.rhs-tol {
				return false, i
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > tol {
				return false, i
			}
		}
	}
	// Nonnegative variables must be nonnegative.
	for v, free := range p.free {
		if !free && vals[v] < -tol {
			return false, -1
		}
	}
	return true, 0
}

// solveWith solves a freshly built copy of the same seeded problem on
// the given engine.
func solveWith(build func() *Problem, eng Engine) (*Solution, error, *Problem) {
	p := build()
	p.SetOptions(Options{Engine: eng})
	s, err := p.Solve()
	return s, err, p
}

// TestSparseDifferentialGeneral cross-checks the sparse revised simplex
// against the dense tableau on random general LPs: identical
// feasibility verdicts, objectives within 1e-6, and a primal-feasible
// sparse solution.
func TestSparseDifferentialGeneral(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		build := func() *Problem {
			return buildRandomLP(rand.New(rand.NewSource(int64(7000+trial))), 7, 9)
		}
		sd, errD, _ := solveWith(build, EngineDense)
		ss, errS, ps := solveWith(build, EngineSparse)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: dense err=%v sparse err=%v", trial, errD, errS)
		}
		if errD != nil {
			continue
		}
		if d := math.Abs(sd.Objective - ss.Objective); d > 1e-6*(1+math.Abs(sd.Objective)) {
			t.Errorf("trial %d: dense objective %g != sparse %g", trial, sd.Objective, ss.Objective)
		}
		if ok, row := feasible(ps, ss.Values(), 1e-6); !ok {
			t.Errorf("trial %d: sparse solution violates constraint %d", trial, row)
		}
	}
}

// TestSparseDifferentialRLP cross-checks the cores on offset-RLP-shaped
// problems, where the sparse core merges every θ row pair.
func TestSparseDifferentialRLP(t *testing.T) {
	for trial := 0; trial < 80; trial++ {
		build := func() *Problem {
			return buildRandomRLP(rand.New(rand.NewSource(int64(9000+trial))), 6, 8)
		}
		sd, errD, _ := solveWith(build, EngineDense)
		ss, errS, ps := solveWith(build, EngineSparse)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: dense err=%v sparse err=%v", trial, errD, errS)
		}
		if errD != nil {
			continue
		}
		if d := math.Abs(sd.Objective - ss.Objective); d > 1e-6*(1+math.Abs(sd.Objective)) {
			t.Errorf("trial %d: dense objective %g != sparse %g", trial, sd.Objective, ss.Objective)
		}
		if ok, row := feasible(ps, ss.Values(), 1e-6); !ok {
			t.Errorf("trial %d: sparse solution violates constraint %d", trial, row)
		}
	}
}

// TestSparseDifferentialWarm drives a KeepBasis sparse problem through
// cost-change rounds and checks every warm re-optimization against a
// cold dense solve of the identical problem.
func TestSparseDifferentialWarm(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		warm := buildRandomRLP(rand.New(rand.NewSource(int64(11000+trial))), 6, 8)
		warm.SetOptions(Options{Engine: EngineSparse})
		warm.KeepBasis()
		if _, err := warm.Solve(); err != nil {
			t.Fatalf("trial %d: cold sparse solve: %v", trial, err)
		}
		if warm.sws == nil {
			t.Fatalf("trial %d: sparse warm state not retained", trial)
		}
		rng := rand.New(rand.NewSource(int64(20000 + trial)))
		for round := 0; round < 4; round++ {
			cold := buildRandomRLP(rand.New(rand.NewSource(int64(11000+trial))), 6, 8)
			for v, free := range warm.free {
				if free {
					continue // θ variables carry the cost
				}
				c := float64(rng.Intn(4))
				warm.SetCost(VarID(v), c)
				cold.costs[v] = c
			}
			ws, errW := warm.WarmSolve()
			cs, errC := cold.Solve()
			if errW != nil || errC != nil {
				t.Fatalf("trial %d round %d: warm err=%v cold err=%v", trial, round, errW, errC)
			}
			if d := math.Abs(ws.Objective - cs.Objective); d > 1e-6*(1+math.Abs(cs.Objective)) {
				t.Errorf("trial %d round %d: warm sparse %g != cold dense %g", trial, round, ws.Objective, cs.Objective)
			}
		}
	}
}

// TestSparseThetaPairMerge pins the pair-merge bookkeeping on a known
// RLP: both θ pairs must collapse to one equality row each, and the
// solved offsets/θs must match the dense core exactly.
func TestSparseThetaPairMerge(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		a := p.AddVariable(0, true)
		b := p.AddVariable(0, true)
		t1 := p.AddVariable(2, false)
		t2 := p.AddVariable(3, false)
		p.AddConstraint(map[VarID]float64{a: 1}, EQ, 0)
		p.AddConstraint(map[VarID]float64{t1: 1, a: 1, b: -1}, GE, -3)
		p.AddConstraint(map[VarID]float64{t1: 1, a: -1, b: 1}, GE, 3)
		p.AddConstraint(map[VarID]float64{t2: 1, b: 1}, GE, 0)
		p.AddConstraint(map[VarID]float64{t2: 1, b: -1}, GE, 0)
		return p
	}
	f := build().buildSparseForm(NewArena())
	if len(f.uvTheta) != 2 {
		t.Fatalf("merged %d θ pairs, want 2", len(f.uvTheta))
	}
	if f.m != 3 {
		t.Fatalf("form has %d rows, want 3 (anchor + 2 merged)", f.m)
	}
	sd, errD, _ := solveWith(build, EngineDense)
	ss, errS, _ := solveWith(build, EngineSparse)
	if errD != nil || errS != nil {
		t.Fatalf("dense err=%v sparse err=%v", errD, errS)
	}
	// With a = 0: t1 ≥ |b − 3|, t2 ≥ |b|, cost 2t1 + 3t2. On b ∈ [0,3]
	// the cost is 2(3−b) + 3b = 6 + b, so b = 0 wins with objective 6.
	if !almost(sd.Objective, 6) || !almost(ss.Objective, 6) {
		t.Fatalf("objectives dense=%g sparse=%g, want 6", sd.Objective, ss.Objective)
	}
	for v := VarID(0); v < 4; v++ {
		if !almost(sd.Value(v), ss.Value(v)) {
			t.Errorf("var %d: dense %g sparse %g", v, sd.Value(v), ss.Value(v))
		}
	}
}
