package align

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// Four-way differential property test for the offset LP engine tiers:
// the dense tableau, the sparse revised simplex, the network-dual
// fast path, and the presolved block decomposition must agree —
// identical feasibility verdicts, objectives within 1e-6, and
// primal-feasible solutions (lp.Problem.Residual; for the presolved
// leg the residual is taken on the *original* problem, so Postsolve's
// reconstruction of eliminated variables is itself under test) — on
// randomly generated RLP-shaped problems. The generator emits the
// same row shapes buildRLP does (θ pairs over port-offset differences,
// difference equalities, anchor pins), plus deliberately non-network
// and infeasible variants so the fallback and error paths are exercised
// under the same lens. CI runs this under -race (scripts/ci.sh).

// diffShape selects the structural family of a generated problem.
type diffShape int

const (
	shapeNetwork    diffShape = iota // network-pure: the fast path must fire
	shapeFallback                    // a 3-var equality defeats classification
	shapeInfeasible                  // contradictory equality chain
)

// diffSpec is a recorded random problem so the identical instance can
// be rebuilt once per engine (Solve mutates warm state, and each build
// must see its own Options).
type diffSpec struct {
	shape diffShape
	n     int   // node variables x0..x{n-1}, free, cost 0
	gt    []int // ground-truth witness making the instance feasible

	pins  []diffPin
	eqs   []diffEq
	terms []diffTerm
	tris  []diffTri // 3-var equalities (shapeFallback only)
}

type diffPin struct {
	v lp.VarID
	a float64 // a·x_v = a·gt[v]
}

type diffEq struct {
	a, b lp.VarID
	c    float64 // c·x_a − c·x_b = c·(gt[a] − gt[b]) (+3 when infeasible)
	bad  bool
}

// diffTerm encodes θ ≥ |A·(x_u − x_v) − R| as the adjacent GE pair
// buildRLP emits; v < 0 means a single-variable term.
type diffTerm struct {
	u, v lp.VarID
	av   float64 // A
	r    float64 // R = A·D with D integral, so the flow path accepts it
	w    float64 // θ cost
}

type diffTri struct {
	a, b, c lp.VarID
}

func genDiffSpec(rng *rand.Rand, shape diffShape) diffSpec {
	n := 3 + rng.Intn(10)
	sp := diffSpec{shape: shape, n: n, gt: make([]int, n)}
	for i := range sp.gt {
		sp.gt[i] = rng.Intn(17) - 8
	}
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.25 {
			sp.pins = append(sp.pins, diffPin{v: lp.VarID(v), a: float64(1 + rng.Intn(2))})
		}
	}
	for k := rng.Intn(n); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		sp.eqs = append(sp.eqs, diffEq{a: lp.VarID(a), b: lp.VarID(b), c: float64(1 + rng.Intn(2))})
	}
	if shape == shapeInfeasible {
		// A contradictory cycle: two equalities on the same pair whose
		// displacements differ. The network contraction declines it and
		// both simplex cores must report infeasibility.
		a, b := lp.VarID(0), lp.VarID(1)
		sp.eqs = append(sp.eqs,
			diffEq{a: a, b: b, c: 1},
			diffEq{a: a, b: b, c: 1, bad: true})
	}
	nt := 3 + rng.Intn(12)
	for k := 0; k < nt; k++ {
		t := diffTerm{
			u:  lp.VarID(rng.Intn(n)),
			v:  -1,
			av: float64(int(1) << rng.Intn(3)), // 1, 2, 4
			w:  float64(1 + rng.Intn(5)),
		}
		if rng.Float64() < 0.8 {
			v := lp.VarID(rng.Intn(n))
			if v != t.u {
				t.v = v
			}
		}
		t.r = t.av * float64(rng.Intn(13)-6) // R = A·D, D integral
		sp.terms = append(sp.terms, t)
	}
	if shape == shapeFallback && n >= 3 {
		// Pin-folding would legitimately reduce the 3-var row to network
		// shape if its variables were pinned, so keep x0..x2 unpinned.
		kept := sp.pins[:0]
		for _, pin := range sp.pins {
			if pin.v > 2 {
				kept = append(kept, pin)
			}
		}
		sp.pins = kept
		sp.tris = append(sp.tris, diffTri{a: 0, b: 1, c: 2})
	}
	return sp
}

// build materializes the spec as a fresh lp.Problem.
func (sp diffSpec) build() *lp.Problem {
	p := lp.NewProblem()
	for i := 0; i < sp.n; i++ {
		p.AddVariable(0, true)
	}
	for _, t := range sp.terms {
		th := p.AddVariable(t.w, false)
		pos := map[lp.VarID]float64{th: 1, t.u: -t.av}
		neg := map[lp.VarID]float64{th: 1, t.u: t.av}
		if t.v >= 0 {
			pos[t.v] = t.av
			neg[t.v] = -t.av
		}
		p.AddConstraint(pos, lp.GE, -t.r) // θ − A(x_u − x_v) ≥ −R
		p.AddConstraint(neg, lp.GE, t.r)  // θ + A(x_u − x_v) ≥ R
	}
	for _, pin := range sp.pins {
		p.AddConstraint(map[lp.VarID]float64{pin.v: pin.a}, lp.EQ, pin.a*float64(sp.gt[pin.v]))
	}
	for _, e := range sp.eqs {
		rhs := e.c * float64(sp.gt[e.a]-sp.gt[e.b])
		if e.bad {
			rhs += 3 * e.c
		}
		p.AddConstraint(map[lp.VarID]float64{e.a: e.c, e.b: -e.c}, lp.EQ, rhs)
	}
	for _, tr := range sp.tris {
		rhs := float64(sp.gt[tr.a] + sp.gt[tr.b] - 2*sp.gt[tr.c])
		p.AddConstraint(map[lp.VarID]float64{tr.a: 1, tr.b: 1, tr.c: -2}, lp.EQ, rhs)
	}
	return p
}

// TestDifferentialEngines is the acceptance property of ISSUE 5
// (extended by ISSUE 8 with the presolved leg): on ~200 random RLPs
// the four tiers agree on feasibility, objective (1e-6), and each
// produced solution is primal feasible.
func TestDifferentialEngines(t *testing.T) {
	const cases = 200
	rng := rand.New(rand.NewSource(20260806))
	var netFired, netPure, fellBack, infeasible, presolved int
	for i := 0; i < cases; i++ {
		shape := shapeNetwork
		switch {
		case i%5 == 3:
			shape = shapeFallback
		case i%10 == 9:
			shape = shapeInfeasible
		}
		sp := genDiffSpec(rng, shape)

		dp := sp.build()
		dp.SetOptions(lp.Options{Engine: lp.EngineDense})
		dsol, derr := dp.Solve()

		spp := sp.build()
		spp.SetOptions(lp.Options{Engine: lp.EngineSparse})
		ssol, serr := spp.Solve()

		if (derr == nil) != (serr == nil) {
			t.Fatalf("case %d (shape %d): feasibility verdicts differ: dense err=%v sparse err=%v",
				i, shape, derr, serr)
		}

		np := sp.build()
		var nsol *lp.Solution
		nf, nok := np.NetworkForm()
		if nok {
			nsol, nok = solveNetForm(np, nf, &lp.Stats{})
		}

		// Presolved leg: Reduce + per-block solve + Postsolve, driven
		// through the offset solver's own route (axisLP) past its size
		// floor; split settles the route, so run solves the blocks even
		// where the whole problem is network-shaped. A nil arena is
		// fine: each block then allocates its own tableau.
		pp := sp.build()
		pax := &axisSolver{opts: OffsetOptions{}, stats: &lp.Stats{}}
		pl := &axisLP{prob: pp}
		pl.split(pax)
		pok := pl.red != nil
		var psol *lp.Solution
		var perr error
		if pok {
			psol, perr = pl.run(pax)
		}

		if derr != nil {
			if shape != shapeInfeasible {
				t.Fatalf("case %d (shape %d): unexpected infeasibility: %v", i, shape, derr)
			}
			if nok {
				t.Fatalf("case %d: network path claimed success on an infeasible problem", i)
			}
			if pok && perr == nil {
				t.Fatalf("case %d: presolved path claimed success on an infeasible problem", i)
			}
			infeasible++
			continue
		}
		if perr != nil {
			t.Fatalf("case %d (shape %d): presolved path failed on a feasible problem: %v", i, shape, perr)
		}

		tol := 1e-6 * (1 + math.Abs(dsol.Objective))
		if d := math.Abs(dsol.Objective - ssol.Objective); d > tol {
			t.Fatalf("case %d (shape %d): dense obj %.9g vs sparse obj %.9g (Δ=%g)",
				i, shape, dsol.Objective, ssol.Objective, d)
		}
		if r := dp.Residual(dsol.Values()); r > 1e-6 {
			t.Fatalf("case %d: dense solution infeasible, residual %g", i, r)
		}
		if r := spp.Residual(ssol.Values()); r > 1e-6 {
			t.Fatalf("case %d: sparse solution infeasible, residual %g", i, r)
		}
		if pok {
			if pax.stats.Blocks != len(pl.blocks) {
				t.Fatalf("case %d (shape %d): presolved leg solved %d of %d blocks",
					i, shape, pax.stats.Blocks, len(pl.blocks))
			}
			presolved++
			if d := math.Abs(psol.Objective - dsol.Objective); d > tol {
				t.Fatalf("case %d (shape %d): presolved obj %.9g vs dense obj %.9g (Δ=%g)",
					i, shape, psol.Objective, dsol.Objective, d)
			}
			if r := pp.Residual(psol.Values()); r > 1e-6 {
				t.Fatalf("case %d: postsolved solution infeasible on the original problem, residual %g", i, r)
			}
		}

		switch shape {
		case shapeNetwork:
			netPure++
			if !nok {
				t.Fatalf("case %d: network-pure problem did not take the fast path", i)
			}
		case shapeFallback:
			fellBack++
			if nok {
				t.Fatalf("case %d: fallback-shaped problem classified as a network", i)
			}
		}
		if nok {
			netFired++
			if d := math.Abs(nsol.Objective - dsol.Objective); d > tol {
				t.Fatalf("case %d: network obj %.9g vs dense obj %.9g (Δ=%g)",
					i, nsol.Objective, dsol.Objective, d)
			}
			if r := np.Residual(nsol.Values()); r > 1e-6 {
				t.Fatalf("case %d: network solution infeasible, residual %g", i, r)
			}
		}
	}
	if netPure == 0 || fellBack == 0 || infeasible == 0 {
		t.Fatalf("generator imbalance: pure=%d fallback=%d infeasible=%d", netPure, fellBack, infeasible)
	}
	if netFired < netPure {
		t.Fatalf("fast path fired on %d of %d network-pure cases", netFired, netPure)
	}
	if presolved < cases/4 {
		t.Fatalf("presolve reduced only %d of %d feasible cases — generator or Reduce regressed", presolved, cases)
	}
	t.Logf("differential: %d cases, %d network-solved, %d presolved, %d fallback, %d infeasible",
		cases, netFired, presolved, fellBack, infeasible)
}
