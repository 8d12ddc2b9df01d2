package lp

import (
	"math"
	"sort"
)

// presolveEq eliminates equality constraints by Gauss-Jordan substitution
// over free variables. Alignment LPs consist of long chains of equality
// node constraints over free offset coefficients plus |·| inequalities on
// θ variables; eliminating the chains up front leaves a small, well-
// conditioned inequality problem for the simplex and removes the massive
// degeneracy the chains would otherwise induce.
//
// It returns the reduced problem, plus a recovery function mapping the
// reduced solution values back to the original variables.
type presolved struct {
	reduced *Problem
	// varMap[origVar] = reduced VarID, or -1 if eliminated.
	varMap []int
	// subs holds, per eliminated original variable, its expression
	// rhs + Σ coef·origVar over non-eliminated original variables.
	subs map[int]subExpr
	// order records elimination order for back-substitution.
	order []int
	// infeasible is set when an equality row reduces to 0 = c ≠ 0.
	infeasible bool
}

type subExpr struct {
	rhs   float64
	coefs map[int]float64 // over original variable indices
}

func presolveEq(p *Problem) *presolved {
	n := len(p.names)
	// Dense copies of the equality rows over original variables.
	type eqRow struct {
		coefs map[int]float64
		rhs   float64
	}
	var eqs []eqRow
	var ineqs []constraint
	for _, c := range p.cons {
		if c.op == EQ {
			row := eqRow{coefs: map[int]float64{}, rhs: c.rhs}
			for v, co := range c.coefs {
				row.coefs[int(v)] += co
			}
			eqs = append(eqs, row)
		} else {
			ineqs = append(ineqs, c)
		}
	}

	ps := &presolved{subs: map[int]subExpr{}}
	eliminated := make([]bool, n)

	for _, row := range eqs {
		// Substitute already-eliminated variables into this row. Snapshot
		// the keys first: substitution expressions reference only
		// surviving variables, so one pass suffices.
		var elim []int
		for v := range row.coefs {
			if _, ok := ps.subs[v]; ok {
				elim = append(elim, v)
			}
		}
		sort.Ints(elim)
		for _, v := range elim {
			co := row.coefs[v]
			s := ps.subs[v]
			delete(row.coefs, v)
			if co == 0 {
				continue
			}
			row.rhs -= co * s.rhs
			for w, cw := range s.coefs {
				row.coefs[w] += co * cw
			}
		}
		// Pick the free variable with the largest coefficient as pivot;
		// ties break toward the smallest variable index so the reduced
		// problem — and hence which of several degenerate optima the
		// simplex lands on — is deterministic (map iteration order is
		// randomized per range statement).
		piv, pivCo := -1, 0.0
		rowMax := 0.0
		for v, co := range row.coefs {
			if math.Abs(co) > rowMax {
				rowMax = math.Abs(co)
			}
			if !p.free[v] || eliminated[v] || co == 0 {
				continue
			}
			if math.Abs(co) > math.Abs(pivCo) || (math.Abs(co) == math.Abs(pivCo) && v < piv) {
				piv, pivCo = v, co
			}
		}
		if rowMax < 1e-12 {
			if math.Abs(row.rhs) > 1e-7 {
				ps.infeasible = true
				return ps
			}
			continue // redundant row
		}
		if piv < 0 || math.Abs(pivCo) < 1e-9*rowMax {
			// No usable free pivot: keep as an equality for the simplex.
			m := map[VarID]float64{}
			for v, co := range row.coefs {
				if co != 0 {
					m[VarID(v)] = co
				}
			}
			ineqs = append(ineqs, constraint{coefs: m, op: EQ, rhs: row.rhs})
			continue
		}
		// x_piv = (rhs - Σ_{v≠piv} co_v x_v) / pivCo
		s := subExpr{rhs: row.rhs / pivCo, coefs: map[int]float64{}}
		for v, co := range row.coefs {
			if v == piv || co == 0 {
				continue
			}
			s.coefs[v] = -co / pivCo
		}
		// Normalize s over previously eliminated vars (none remain: we
		// substituted them above) and update existing substitutions that
		// reference piv.
		for ev, es := range ps.subs {
			if co, ok := es.coefs[piv]; ok && co != 0 {
				delete(es.coefs, piv)
				es.rhs += co * s.rhs
				for w, cw := range s.coefs {
					es.coefs[w] += co * cw
				}
				ps.subs[ev] = es
			}
		}
		ps.subs[piv] = s
		eliminated[piv] = true
		ps.order = append(ps.order, piv)
	}

	// Build the reduced problem.
	red := NewProblem()
	ps.varMap = make([]int, n)
	for v := 0; v < n; v++ {
		if eliminated[v] {
			ps.varMap[v] = -1
		} else {
			ps.varMap[v] = int(red.AddVariable(p.names[v], 0, p.free[v]))
		}
	}
	// Objective: substitute eliminated variables.
	objConst := 0.0
	objCoefs := make([]float64, n)
	for v := 0; v < n; v++ {
		if p.costs[v] == 0 {
			continue
		}
		if s, ok := ps.subs[v]; ok {
			objConst += p.costs[v] * s.rhs
			for w, cw := range s.coefs {
				objCoefs[w] += p.costs[v] * cw
			}
		} else {
			objCoefs[v] += p.costs[v]
		}
	}
	_ = objConst // constant shift does not affect the argmin
	for v := 0; v < n; v++ {
		if ps.varMap[v] >= 0 {
			red.costs[ps.varMap[v]] = objCoefs[v]
		}
	}
	// Inequalities (and kept equalities): substitute.
	for _, c := range ineqs {
		coefs := map[int]float64{}
		rhs := c.rhs
		keys := make([]int, 0, len(c.coefs))
		for v := range c.coefs {
			keys = append(keys, int(v))
		}
		sort.Ints(keys)
		for _, vi := range keys {
			co := c.coefs[VarID(vi)]
			if s, ok := ps.subs[vi]; ok {
				rhs -= co * s.rhs
				for w, cw := range s.coefs {
					coefs[w] += co * cw
				}
			} else {
				coefs[vi] += co
			}
		}
		m := map[VarID]float64{}
		for v, co := range coefs {
			if math.Abs(co) > 1e-12 {
				m[VarID(ps.varMap[v])] = co
			}
		}
		red.cons = append(red.cons, constraint{coefs: m, op: c.op, rhs: rhs})
	}
	ps.reduced = red
	return ps
}

// recover maps a reduced solution back to original variable values.
func (ps *presolved) recover(p *Problem, sol *Solution) *Solution {
	n := len(p.names)
	values := make([]float64, n)
	for v := 0; v < n; v++ {
		if ps.varMap[v] >= 0 {
			values[v] = sol.Value(VarID(ps.varMap[v]))
		}
	}
	for v, s := range ps.subs {
		x := s.rhs
		for w, cw := range s.coefs {
			// After presolve, substitution expressions reference only
			// non-eliminated variables.
			x += cw * values[w]
		}
		values[v] = x
	}
	obj := 0.0
	for v, x := range values {
		obj += p.costs[v] * x
	}
	return &Solution{Objective: obj, values: values}
}
