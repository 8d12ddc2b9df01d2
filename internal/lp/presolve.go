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
// It returns the reduced problem, plus what recover needs to map the
// reduced solution values back to the original variables.
type presolved struct {
	reduced *Problem
	// varMap[origVar] = reduced VarID, or -1 if eliminated.
	varMap []int
	// subs[v] is eliminated variable v's expression over non-eliminated
	// original variables (unused for the others).
	subs []subExpr
	// order records elimination order for back-substitution.
	order []int
	// infeasible is set when an equality row reduces to 0 = c ≠ 0.
	infeasible bool
}

// subExpr is x = rhs + Σ terms[k].a·x_{terms[k].v}, terms ascending by v.
type subExpr struct {
	rhs   float64
	terms []ent
}

// rowAcc accumulates one row over the original variables: a dense value
// per variable plus the list of variables touched, so clearing and
// iterating cost the row's size rather than the problem's.
type rowAcc struct {
	val     []float64
	mark    []bool
	touched []int
}

func (r *rowAcc) add(v int, x float64) {
	if !r.mark[v] {
		r.mark[v] = true
		r.touched = append(r.touched, v)
	}
	r.val[v] += x
}

func (r *rowAcc) clear() {
	for _, v := range r.touched {
		r.val[v], r.mark[v] = 0, false
	}
	r.touched = r.touched[:0]
}

func presolveEq(p *Problem) *presolved {
	n := len(p.costs)
	var ineqs []constraint
	for _, c := range p.cons {
		if c.op != EQ {
			ineqs = append(ineqs, c)
		}
	}

	ps := &presolved{subs: make([]subExpr, n)}
	eliminated := make([]bool, n)
	row := rowAcc{val: make([]float64, n), mark: make([]bool, n)}
	var elim []int

	for _, c := range p.cons {
		if c.op != EQ {
			continue
		}
		rhs := c.rhs
		for _, e := range c.ents {
			row.add(e.v, e.a)
		}
		// Substitute already-eliminated variables into this row, in
		// ascending order. Snapshot them first: substitution expressions
		// reference only surviving variables, so one pass suffices.
		elim = elim[:0]
		for _, v := range row.touched {
			if eliminated[v] {
				elim = append(elim, v)
			}
		}
		sort.Ints(elim)
		for _, v := range elim {
			co := row.val[v]
			row.val[v] = 0
			if co == 0 {
				continue
			}
			s := &ps.subs[v]
			rhs -= co * s.rhs
			for _, t := range s.terms {
				row.add(t.v, co*t.a)
			}
		}
		// Pick the free variable with the largest coefficient as pivot;
		// ties break toward the smallest variable index so the reduced
		// problem — and hence which of several degenerate optima the
		// simplex lands on — is deterministic.
		piv, pivCo := -1, 0.0
		rowMax := 0.0
		for _, v := range row.touched {
			co := row.val[v]
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
			row.clear()
			if math.Abs(rhs) > 1e-7 {
				ps.infeasible = true
				return ps
			}
			continue // redundant row
		}
		if piv < 0 || math.Abs(pivCo) < 1e-9*rowMax {
			// No usable free pivot: keep as an equality for the simplex.
			sort.Ints(row.touched)
			es := make([]ent, 0, len(row.touched))
			for _, v := range row.touched {
				if co := row.val[v]; co != 0 {
					es = append(es, ent{v: v, a: co})
				}
			}
			ineqs = append(ineqs, constraint{ents: es, op: EQ, rhs: rhs})
			row.clear()
			continue
		}
		// x_piv = (rhs - Σ_{v≠piv} co_v x_v) / pivCo
		sort.Ints(row.touched)
		s := subExpr{rhs: rhs / pivCo, terms: make([]ent, 0, len(row.touched)-1)}
		for _, v := range row.touched {
			if co := row.val[v]; v != piv && co != 0 {
				s.terms = append(s.terms, ent{v: v, a: -co / pivCo})
			}
		}
		row.clear()
		// Update the earlier substitutions that reference piv.
		for _, ev := range ps.order {
			es := &ps.subs[ev]
			k := sort.Search(len(es.terms), func(k int) bool { return es.terms[k].v >= piv })
			if k == len(es.terms) || es.terms[k].v != piv || es.terms[k].a == 0 {
				continue
			}
			co := es.terms[k].a
			es.rhs += co * s.rhs
			es.terms = mergeScaled(es.terms, k, co, s.terms)
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
			ps.varMap[v] = int(red.AddVariable(0, p.free[v]))
		}
	}
	// Objective: substitute eliminated variables (the constant shift
	// does not affect the argmin).
	objCoefs := make([]float64, n)
	for v := 0; v < n; v++ {
		if p.costs[v] == 0 {
			continue
		}
		if eliminated[v] {
			for _, t := range ps.subs[v].terms {
				objCoefs[t.v] += p.costs[v] * t.a
			}
		} else {
			objCoefs[v] += p.costs[v]
		}
	}
	for v := 0; v < n; v++ {
		if ps.varMap[v] >= 0 {
			red.costs[ps.varMap[v]] = objCoefs[v]
		}
	}
	// Inequalities (and kept equalities): substitute, variables in
	// ascending order. varMap is increasing, so renumbered entries of a
	// sorted row stay sorted.
	red.cons = make([]constraint, 0, len(ineqs))
	for _, c := range ineqs {
		rhs := c.rhs
		for _, e := range c.ents {
			if eliminated[e.v] {
				s := &ps.subs[e.v]
				rhs -= e.a * s.rhs
				for _, t := range s.terms {
					row.add(t.v, e.a*t.a)
				}
			} else {
				row.add(e.v, e.a)
			}
		}
		sort.Ints(row.touched)
		es := make([]ent, 0, len(row.touched))
		for _, v := range row.touched {
			if co := row.val[v]; math.Abs(co) > 1e-12 {
				es = append(es, ent{v: ps.varMap[v], a: co})
			}
		}
		row.clear()
		red.cons = append(red.cons, constraint{ents: es, op: c.op, rhs: rhs})
	}
	ps.reduced = red
	return ps
}

// mergeScaled returns the ascending term list base, without its term
// at index skip, plus co·add: a variable in both lists gets base's
// coefficient plus co times add's.
func mergeScaled(base []ent, skip int, co float64, add []ent) []ent {
	out := make([]ent, 0, len(base)-1+len(add))
	i, j := 0, 0
	for i < len(base) || j < len(add) {
		switch {
		case i == skip:
			i++
		case j == len(add) || (i < len(base) && base[i].v < add[j].v):
			out = append(out, base[i])
			i++
		case i == len(base) || add[j].v < base[i].v:
			out = append(out, ent{v: add[j].v, a: co * add[j].a})
			j++
		default:
			out = append(out, ent{v: base[i].v, a: base[i].a + co*add[j].a})
			i++
			j++
		}
	}
	return out
}

// recover maps a reduced solution back to original variable values.
func (ps *presolved) recover(p *Problem, sol *Solution) *Solution {
	n := len(p.costs)
	values := make([]float64, n)
	for v := 0; v < n; v++ {
		if ps.varMap[v] >= 0 {
			values[v] = sol.Value(VarID(ps.varMap[v]))
		}
	}
	for _, v := range ps.order {
		s := &ps.subs[v]
		x := s.rhs
		for _, t := range s.terms {
			// After presolve, substitution expressions reference only
			// non-eliminated variables.
			x += t.a * values[t.v]
		}
		values[v] = x
	}
	obj := 0.0
	for v, x := range values {
		obj += p.costs[v] * x
	}
	return &Solution{Objective: obj, values: values}
}
