package lp

// This file recognizes network-structured problems: LPs whose every
// constraint is a difference equality, a pin, or an absolute-difference
// θ pair. Such problems are the LP dual of a min-cost circulation and
// can be solved exactly by a combinatorial flow algorithm
// (internal/netflow.SolvePotentials) without running the simplex at
// all. The offset RLPs of programs with no loop-variable coefficients
// (§4.1 with every port space concrete and LIV-free) have exactly this
// shape. Detection is purely structural, so callers can probe any
// Problem and fall back to Solve when it fails.

// NetPin fixes x_V = C (a single-variable equality row).
type NetPin struct {
	V VarID
	C float64
}

// NetEq couples x_A − x_B = D (a two-variable equality row with
// opposite coefficients).
type NetEq struct {
	A, B VarID
	D    float64
}

// NetTerm is an adjacent GE row pair encoding θ ≥ |A·(x_U − x_V) − R|.
// V = -1 means the term references a single variable (x_V reads as 0);
// U = V = -1 is the constant term θ ≥ |R|.
type NetTerm struct {
	Theta VarID
	U, V  VarID
	A, R  float64
}

// NetForm is the network decomposition of a problem: every constraint
// classified as a pin, a difference equality, or a θ term, in original
// constraint order.
type NetForm struct {
	Pins  []NetPin
	Eqs   []NetEq
	Terms []NetTerm
}

// NetworkForm classifies the problem's constraints into NetForm.
// It returns ok = false — and the problem must be solved by the
// simplex — unless, after folding pinned variables (see below), all of
// the following hold:
//
//   - every constraint is a single- or two-variable equality (with
//     exactly opposite coefficients in the two-variable case), or half
//     of an adjacent θ pair: two GE rows with negated right-hand sides
//     whose coefficients are exact negations except for a shared
//     variable θ with coefficient 1 in both;
//   - each θ is nonnegative, carries a nonnegative cost, and appears in
//     no other constraint; its pair couples at most two other variables
//     with exactly opposite coefficients;
//   - every non-θ variable that appears in a constraint is free, and
//     every non-θ variable has cost zero (all objective weight rides on
//     the θs).
//
// A variable fixed by a single-variable equality row is a pin; pinned
// variables are folded out of every other row (their contribution moves
// to the right-hand side) before classification. Folding is what makes
// static-mode offset RLPs recognizable: they pin each loop-variable
// coefficient to zero with a one-variable row, and without the fold
// those coefficients would keep every node and θ row above two
// variables.
//
// Under these conditions the optimum is Σ cost(θ)·|A(x_U − x_V) − R|
// minimized over the equality-constrained potentials x — the dual of a
// min-cost circulation.
func (p *Problem) NetworkForm() (*NetForm, bool) {
	nv := len(p.costs)
	// Pass 1: collect pins. Conflicting pins mean the problem is
	// infeasible — leave that diagnosis to the simplex.
	pinned := make([]bool, nv)
	pinVal := make([]float64, nv)
	for _, c := range p.cons {
		if c.op != EQ || len(c.ents) != 1 {
			continue
		}
		for _, e := range c.ents {
			v, a := e.v, e.a
			val := c.rhs / a
			if pinned[v] && pinVal[v] != val {
				return nil, false
			}
			pinned[v], pinVal[v] = true, val
		}
	}
	// Width prefilter: a classifiable row has at most 3 unpinned
	// entries (θ plus a difference) when GE, at most 2 when EQ, and LE
	// rows never classify. Rejecting on a bare count — before the
	// folded per-row views below are allocated and sorted — makes the
	// common failing probe (a mobile RLP whose θ rows couple two
	// (c0, ck) pairs) cost one map scan instead of a full build.
	for i := range p.cons {
		c := &p.cons[i]
		if c.op == LE {
			return nil, false
		}
		if c.op == EQ && len(c.ents) == 1 {
			continue // pin row
		}
		unpinned := 0
		for _, e := range c.ents {
			if !pinned[e.v] {
				unpinned++
			}
		}
		if (c.op == EQ && unpinned > 2) || (c.op == GE && unpinned > 3) {
			return nil, false
		}
	}
	// Folded view of each constraint: pinned variables removed, their
	// contribution folded into the right-hand side. Entries stay sorted
	// by variable, as in the rows, for deterministic classification.
	type fent struct {
		v VarID
		a float64
	}
	fcoefs := make([][]fent, len(p.cons))
	frhs := make([]float64, len(p.cons))
	occ := make([]int, nv)
	for i := range p.cons {
		c := &p.cons[i]
		rhs := c.rhs
		es := make([]fent, 0, len(c.ents))
		for _, e := range c.ents {
			if pinned[e.v] && !(c.op == EQ && len(c.ents) == 1) {
				rhs -= e.a * pinVal[e.v]
				continue
			}
			es = append(es, fent{v: VarID(e.v), a: e.a})
		}
		fcoefs[i], frhs[i] = es, rhs
		for _, e := range es {
			occ[e.v]++
		}
	}
	coefOf := func(i int, v VarID) (float64, bool) {
		for _, e := range fcoefs[i] {
			if e.v == v {
				return e.a, true
			}
		}
		return 0, false
	}
	isTheta := make([]bool, nv)
	consumed := make([]bool, len(p.cons))
	nf := &NetForm{}
	for i := 0; i+1 < len(p.cons); i++ {
		if consumed[i] {
			continue
		}
		c0, c1 := &p.cons[i], &p.cons[i+1]
		if c0.op != GE || c1.op != GE || frhs[i] != -frhs[i+1] ||
			len(fcoefs[i]) != len(fcoefs[i+1]) {
			continue
		}
		theta := VarID(-1)
		for _, e := range fcoefs[i] {
			a1, ok := coefOf(i+1, e.v)
			if e.a == 1 && ok && a1 == 1 && occ[e.v] == 2 && !p.free[e.v] &&
				p.costs[e.v] >= 0 && theta < 0 {
				theta = e.v
			}
		}
		if theta < 0 {
			continue
		}
		rest := make([]VarID, 0, 2)
		anti := true
		for _, e := range fcoefs[i] {
			if e.v == theta {
				continue
			}
			if a1, ok := coefOf(i+1, e.v); !ok || a1 != -e.a {
				anti = false
				break
			}
			rest = append(rest, e.v)
		}
		if !anti || len(rest) > 2 {
			continue
		}
		term := NetTerm{Theta: theta, U: -1, V: -1, R: frhs[i], A: 1}
		switch len(rest) {
		case 1:
			term.U = rest[0]
			term.A, _ = coefOf(i, rest[0])
		case 2:
			a0, _ := coefOf(i, rest[0])
			a1, _ := coefOf(i, rest[1])
			if a1 != -a0 {
				continue // not a pure difference
			}
			term.U, term.V = rest[0], rest[1]
			term.A = a0
		}
		consumed[i], consumed[i+1] = true, true
		isTheta[theta] = true
		nf.Terms = append(nf.Terms, term)
	}
	for i := range p.cons {
		if consumed[i] {
			continue
		}
		if p.cons[i].op != EQ {
			return nil, false
		}
		es := fcoefs[i]
		switch len(es) {
		case 0:
			// A row folded away entirely must be trivially satisfied.
			if frhs[i] != 0 {
				return nil, false
			}
		case 1:
			nf.Pins = append(nf.Pins, NetPin{V: es[0].v, C: frhs[i] / es[0].a})
		case 2:
			if es[1].a != -es[0].a {
				return nil, false
			}
			nf.Eqs = append(nf.Eqs, NetEq{A: es[0].v, B: es[1].v, D: frhs[i] / es[0].a})
		default:
			return nil, false
		}
	}
	for v := 0; v < nv; v++ {
		if isTheta[v] {
			continue
		}
		if p.costs[v] != 0 {
			return nil, false // objective weight off the θs
		}
		if !p.free[v] && occ[v] > 0 {
			return nil, false // a sign bound the flow model would ignore
		}
	}
	return nf, true
}

// Cost returns the current objective cost of variable v (as set by
// AddVariable or the latest SetCost). External solvers re-read costs
// per solve so warm-started rounds see objective changes.
func (p *Problem) Cost(v VarID) float64 { return p.costs[v] }

// NewSolution wraps externally computed variable values (indexed by
// VarID) and an objective as a Solution, for solvers that bypass
// Solve — the network fast path. The slice is not copied.
func NewSolution(objective float64, values []float64) *Solution {
	return &Solution{Objective: objective, values: values}
}
