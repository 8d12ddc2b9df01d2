package align

import (
	"math"

	"repro/internal/lp"
	"repro/internal/netflow"
)

// This file is the tier-A fast path of the offset LP engine: an offset
// RLP whose every edge term couples at most two port offsets with unit
// (or uniformly scaled) coefficients and no per-LIV unknowns is, after
// contracting its hard equalities, the LP dual of a min-cost
// circulation, and netflow.SolvePotentials solves it exactly in integer
// arithmetic — no simplex at all. The bridge lives here rather than in
// internal/lp because internal/netflow already imports internal/lp (for
// its min-cut LP oracle), so the dependency must point this way.
//
// The path is self-certifying end to end: lp.NetworkForm only accepts
// problems whose LP optimum provably coincides with the flow dual, the
// contraction bails out on any non-integral displacement or
// contradictory equality, and SolvePotentials verifies strong duality
// before reporting success. Every bail-out falls back transparently to
// the rest of the offset route (axislp.go: the presolved blocks, else
// the simplex), so callers never observe the tier split — only the
// effort counters (lp.Stats.NetSolves/Augments) do.

// netEps bounds the float slop tolerated when checking that a
// contracted displacement is integral (the flow solver works in exact
// integer arithmetic) and that redundant equalities agree.
const netEps = 1e-9

// solveNetForm solves a problem already classified as network-shaped.
// The NetForm may be cached across warm rounds (the classification is
// purely structural); costs are re-read from p at every call so §6
// replication rounds that only touch θ costs stay on the fast path.
func solveNetForm(p *lp.Problem, nf *lp.NetForm, st *lp.Stats) (*lp.Solution, bool) {
	nv := p.NumVariables()
	// Contract the hard equalities with a weighted union-find:
	// x_v = y[root(v)] + off[v]. The virtual ground variable (index nv)
	// represents the absolute origin, so pins x_v = C become
	// x_v − x_ground = C and single-variable θ terms reference ground.
	ground := nv
	parent := make([]int, nv+1)
	off := make([]float64, nv+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) (int, float64)
	find = func(v int) (int, float64) {
		if parent[v] == v {
			return v, 0
		}
		r, o := find(parent[v])
		parent[v] = r
		off[v] += o
		return r, off[v]
	}
	// merge imposes x_a − x_b = d; false means the chain is
	// contradictory (the LP is infeasible — let the simplex report it
	// with its proper error) or redundant with a conflicting constant.
	merge := func(a, b int, d float64) bool {
		ra, oa := find(a)
		rb, ob := find(b)
		if ra == rb {
			return math.Abs((oa-ob)-d) <= netEps
		}
		parent[ra] = rb
		off[ra] = d - oa + ob
		return true
	}
	for _, e := range nf.Eqs {
		if !merge(int(e.A), int(e.B), e.D) {
			return nil, false
		}
	}
	for _, pin := range nf.Pins {
		if !merge(int(pin.V), ground, pin.C) {
			return nil, false
		}
	}

	// Map the contracted roots that appear in θ terms to flow nodes, in
	// first-use order so the flow instance — and with it the chosen
	// optimum — is deterministic. Ground is always a node: the post-solve
	// shift pins its potential so pinned variables land exactly on their
	// constants.
	node := make(map[int]int)
	var order []int
	nodeOf := func(r int) int {
		if idx, ok := node[r]; ok {
			return idx
		}
		idx := len(order)
		node[r] = idx
		order = append(order, r)
		return idx
	}
	gRoot, gOff := find(ground)
	gNode := nodeOf(gRoot)

	// termArc records how θ term i maps onto the flow instance:
	// span_i = A·(y[u] − y[v]) + k when u ≥ 0, or the constant k when the
	// endpoints contracted together (u = v = -1).
	type termArc struct {
		u, v int
		k    float64
	}
	arcs := make([]termArc, len(nf.Terms))
	var dterms []netflow.DiffTerm
	for i, t := range nf.Terms {
		u, v := ground, ground
		if t.U >= 0 {
			u = int(t.U)
		}
		if t.V >= 0 {
			v = int(t.V)
		}
		ru, ou := find(u)
		rv, ov := find(v)
		k := t.A*(ou-ov) - t.R
		if ru == rv {
			arcs[i] = termArc{u: -1, v: -1, k: k}
			continue
		}
		// |A(y_u − y_v) + k| = |A|·|y_u − y_v + k/A|; the flow model
		// needs the displacement k/A integral.
		d := k / t.A
		dr := math.Round(d)
		if math.Abs(d-dr) > netEps {
			return nil, false
		}
		w := p.Cost(t.Theta) * math.Abs(t.A)
		un, vn := nodeOf(ru), nodeOf(rv)
		arcs[i] = termArc{u: un, v: vn, k: k}
		dterms = append(dterms, netflow.DiffTerm{U: un, V: vn, W: w, D: int64(dr)})
	}

	y, _, aug, ok := netflow.SolvePotentialsCounted(len(order), dterms)
	if !ok {
		return nil, false
	}

	// The flow objective is translation-invariant per connected
	// component, so shifting ground's component to put ground at its
	// pinned origin (x_ground = 0) preserves optimality while making
	// every pin exact. Components never touched by a term keep their SSP
	// potentials (zero), matching the anchor convention of buildRLP.
	comp := make([]int, len(order))
	for i := range comp {
		comp[i] = i
	}
	var cfind func(int) int
	cfind = func(v int) int {
		if comp[v] == v {
			return v
		}
		comp[v] = cfind(comp[v])
		return comp[v]
	}
	for _, t := range dterms {
		comp[cfind(t.U)] = cfind(t.V)
	}
	gComp := cfind(gNode)
	shift := -gOff - float64(y[gNode])

	values := make([]float64, nv)
	nodePot := func(idx int) float64 {
		base := float64(y[idx])
		if cfind(idx) == gComp {
			base += shift
		}
		return base
	}
	potential := func(r int) float64 {
		idx, ok := node[r]
		if !ok {
			return 0
		}
		return nodePot(idx)
	}
	isTheta := make([]bool, nv)
	for _, t := range nf.Terms {
		isTheta[t.Theta] = true
	}
	for v := 0; v < nv; v++ {
		if isTheta[v] {
			continue
		}
		r, o := find(v)
		values[v] = potential(r) + o
	}
	// θ sits at its lower bound |span| (the minimal feasible value); the
	// spans are re-evaluated from the final potentials so hard-constraint
	// feasibility is exact by construction.
	var objective float64
	for i, t := range nf.Terms {
		a := arcs[i]
		span := a.k
		if a.u >= 0 {
			span += t.A * (nodePot(a.u) - nodePot(a.v))
		}
		if span < 0 {
			span = -span
		}
		values[t.Theta] = span
		objective += p.Cost(t.Theta) * span
	}
	if st != nil {
		st.NetSolves++
		st.Augments += aug
	}
	return lp.NewSolution(objective, values), true
}
