package align

import (
	"repro/internal/adg"
	"repro/internal/expr"
)

// nodeTable is one template axis's §2.2 node constraints compiled to
// integer rows Σ c·x[slot] = rhs over the coefLayout slots. It is the
// only derivation of those constraints: buildRLP emits its rows as the
// RLP's equality rows, holds checks an integer labeling against it, and
// move derives the state-space search's unit moves from it. An axis
// compiles its table once, when its solver is built.
type nodeTable struct {
	terms []tableTerm
	rows  []tableRow
	// nodes[id] is the first row of the node with that ID; its rows end
	// where the next node's begin.
	nodes []int32
}

// tableTerm is one c·x[slot] term of a row.
type tableTerm struct {
	slot int32
	c    int64
}

// tableRow is Σ terms[start:end] = rhs. abs indexes the term that
// absorbs the imbalance a unit move leaves on the row, or is -1 for a
// row no move rebalances (see move).
type tableRow struct {
	start, end, abs int32
	rhs             int64
}

// compileTable compiles the node constraints of the axis node by node
// (§2.2.2 and the node catalogue in DESIGN.md), each row's terms in the
// order the RLP creates their columns.
func (ax *axisSolver) compileTable() *nodeTable {
	tc := &tableCompiler{ax: ax, t: &nodeTable{nodes: make([]int32, len(ax.g.Nodes)+1)}}
	for _, n := range ax.g.Nodes {
		tc.t.nodes[n.ID] = int32(len(tc.t.rows))
		tc.node(n)
	}
	tc.t.nodes[len(ax.g.Nodes)] = int32(len(tc.t.rows))
	return tc.t
}

// tableCompiler appends one axis's rows to a nodeTable.
type tableCompiler struct {
	ax *axisSolver
	t  *nodeTable
}

// term appends a·(port's coefficient of livs[li]) to the pending row.
func (tc *tableCompiler) term(port, li int, a int64) {
	tc.t.terms = append(tc.t.terms, tableTerm{slot: int32(tc.ax.lay.slot(port, li)), c: a})
}

// emit closes the pending row with right-hand side rhs; abs is the
// position of its absorbing term within the row, or -1.
func (tc *tableCompiler) emit(rhs int64, abs int) {
	t := tc.t
	var start int32
	if len(t.rows) > 0 {
		start = t.rows[len(t.rows)-1].end
	}
	r := tableRow{start: start, end: int32(len(t.terms)), abs: -1, rhs: rhs}
	if abs >= 0 {
		r.abs = start + int32(abs)
	}
	t.rows = append(t.rows, r)
}

// eq compiles π_a = π_c + δ coefficient-wise over the common space: one
// row per coefficient, in a fixed order (constant term, then a's LIVs,
// then c's extras) so the constraint system — and with it which of
// several degenerate optima the simplex selects — is reproducible.
func (tc *tableCompiler) eq(a, c *adg.Port, delta expr.Affine) {
	lay := tc.ax.lay
	row := func(li int) {
		tc.term(a.ID, li, 1)
		tc.term(c.ID, li, -1)
		tc.emit(coefOf(delta, lay, li), -1)
	}
	row(-1)
	for _, li := range lay.portLivs[a.ID] {
		row(li)
	}
	for _, li := range lay.portLivs[c.ID] {
		if !lay.hasLiv(a.ID, li) {
			row(li)
		}
	}
}

// node compiles the linear offset constraints of one node.
func (tc *tableCompiler) node(n *adg.Node) {
	t := tc.ax.axis
	zero := expr.Const(0)
	switch n.Kind {
	case adg.KindOp, adg.KindMerge, adg.KindFanout, adg.KindBranch:
		ref := n.Out[0]
		for _, p := range n.In {
			tc.eq(p, ref, zero)
		}
		for _, p := range n.Out[1:] {
			tc.eq(p, ref, zero)
		}
	case adg.KindTranspose:
		tc.eq(n.Out[0], n.In[0], zero)
	case adg.KindSection:
		tc.section(n, n.In[0], n.Out[0])
	case adg.KindSectionAssign:
		tc.eq(n.Out[0], n.In[0], zero)
		tc.section(n, n.In[0], n.In[1])
	case adg.KindSpread:
		outLabel := tc.ax.as.Labels[n.Out[0].ID]
		spreadAxis := -1
		if n.SpreadDim-1 < len(outLabel.AxisMap) {
			spreadAxis = outLabel.AxisMap[n.SpreadDim-1]
		}
		if t != spreadAxis {
			tc.eq(n.Out[0], n.In[0], zero)
		}
	case adg.KindReduce:
		if n.ReduceDim == 0 {
			return // full reduction: scalar result unconstrained
		}
		inLabel := tc.ax.as.Labels[n.In[0].ID]
		redAxis := inLabel.AxisMap[n.ReduceDim-1]
		if t != redAxis {
			tc.eq(n.Out[0], n.In[0], zero)
		}
	case adg.KindXform:
		tc.xform(n)
	case adg.KindGather, adg.KindSource, adg.KindSink:
		// No offset constraints.
	}
}

// section compiles π_sec = π_whole + lo·stride (or index·stride) on
// the axis.
func (tc *tableCompiler) section(n *adg.Node, whole, sec *adg.Port) {
	t := tc.ax.axis
	label := tc.ax.as.Labels[whole.ID]
	// Find the whole-array body axis mapped to t.
	d := -1
	for dd, a := range label.AxisMap {
		if a == t {
			d = dd
			break
		}
	}
	if d < 0 {
		// Space axis of the whole array: positions equal.
		tc.eq(sec, whole, expr.Const(0))
		return
	}
	sub := n.Section.Subs[d]
	stride := label.Stride[d]
	var pos expr.Affine // subscript value anchoring the section's origin
	switch {
	case sub.IsVector:
		return // gathered axis: unconstrained
	case sub.IsRange:
		pos = sub.Lo
	default:
		pos = sub.Index
	}
	// δ = (pos - 1)·stride: array index pos sits at offset_whole +
	// (pos-1)·stride (Fortran 1-based indexing; the array origin is
	// element 1).
	delta, ok := mulAffine(pos.AddConst(-1), stride)
	if !ok {
		// Quadratic product (both mobile): conservatively force equality;
		// the edge will pay general communication via the stride phase.
		delta = expr.Const(0)
	}
	tc.eq(sec, whole, delta)
}

// coefOf returns a's coefficient of livs[li], or its constant term for
// li = -1.
func coefOf(a expr.Affine, lay *coefLayout, li int) int64 {
	if li < 0 {
		return a.ConstPart()
	}
	return a.Coef(lay.livs[li])
}

// xform ties the coefficients across a loop boundary (§2.2.3). The
// outer side lacks the loop variable k, so a move of k's coefficient
// unbalances every row but the loop-back's k row; each such row absorbs
// it on the side whose other coefficients follow k's.
func (tc *tableCompiler) xform(n *adg.Node) {
	x := n.Xform
	in, out := n.In[0].ID, n.Out[0].ID
	k := tc.ax.lay.liv(x.LIV)
	switch x.Kind {
	case adg.XformEntry:
		// π_in (outer) = π_out at k = lo:
		// a_in,v = a_out,v + a_out,k·lo_v ; a_in,0 = a_out,0 + a_out,k·lo_0.
		tc.boundary(in, out, out, k, x.Lo, -1, 0)
	case adg.XformLoopBack:
		// π_in as a function of k+step equals π_out as a function of k:
		// a_in,k = a_out,k ; a_in,v + a_in,k·s_v = a_out,v ;
		// a_in,0 + a_in,k·s_0 = a_out,0.
		tc.term(in, k, 1)
		tc.term(out, k, -1)
		tc.emit(0, -1)
		tc.boundary(in, out, in, k, x.Step, 1, 1)
	case adg.XformExit:
		// π_out (outer) = π_in at k = last:
		// a_out,v = a_in,v + a_in,k·last_v ; a_out,0 = a_in,0 + a_in,k·last_0.
		tc.boundary(out, in, in, k, lastIterate(x), -1, 0)
	}
}

// boundary compiles a_p,v − a_q,v + sign·b_v·a_r,k = 0 for the constant
// term and each of p's loop variables other than k; abs is the position
// of each row's absorbing term.
func (tc *tableCompiler) boundary(p, q, r, k int, b expr.Affine, sign int64, abs int) {
	lay := tc.ax.lay
	row := func(v int) {
		tc.term(p, v, 1)
		tc.term(q, v, -1)
		if bv := coefOf(b, lay, v); bv != 0 {
			tc.term(r, k, sign*bv)
		}
		tc.emit(0, abs)
	}
	row(-1)
	for _, v := range lay.portLivs[p] {
		if v != k {
			row(v)
		}
	}
}

// residual returns Σ c·x[slot] − rhs over row r.
func (t *nodeTable) residual(r tableRow, x []int64) int64 {
	s := -r.rhs
	for _, tm := range t.terms[r.start:r.end] {
		s += tm.c * x[tm.slot]
	}
	return s
}

// holds reports whether the integer labeling x satisfies every row.
func (t *nodeTable) holds(x []int64) bool {
	for _, r := range t.rows {
		if t.residual(r, x) != 0 {
			return false
		}
	}
	return true
}

// move shifts the coefficient of livs[li] (the constant term for
// li = -1) of every port of node n that has it by d,
// then rebalances each of the node's rows the shift unbalanced on the
// row's absorbing term. A row without one stays unbalanced, and holds
// rejects the move.
func (ax *axisSolver) move(n *adg.Node, li int, d int64) {
	lay, x, t := ax.lay, ax.ints, ax.table
	moved := func(slot int) bool {
		return slot%lay.stride == 1+li && (li < 0 || lay.hasLiv(slot/lay.stride, li))
	}
	for _, ports := range [2][]*adg.Port{n.In, n.Out} {
		for _, p := range ports {
			if s := lay.slot(p.ID, li); moved(s) {
				x[s] += d
			}
		}
	}
	for _, r := range t.rows[t.nodes[n.ID]:t.nodes[n.ID+1]] {
		if r.abs < 0 {
			continue
		}
		var shift int64
		for _, tm := range t.terms[r.start:r.end] {
			if moved(int(tm.slot)) {
				shift += tm.c * d
			}
		}
		a := t.terms[r.abs]
		x[a.slot] -= shift / a.c
	}
}
