package lp

import (
	"math"
	"sort"
)

// This file is the RLP presolver: a reduction that shrinks a problem
// before any simplex runs and splits what remains into independent
// blocks. It generalizes the classification NetworkForm performs into a
// real rewrite:
//
//  1. pins (single-variable equality rows) fix their variable and are
//     substituted out, transitively — a pinned variable folded into a
//     two-variable difference row pins the other end too;
//  2. difference-equality chains over free variables (x_a − x_b = d)
//     are contracted with a weighted union-find, so a whole chain
//     collapses into one representative carrying the class's summed
//     objective cost;
//  3. the surviving rows are rewritten over class representatives,
//     empty satisfied rows are dropped, and the constraint–variable
//     bipartite graph is split into its connected components, each
//     becoming an independent Problem.
//
// Reduce never diagnoses errors itself: any contradiction, infeasible
// fixing, or potential unboundedness makes it decline (ok = false) so
// the caller falls back to Solve and the simplex reports the proper
// error. The reduction is deterministic — rows are processed in
// original order with entries sorted by variable — so which of several
// degenerate optima the downstream engines land on is reproducible.

// reduceTol bounds the float slop tolerated when judging a folded row
// satisfied; it matches the simplex feasibility tolerance.
const reduceTol = 1e-7

// ReducedBlock is one independent subproblem of a Reduce: the rows and
// class representatives of one connected component of the reduced
// constraint–variable graph.
type ReducedBlock struct {
	// Prob is the block's standalone problem. Its variables carry the
	// summed objective cost of their contraction class.
	Prob *Problem
	// Vars maps the block's VarIDs back to the original problem's
	// representative variables (ascending, deterministic).
	Vars []VarID
}

// Reduction is the postsolve map of a Reduce: everything needed to
// reconstruct a full solution of the original problem from per-block
// solutions.
type Reduction struct {
	p *Problem
	n int // original variable count; index n is the virtual ground

	// Weighted union-find over n+1 entries: x_v = x_root(v) + off[v].
	// Ground represents the absolute origin (x_ground = 0), so pinned
	// variables live in ground's class.
	parent []int
	off    []float64
	gr     int     // find(ground) root
	gOff   float64 // find(ground) offset

	// Blocks are the independent subproblems, in deterministic order
	// (ascending smallest representative).
	Blocks []ReducedBlock
	// blockOf / colOf map a representative to its block and column;
	// -1 = representative unconstrained (valued 0 by postsolve).
	blockOf []int32
	colOf   []int32

	// Fixed and Contracted are the eliminated-variable counts
	// (mirrored into Stats by Reduce).
	Fixed, Contracted int
}

// find returns the class representative of v and v's offset from it
// (x_v = x_root + off), compressing the path as it goes.
func (r *Reduction) find(v int) (int, float64) {
	if r.parent[v] == v {
		return v, 0
	}
	root, o := r.find(r.parent[v])
	r.parent[v] = root
	r.off[v] += o
	return root, r.off[v]
}

// merge imposes x_a − x_b = d. The second result is false when the
// classes were already joined with a conflicting displacement (the
// problem is infeasible — the caller declines so the simplex reports
// it).
func (r *Reduction) merge(a, b int, d float64) (bool, bool) {
	ra, oa := r.find(a)
	rb, ob := r.find(b)
	if ra == rb {
		return false, math.Abs((oa-ob)-d) <= reduceTol
	}
	// Union by representative index: the smaller index wins, so class
	// representatives — and with them block identities — are
	// deterministic. Ground (index n) always loses, keeping original
	// variables as representatives of the ground class is harmless
	// because ground's own root is looked up, not assumed.
	if ra > rb {
		ra, rb = rb, ra
		oa, ob = ob, oa
		d = -d
	}
	// x_rb = x_ra + (oa − d − ob)
	r.parent[rb] = ra
	r.off[rb] = oa - d - ob
	return true, true
}

// Reduce runs the presolver on p: pin and contract the equality
// structure, rewrite the surviving rows over class representatives, and
// split the result into independent blocks. It returns ok = false — and
// the caller must fall back to Solve — when the reduction detects a
// contradiction or possible unboundedness (the simplex owns error
// diagnosis), or nothing was reduced.
func (p *Problem) Reduce() (*Reduction, bool) {
	n := len(p.costs)
	if n == 0 || len(p.cons) == 0 {
		return nil, false
	}
	r := &Reduction{p: p, n: n}
	r.parent = make([]int, n+1)
	r.off = make([]float64, n+1)
	for i := range r.parent {
		r.parent[i] = i
	}
	ground := n

	// Snapshot every row with entries sorted by variable (constraint
	// maps have randomized iteration order; the reduction must not).
	type row struct {
		entries []ent
		op      Op
		rhs     float64
		live    bool // still pending (EQ) or surviving (any op)
	}
	rows := make([]row, len(p.cons))
	var entbuf []ent
	nnz := 0
	for i := range p.cons {
		nnz += len(p.cons[i].ents)
	}
	// One flat snapshot buffer for every row's entries: the exact
	// capacity means appends never reallocate, so the per-row
	// subslices stay valid.
	flat := make([]ent, 0, nnz)
	for i := range p.cons {
		c := &p.cons[i]
		start := len(flat)
		flat = append(flat, c.ents...)
		rows[i] = row{entries: flat[start:], op: c.op, rhs: c.rhs, live: true}
	}

	// fold rewrites a row over current representatives: ground-class
	// variables move to the right-hand side, merged variables combine.
	// The result reuses entbuf (valid until the next fold).
	fold := func(ro *row) ([]ent, float64) {
		gRoot, gO := r.find(ground)
		entbuf = entbuf[:0]
		rhs := ro.rhs
		for _, e := range ro.entries {
			root, o := r.find(e.v)
			if root == gRoot {
				// x_v = x_ground + (o − gO) = o − gO.
				rhs -= e.a * (o - gO)
				continue
			}
			rhs -= e.a * o
			entbuf = append(entbuf, ent{v: root, a: e.a})
		}
		sortEnts(entbuf)
		// Combine duplicates (two class members in one row).
		out := entbuf[:0]
		for _, e := range entbuf {
			if len(out) > 0 && out[len(out)-1].v == e.v {
				out[len(out)-1].a += e.a
			} else {
				out = append(out, e)
			}
		}
		kept := out[:0]
		for _, e := range out {
			if math.Abs(e.a) > 1e-12 {
				kept = append(kept, e)
			}
		}
		return kept, rhs
	}

	// Fixpoint: absorb pins and difference chains until no equality
	// row makes progress. Folding can shrink a three-variable row to
	// two once a member pins, so iterate.
	for changed := true; changed; {
		changed = false
		for i := range rows {
			ro := &rows[i]
			if !ro.live || ro.op != EQ {
				continue
			}
			es, rhs := fold(ro)
			switch len(es) {
			case 0:
				if math.Abs(rhs) > reduceTol {
					return nil, false // infeasible: let the simplex say so
				}
				ro.live = false
				changed = true
			case 1:
				val := rhs / es[0].a
				if !p.free[es[0].v] && val < -reduceTol {
					return nil, false // fixes a nonnegative variable negative
				}
				progress, ok := r.merge(es[0].v, ground, val)
				if !ok {
					return nil, false
				}
				ro.live = false
				if progress {
					changed = true
				}
			case 2:
				// Contract only pure differences over free variables:
				// merging bounded variables would lose their sign
				// constraints.
				if es[1].a == -es[0].a && p.free[es[0].v] && p.free[es[1].v] {
					progress, ok := r.merge(es[0].v, es[1].v, rhs/es[0].a)
					if !ok {
						return nil, false
					}
					ro.live = false
					if progress {
						changed = true
					}
				}
			}
		}
	}

	// Rewrite the survivors over final representatives.
	type finalRow struct {
		entries []ent
		op      Op
		rhs     float64
	}
	var finals []finalRow
	// Folded survivors are never wider than their source rows, so one
	// flat buffer with the snapshot's capacity holds every final row's
	// entries without reallocating.
	finBuf := make([]ent, 0, nnz)
	occ := make([]int32, n) // representative occurrence count
	for i := range rows {
		ro := &rows[i]
		if !ro.live {
			continue
		}
		es, rhs := fold(ro)
		if len(es) == 0 {
			sat := false
			switch ro.op {
			case GE:
				sat = rhs <= reduceTol
			case LE:
				sat = rhs >= -reduceTol
			case EQ:
				sat = math.Abs(rhs) <= reduceTol
			}
			if !sat {
				return nil, false
			}
			continue
		}
		start := len(finBuf)
		finBuf = append(finBuf, es...)
		fr := finalRow{entries: finBuf[start:], op: ro.op, rhs: rhs}
		for _, e := range fr.entries {
			occ[e.v]++
		}
		finals = append(finals, fr)
	}

	// Aggregated class costs: x_v = x_root + off means the objective
	// contribution Σ c_v x_v concentrates Σ_{class} c_v on the root
	// (the offset part is a constant the postsolve restores by
	// recomputing the objective from original costs).
	aggCost := make([]float64, n)
	gRoot, _ := r.find(ground)
	for v := 0; v < n; v++ {
		root, _ := r.find(v)
		if root != gRoot && root < n {
			aggCost[root] += p.costs[v]
		}
	}

	// Unconstrained representatives take value 0; that is only sound
	// when moving them cannot improve the objective.
	for v := 0; v < n; v++ {
		root, _ := r.find(v)
		if root != v || root == gRoot || occ[v] > 0 {
			continue
		}
		if (p.free[v] && aggCost[v] != 0) || (!p.free[v] && aggCost[v] < 0) {
			return nil, false // unbounded ray: the simplex owns that verdict
		}
	}

	// Count the eliminations.
	for v := 0; v < n; v++ {
		root, _ := r.find(v)
		switch {
		case root == gRoot:
			r.Fixed++
		case root != v:
			r.Contracted++
		}
	}
	if r.Fixed == 0 && r.Contracted == 0 && len(finals) == len(p.cons) {
		return nil, false // nothing reduced: solving p directly is cheaper
	}

	// Block split: connected components of the representative graph
	// induced by the surviving rows.
	bu := make([]int32, n)
	for v := range bu {
		bu[v] = int32(v)
	}
	var bfind func(int32) int32
	bfind = func(v int32) int32 {
		if bu[v] == v {
			return v
		}
		bu[v] = bfind(bu[v])
		return bu[v]
	}
	for fi := range finals {
		es := finals[fi].entries
		for k := 1; k < len(es); k++ {
			ra, rb := bfind(int32(es[0].v)), bfind(int32(es[k].v))
			if ra != rb {
				if ra > rb {
					ra, rb = rb, ra
				}
				bu[rb] = ra // smaller index wins: deterministic block ids
			}
		}
	}
	r.blockOf = make([]int32, n)
	r.colOf = make([]int32, n)
	for v := range r.blockOf {
		r.blockOf[v] = -1
		r.colOf[v] = -1
	}
	// Block order = ascending component representative (which is the
	// smallest original variable index in the component).
	blockIdx := map[int32]int32{}
	var comps []int32
	for fi := range finals {
		root := bfind(int32(finals[fi].entries[0].v))
		if _, ok := blockIdx[root]; !ok {
			blockIdx[root] = -1
			comps = append(comps, root)
		}
	}
	sort.Slice(comps, func(x, y int) bool { return comps[x] < comps[y] })
	r.Blocks = make([]ReducedBlock, len(comps))
	for bi, root := range comps {
		blockIdx[root] = int32(bi)
	}
	// A block is smaller than its parent but relatively denser (the
	// contraction folds chains into wide rows), so re-running the
	// EngineAuto size threshold per block can demote it to the dense
	// tableau right where that core is slowest. If the parent
	// qualified for the sparse core, its blocks keep it.
	blockOpt := p.opt
	if p.chooseSparse() {
		blockOpt.Engine = EngineSparse
	}
	// Assign variables to blocks in ascending order.
	for v := 0; v < n; v++ {
		if occ[v] == 0 {
			continue
		}
		bi := blockIdx[bfind(int32(v))]
		blk := &r.Blocks[bi]
		if blk.Prob == nil {
			blk.Prob = NewProblem()
			blk.Prob.opt = blockOpt
		}
		r.blockOf[v] = bi
		r.colOf[v] = int32(len(blk.Vars))
		blk.Prob.AddVariable(aggCost[v], p.free[v])
		blk.Vars = append(blk.Vars, VarID(v))
	}
	// Distribute rows in original order; constraints are built
	// in-package so the entry maps are owned, not re-copied.
	for fi := range finals {
		fr := &finals[fi]
		bi := r.blockOf[fr.entries[0].v]
		blk := &r.Blocks[bi]
		// colOf numbers a block's variables in ascending order, so the
		// renumbered entries stay sorted.
		es := make([]ent, len(fr.entries))
		for k, e := range fr.entries {
			es[k] = ent{v: int(r.colOf[e.v]), a: e.a}
		}
		blk.Prob.cons = append(blk.Prob.cons, constraint{ents: es, op: fr.op, rhs: fr.rhs})
	}
	r.gr, r.gOff = r.find(ground)
	if p.stats != nil {
		p.stats.PresolveFixed += r.Fixed
		p.stats.PresolveContracted += r.Contracted
	}
	return r, true
}

// BlockVar maps an original variable to the block and block-local
// VarID of its class representative; ok = false when the variable was
// eliminated (fixed, or contracted into a representative that itself
// sits in no block).
func (r *Reduction) BlockVar(v VarID) (int, VarID, bool) {
	root, _ := r.find(int(v))
	if root >= r.n || r.blockOf[root] < 0 {
		return 0, 0, false
	}
	return int(r.blockOf[root]), VarID(r.colOf[root]), true
}

// Postsolve reconstructs a full solution of the original problem from
// the per-block solutions (indexed like Blocks). Eliminated variables
// are rebuilt from the union-find offsets, and the objective is
// recomputed from the original costs, so the result is exactly what a direct solve would report for
// the same vertex.
func (r *Reduction) Postsolve(sols []*Solution) *Solution {
	rootVal := make([]float64, r.n)
	for bi := range r.Blocks {
		blk := &r.Blocks[bi]
		sol := sols[bi]
		for col, orig := range blk.Vars {
			rootVal[orig] = sol.Value(VarID(col))
		}
	}
	values := make([]float64, r.n)
	for v := 0; v < r.n; v++ {
		root, o := r.find(v)
		if root == r.gr {
			values[v] = o - r.gOff
		} else {
			values[v] = rootVal[root] + o
		}
	}
	obj := 0.0
	for v, x := range values {
		obj += r.p.costs[v] * x
	}
	return &Solution{Objective: obj, values: values}
}
