// Package lp is a self-contained linear-programming solver: a dense
// two-phase primal simplex with Bland's anti-cycling rule, a sparse
// revised simplex for large sparse problems (sparse.go), and the Reduce
// presolver. The paper's offset-alignment phase reduces to "rounded
// linear programming" (§4.1): minimize Σ w_xy·θ_xy subject to
// θ_xy ≥ |π_x − π_y| (two inequalities per edge) and the linear node
// constraints; these problems are small (O(|E|) variables), so an exact
// dense simplex is the right tool.
//
// Rows are stored as coefficient lists sorted by variable. The dense
// tableau holds only the structural and slack columns: every row starts
// with a slack of coefficient +1 or its own artificial basic, and the
// artificials are implicit unit columns that are never stored, updated
// or priced. Phase 1 prices the stored columns only, so an artificial
// retires for good once it leaves the basis (the textbook rule); one
// that cannot be driven out of a redundant row stays basic at level 0
// through phase 2 and warm re-solves.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // Σ a_j x_j ≤ b
	GE           // Σ a_j x_j ≥ b
	EQ           // Σ a_j x_j = b
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// VarID identifies a decision variable within a Problem.
type VarID int

// Problem is a linear program under construction: minimize cᵀx subject to
// linear constraints, with each variable either nonnegative or free.
type Problem struct {
	costs []float64
	free  []bool
	cons  []constraint
	// ents is the slab every row's entries are carved from: AddRow
	// appends a row and caps its subslice, so rows added after a
	// reallocation start a new block while earlier rows keep theirs.
	ents []ent

	arena *Arena           // optional scratch storage for the tableau
	stats *Stats           // optional effort accounting
	keep  bool             // retain the final tableau for WarmSolve
	ws    *warmState       // retained dense tableau of the last Solve when keep
	sws   *sparseWarmState // retained sparse factorized form when keep
	opt   Options          // solve limits (iteration budget, cancellation)
}

// Options bounds a solve so the simplex can always be stopped: an
// explicit pivot-iteration budget and a context whose cancellation or
// deadline aborts the solve between pivots. The zero value means
// "derive the budget from the problem size, never check a context".
type Options struct {
	// MaxIter caps the simplex iterations of each phase of one solve.
	// Values <= 0 derive a budget from the problem size (see
	// defaultMaxIter); the simplex then returns ErrBudget instead of
	// spinning on a cycling or numerically stuck tableau.
	MaxIter int64
	// Ctx, when non-nil, is polled (amortized every iterCheckStride
	// iterations) and aborts the solve with an error wrapping both
	// ErrCanceled and ctx.Err() once it is done.
	Ctx context.Context
	// Engine selects the simplex core: EngineAuto picks the sparse
	// revised simplex for large low-density problems and the dense
	// tableau otherwise; EngineDense / EngineSparse force a core
	// (differential testing, benchmarking baselines).
	Engine Engine
}

// PresolveMode says whether a caller runs the Reduce presolver before
// solving. Reduce itself reads no mode: the caller checks it.
type PresolveMode int

// Presolve modes.
const (
	// PresolveAuto (the default) runs Reduce.
	PresolveAuto PresolveMode = iota
	// PresolveOff solves every problem exactly as built.
	PresolveOff
)

func (m PresolveMode) String() string {
	if m == PresolveOff {
		return "off"
	}
	return "auto"
}

// SetOptions attaches solve limits; the zero Options restores defaults.
func (p *Problem) SetOptions(o Options) { p.opt = o }

// defaultMaxIter is the iteration budget derived from the tableau size
// when Options.MaxIter is unset: generous against the pivot counts of
// well-posed problems (typically O(m+n)) while still bounding a
// degenerate cycle or numerically stuck solve.
func defaultMaxIter(m, n int) int64 {
	return 10000 + 200*int64(m+n)
}

// iterCheckStride is how many simplex iterations pass between context
// polls (amortizing the atomic load in ctx.Err over cheap pivots).
const iterCheckStride = 64

var inf = math.Inf(1)

type constraint struct {
	ents []ent // ascending by variable
	op   Op
	rhs  float64
}

// ent is one coefficient a·x_v of a row.
type ent struct {
	v int
	a float64
}

// coef returns the row's coefficient of variable v (0 if absent).
func (c *constraint) coef(v int) float64 {
	for _, e := range c.ents {
		if e.v == v {
			return e.a
		}
	}
	return 0
}

// sortEnts orders entries by variable, stably: entries of one variable
// keep their order. Rows hold a handful of entries, where insertion sort
// beats sort.SliceStable's reflection overhead.
func sortEnts(es []ent) {
	if len(es) > 16 {
		sort.SliceStable(es, func(x, y int) bool { return es[x].v < es[y].v })
		return
	}
	for x := 1; x < len(es); x++ {
		for y := x; y > 0 && es[y].v < es[y-1].v; y-- {
			es[y], es[y-1] = es[y-1], es[y]
		}
	}
}

// ErrInfeasible is returned when no assignment satisfies the constraints.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned when the objective can decrease without bound.
var ErrUnbounded = errors.New("lp: unbounded")

// ErrBudget is returned when a solve exhausts its iteration budget
// (Options.MaxIter, or the size-derived default).
var ErrBudget = errors.New("lp: iteration budget exhausted")

// ErrCanceled is returned (wrapping the context's error, so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded both
// work) when Options.Ctx is done before the solve completes.
var ErrCanceled = errors.New("lp: canceled")

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable adds a decision variable with the given objective cost.
// If free is true the variable ranges over all reals; otherwise x ≥ 0.
func (p *Problem) AddVariable(cost float64, free bool) VarID {
	p.costs = append(p.costs, cost)
	p.free = append(p.free, free)
	return VarID(len(p.costs) - 1)
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.costs) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Equal reports whether p and q state the same problem exactly: the
// same costs bit for bit, free flags, and rows (relation, right-hand
// side and entries, coefficients bit for bit). Solve settings, stats,
// arenas and retained bases are not compared. Two equal problems take
// the same deterministic solve, so a caller may solve one and reuse its
// solution for the other.
func (p *Problem) Equal(q *Problem) bool {
	if len(p.costs) != len(q.costs) || len(p.cons) != len(q.cons) {
		return false
	}
	for v, c := range p.costs {
		if math.Float64bits(c) != math.Float64bits(q.costs[v]) || p.free[v] != q.free[v] {
			return false
		}
	}
	for i := range p.cons {
		a, b := &p.cons[i], &q.cons[i]
		if a.op != b.op || math.Float64bits(a.rhs) != math.Float64bits(b.rhs) || len(a.ents) != len(b.ents) {
			return false
		}
		for k, e := range a.ents {
			if e.v != b.ents[k].v || math.Float64bits(e.a) != math.Float64bits(b.ents[k].a) {
				return false
			}
		}
	}
	return true
}

// Residual returns the largest constraint violation of vals (indexed
// by VarID): the amount by which any row misses its relation, or any
// nonnegative variable dips below zero. A value ≤ tol for the caller's
// tolerance means vals is primal feasible. Differential tests use this
// to cross-check solutions produced by different engines.
func (p *Problem) Residual(vals []float64) float64 {
	worst := 0.0
	for _, c := range p.cons {
		lhs := 0.0
		for _, e := range c.ents {
			lhs += e.a * vals[e.v]
		}
		viol := 0.0
		switch c.op {
		case LE:
			viol = lhs - c.rhs
		case GE:
			viol = c.rhs - lhs
		case EQ:
			viol = math.Abs(lhs - c.rhs)
		}
		if viol > worst {
			worst = viol
		}
	}
	for v, free := range p.free {
		if !free && -vals[v] > worst {
			worst = -vals[v]
		}
	}
	return worst
}

// Term is one coefficient A·x_V of a row under construction.
type Term struct {
	V VarID
	A float64
}

// AddRow adds Σ terms[k].A·x_{terms[k].V} (op) rhs. Terms may come in
// any order and may repeat a variable: the row keeps its entries sorted
// by variable, sums a repeated variable's coefficients in the order
// they were given, and drops zero coefficients. terms is copied.
func (p *Problem) AddRow(terms []Term, op Op, rhs float64) {
	start := len(p.ents)
	for _, t := range terms {
		if int(t.V) < 0 || int(t.V) >= len(p.costs) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.V))
		}
		p.ents = append(p.ents, ent{v: int(t.V), a: t.A})
	}
	es := p.ents[start:]
	sortEnts(es)
	out := es[:0]
	for _, e := range es {
		if len(out) > 0 && out[len(out)-1].v == e.v {
			out[len(out)-1].a += e.a
		} else {
			out = append(out, e)
		}
	}
	kept := out[:0]
	for _, e := range out {
		if e.a != 0 {
			kept = append(kept, e)
		}
	}
	p.ents = p.ents[:start+len(kept)]
	p.cons = append(p.cons, constraint{ents: kept[:len(kept):len(kept)], op: op, rhs: rhs})
}

// AddConstraint adds Σ coefs[v]·x_v (op) rhs through AddRow.
func (p *Problem) AddConstraint(coefs map[VarID]float64, op Op, rhs float64) {
	terms := make([]Term, 0, len(coefs))
	for v, c := range coefs {
		terms = append(terms, Term{V: v, A: c})
	}
	p.AddRow(terms, op, rhs)
}

// Solution holds an optimal solution of a Problem.
type Solution struct {
	Objective float64
	values    []float64
}

// Value returns the optimal value of variable v.
func (s *Solution) Value(v VarID) float64 { return s.values[v] }

// Values returns all variable values indexed by VarID.
func (s *Solution) Values() []float64 {
	cp := make([]float64, len(s.values))
	copy(cp, s.values)
	return cp
}

const eps = 1e-9

// pivTol is the smallest tableau element either simplex core will
// pivot on: dividing a row by anything smaller amplifies accumulated
// floating-point noise past the feasibility tolerances.
const pivTol = 1e-7

// Solve runs equality presolve followed by the two-phase simplex and
// returns an optimal solution, or ErrInfeasible / ErrUnbounded.
// A KeepBasis problem skips the presolve so the retained tableau spans
// the full variable set.
func (p *Problem) Solve() (*Solution, error) {
	if p.keep {
		return p.solveRaw()
	}
	ps := presolveEq(p)
	if ps.infeasible {
		return nil, ErrInfeasible
	}
	if len(ps.order) == 0 {
		return p.solveRaw()
	}
	ps.reduced.arena = p.arena
	ps.reduced.stats = p.stats
	ps.reduced.opt = p.opt
	sol, err := ps.reduced.solveRaw()
	if err != nil {
		return nil, err
	}
	return ps.recover(p, sol), nil
}

// colref maps a tableau column back to its problem variable: free
// variables are split x = x⁺ − x⁻ across two columns.
type colref struct {
	orig VarID
	sign float64
}

// tableau is a problem's dense standard form. Free variables are split
// x = x⁺ − x⁻ across two columns, each inequality gets a slack or
// surplus column, and rows are scaled by their largest structural
// coefficient and signed so every right-hand side is nonnegative. The
// rows store only those nStruct+nSlack = artIdx columns: row i's
// artificial is implicit, and basis entry artIdx+i means "row i's
// artificial is basic", a unit column that is never stored, updated or
// priced, so an artificial that leaves the basis is retired for good.
type tableau struct {
	cols            []colref // structural column → variable
	a               [][]float64
	b, b2           []float64 // perturbed and exact right-hand sides
	basis           []int
	nStruct, artIdx int
}

// nTotal counts every column, one artificial per row included: the
// width the iteration budget and the cost vectors are sized by.
func (t *tableau) nTotal() int { return t.artIdx + len(t.a) }

// standardForm lays p out as a tableau carved from ar, with a slack of
// coefficient +1 basic in its row where there is one and the row's
// artificial basic otherwise.
func (p *Problem) standardForm(ar *Arena) tableau {
	var cols []colref
	colOf := ar.ints(len(p.costs))    // first column of variable
	negColOf := ar.ints(len(p.costs)) // second column for free vars
	for v := range p.costs {
		colOf[v] = len(cols)
		cols = append(cols, colref{orig: VarID(v), sign: 1})
		if p.free[v] {
			negColOf[v] = len(cols)
			cols = append(cols, colref{orig: VarID(v), sign: -1})
		} else {
			negColOf[v] = -1
		}
	}
	nStruct := len(cols)
	m := len(p.cons)
	nSlack := 0
	for _, c := range p.cons {
		if c.op != EQ {
			nSlack++
		}
	}
	artIdx := nStruct + nSlack

	a := make([][]float64, m)
	b := ar.floats(m)
	basis := ar.ints(m)
	slackIdx := nStruct
	for i, c := range p.cons {
		row := ar.floats(artIdx)
		for _, e := range c.ents {
			row[colOf[e.v]] += e.a
			if negColOf[e.v] >= 0 {
				row[negColOf[e.v]] -= e.a
			}
		}
		rhs := c.rhs
		// Row scaling: normalize by the largest structural coefficient so
		// rows with very different magnitudes (data weights vs. unit
		// constraints) condition the tableau evenly.
		rowMax := 0.0
		for j := 0; j < nStruct; j++ {
			if math.Abs(row[j]) > rowMax {
				rowMax = math.Abs(row[j])
			}
		}
		if rowMax > 0 {
			inv := 1 / rowMax
			for j := 0; j < nStruct; j++ {
				row[j] *= inv
			}
			rhs *= inv
		}
		var slackCol = -1
		if c.op != EQ {
			slackCol = slackIdx
			slackIdx++
			if c.op == LE {
				row[slackCol] = 1
			} else {
				row[slackCol] = -1
			}
		}
		// Normalize RHS ≥ 0.
		if rhs < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		if slackCol >= 0 && row[slackCol] == 1 {
			basis[i] = slackCol
		} else {
			basis[i] = artIdx + i
		}
		a[i] = row
		b[i] = rhs
	}

	// Deterministic RHS perturbation breaks the ties that cause
	// degenerate cycling (the classic perturbation method). Pivoting
	// decisions use the perturbed RHS; the reported solution is read
	// from the unperturbed RHS carried through the same pivots.
	b2 := ar.floats(m)
	copy(b2, b)
	for i := range b {
		b[i] += 1e-7 * float64(i+1) / float64(m+1)
	}
	return tableau{cols: cols, a: a, b: b, b2: b2, basis: basis, nStruct: nStruct, artIdx: artIdx}
}

// solveRaw runs the two-phase simplex without presolve, dispatching to
// the sparse revised core (sparse.go) for large low-density problems.
// Phase 1 minimizes the sum of the basic artificials.
func (p *Problem) solveRaw() (*Solution, error) {
	if p.chooseSparse() {
		return p.solveSparse()
	}
	p.sws = nil // this solve's retained basis (if any) is dense
	ar := p.arena
	if ar == nil {
		ar = &Arena{}
	}
	ar.reset()
	t := p.standardForm(ar)
	a, b, b2, basis, artIdx := t.a, t.b, t.b2, t.basis, t.artIdx
	m, nTotal := len(a), t.nTotal()

	// nz holds the nonzero columns of each pivot row (see pivot); one
	// carve serves phase 1, the drive-out, phase 2, and warm re-solves.
	nz := ar.ints(artIdx)

	// Phase 1: minimize the sum of the basic artificials. Only the
	// costs of artificials are read (by reprice, for basic ones), and
	// phase 1 prices columns below artIdx only, so an artificial that
	// leaves never re-enters.
	phase1Cost := ar.floats(nTotal)
	anyArt := false
	for _, bj := range basis {
		if bj >= artIdx {
			phase1Cost[bj] = 1
			anyArt = true
		}
	}
	if p.stats != nil {
		p.stats.Solves++
	}
	maxIter, ctx := p.budget(m, nTotal)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	if anyArt {
		t0 := now()
		_, piv, err := simplex(a, b, b2, basis, phase1Cost, artIdx, maxIter, ctx, nz)
		if p.stats != nil {
			p.stats.Pivots += piv
			p.stats.Phase1 += since(t0)
		}
		if err != nil {
			return nil, err
		}
		// Judge feasibility on the unperturbed RHS: the perturbed
		// phase-1 objective retains the perturbation residue even at
		// feasible bases.
		resid := 0.0
		for i, bj := range basis {
			if bj >= artIdx {
				resid += math.Abs(b2[i])
			}
		}
		if resid > 1e-6 {
			return nil, ErrInfeasible
		}
		// Drive remaining artificials out of the basis where possible,
		// pivoting each row at its largest-magnitude eligible element.
		// Elements below pivTol are factorization noise: pivoting on one
		// amplifies the row by up to 1/pivTol, wrecking the tableau (and
		// the returned "solution") — such rows are numerically redundant
		// and keep their artificial basic at level 0 instead.
		for i := range basis {
			if basis[i] >= artIdx {
				bestJ, bestV := -1, pivTol
				for j := 0; j < artIdx; j++ {
					if v := math.Abs(a[i][j]); v > bestV {
						bestJ, bestV = j, v
					}
				}
				if bestJ >= 0 {
					pivot(a, b, b2, basis, i, bestJ, nz)
					// A negative-signed pivot flips the row's perturbation
					// residue negative; re-perturb to keep the phase-2
					// invariant b ≥ 0 (the perturbation is ours to choose).
					if b[i] < 0 {
						b[i] = 0
					}
				}
			}
		}
	}

	// Phase 2: original costs; a basic artificial costs +Inf, which
	// reprice reads as "stuck at level 0".
	cost := ar.floats(nTotal)
	phase2Cost(cost, p.costs, &t)
	t0 := now()
	_, piv, err := simplex(a, b, b2, basis, cost, artIdx, maxIter, ctx, nz)
	if p.stats != nil {
		p.stats.Pivots += piv
		p.stats.Phase2 += since(t0)
	}
	if err != nil {
		return nil, err
	}
	// An artificial stuck basic after the drive-out is supposed to sit
	// in a redundant row at level 0; if phase-2 pivots lifted it, its
	// constraint was silently abandoned and the "solution" is garbage.
	// Fail honestly instead — callers treat it like a stuck solve.
	for i, bj := range basis {
		if bj >= artIdx && math.Abs(b2[i]) > 1e-6 {
			return nil, fmt.Errorf("%w: artificial lifted to %g (m=%d)", ErrBudget, b2[i], m)
		}
	}

	if p.keep {
		p.ws = &warmState{tableau: t, nz: nz, nVars: len(p.costs), nCons: len(p.cons)}
	}
	return p.extract(&t), nil
}

// phase2Cost fills cost (length nTotal) with the phase-2 objective of
// t's columns: each structural column's signed variable cost, 0 for
// slacks, and +Inf for every artificial (only a basic one is ever
// read: reprice prices it as stuck at level 0).
func phase2Cost(cost, varCosts []float64, t *tableau) {
	for j := range cost {
		switch {
		case j < t.nStruct:
			cost[j] = varCosts[t.cols[j].orig] * t.cols[j].sign
		case j < t.artIdx:
			cost[j] = 0
		default:
			cost[j] = inf
		}
	}
}

// extract reads the solution of the original variables off t's final
// basis and unperturbed RHS. The returned slices are freshly allocated
// (never arena storage), so solutions outlive later solves.
func (p *Problem) extract(t *tableau) *Solution {
	values := make([]float64, len(p.costs))
	for i, bj := range t.basis {
		if bj < t.nStruct {
			values[t.cols[bj].orig] += t.cols[bj].sign * t.b2[i]
		}
	}
	obj := 0.0
	for v, x := range values {
		obj += p.costs[v] * x
	}
	return &Solution{Objective: obj, values: values}
}

// budget resolves the effective per-phase iteration cap and context of
// one solve from the problem's Options and the tableau dimensions.
func (p *Problem) budget(m, n int) (int64, context.Context) {
	maxIter := p.opt.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter(m, n)
	}
	return maxIter, p.opt.Ctx
}

// simplex runs the primal simplex on the tableau (a|b) with the given
// basis, minimizing costᵀx. The tableau has n columns and every one of
// them may enter; a basis entry ≥ n is an implicit artificial (a unit
// column not stored), whose cost reprice reads from cost[basis[i]], so
// cost must cover every basis entry. b2 is the unperturbed RHS, carried
// through the same pivots. It returns the optimal objective value
// (w.r.t. the perturbed RHS) and the number of pivots performed. With
// no rows the reduced costs are the costs, so a column of negative cost
// is reported unbounded. maxIter bounds the iterations (ErrBudget
// beyond); ctx, when non-nil, is polled every iterCheckStride
// iterations and aborts with ErrCanceled wrapping ctx.Err(). nz is
// pivot's column scratch, with capacity for a full tableau row.
func simplex(a [][]float64, b, b2 []float64, basis []int, cost []float64, n int, maxIter int64, ctx context.Context, nz []int) (float64, int64, error) {
	m := len(a)
	var pivots int64
	// Reduced costs require the basis columns to be identity; maintain by
	// pivoting, and reprice from scratch periodically to purge the
	// floating-point drift that incremental updates accumulate.
	z := make([]float64, n)
	var zb float64
	reprice := func() {
		copy(z, cost[:n])
		zb = 0
		for i, bj := range basis {
			cb := cost[bj]
			if cb == 0 || math.IsInf(cb, 1) {
				// +Inf is an artificial stuck in the basis at value 0:
				// price it as 0 (it remains at level 0).
				continue
			}
			for j := 0; j < n; j++ {
				z[j] -= cb * a[i][j]
			}
			zb -= cb * b[i]
		}
		// Basis columns must price to exactly zero.
		for _, bj := range basis {
			if bj < n {
				z[bj] = 0
			}
		}
	}
	reprice()
	// Relative tolerance scale for reduced costs: degenerate equal-cost
	// rays (e.g. translation freedom in alignment offsets) can leave
	// tiny negative reduced costs on columns whose ratio test fails;
	// treating those as unbounded would be wrong.
	scale := 1.0
	for j := range z {
		if !math.IsInf(z[j], 0) && math.Abs(z[j]) > scale {
			scale = math.Abs(z[j])
		}
	}
	looseEps := 1e-5 * scale
	skip := make([]bool, n)
	fresh := true // z was just repriced from scratch
	for iter := int64(0); ; iter++ {
		if iter >= maxIter {
			return 0, pivots, fmt.Errorf("%w after %d iterations (m=%d n=%d)", ErrBudget, iter, m, n)
		}
		if iter%iterCheckStride == iterCheckStride-1 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return 0, pivots, fmt.Errorf("%w: %w", ErrCanceled, err)
				}
			}
			reprice()
			fresh = true
		}
		// Bland's rule: entering column = lowest index with negative
		// reduced cost (excluding columns proven rays of ~zero cost).
		enter := -1
		for j := 0; j < n; j++ {
			if skip[j] || math.IsInf(cost[j], 1) {
				continue
			}
			if z[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			if !fresh {
				// Confirm optimality against drift before concluding.
				reprice()
				fresh = true
				continue
			}
			return -zb, pivots, nil // optimal
		}
		// Ratio test. Pivot elements below pivTol are rejected outright:
		// pivoting on a near-zero element blows the tableau up. Among
		// rows within tolerance of the minimum ratio, prefer the largest
		// pivot element for stability; on fully degenerate steps (ratio
		// 0) fall back to Bland's smallest-basis-index rule to guarantee
		// progress.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if a[i][enter] > pivTol {
				r := b[i] / a[i][enter]
				if r < best {
					best = r
					leave = i
				}
			}
		}
		if leave >= 0 {
			tol := 1e-9 * (1 + math.Abs(best))
			if best <= tol {
				// Degenerate: Bland tie-break.
				for i := 0; i < m; i++ {
					if a[i][enter] > pivTol && b[i]/a[i][enter] <= best+tol && basis[i] < basis[leave] {
						leave = i
					}
				}
			} else {
				// Stability tie-break: largest pivot among near-minimum
				// ratios.
				for i := 0; i < m; i++ {
					if a[i][enter] > pivTol && b[i]/a[i][enter] <= best+tol && a[i][enter] > a[leave][enter] {
						leave = i
					}
				}
			}
		}
		if leave == -1 {
			if !fresh {
				reprice()
				fresh = true
				continue
			}
			colmax := 0.0
			for i := 0; i < m; i++ {
				if math.Abs(a[i][enter]) > colmax {
					colmax = math.Abs(a[i][enter])
				}
			}
			if z[enter] > -looseEps || (colmax < 1e-6 && cost[enter] >= 0) {
				// A (numerically) zero-cost ray — or a column that has
				// degenerated to noise with a nonnegative true cost:
				// moving along it cannot improve the objective; exclude
				// the column and continue.
				skip[enter] = true
				continue
			}
			return 0, pivots, ErrUnbounded
		}
		skip[enter] = false
		nz = pivot(a, b, b2, basis, leave, enter, nz)
		pivots++
		fresh = false
		// Update cost row at the pivot row's nonzero columns only.
		c := z[enter]
		if c != 0 {
			row := a[leave]
			for _, j := range nz {
				z[j] -= c * row[j]
			}
			zb -= c * b[leave]
		}
	}
}

// pivot makes column enter basic in row leave, updating both the
// perturbed (b) and unperturbed (b2) right-hand sides. While it scales
// the pivot row it collects the row's nonzero columns into nz (reusing
// its storage) and returns them; every other row is then updated at
// those columns only. Subtracting f·0 leaves a finite entry unchanged,
// so the result equals the full-row update (up to the sign of an exact
// zero, which nothing reads) at the cost of nnz(pivot row) per touched
// row instead of the full width: RLP rows touch at most three
// variables, so the pivot row stays sparse.
func pivot(a [][]float64, b, b2 []float64, basis []int, leave, enter int, nz []int) []int {
	row := a[leave]
	inv := 1 / row[enter]
	nz = nz[:0]
	for j, v := range row {
		if v != 0 {
			v *= inv
			row[j] = v
			if v != 0 {
				nz = append(nz, j)
			}
		}
	}
	b[leave] *= inv
	b2[leave] *= inv
	row[enter] = 1 // exactness
	for i, ri := range a {
		if i == leave {
			continue
		}
		f := ri[enter]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ri[j] -= f * row[j]
		}
		ri[enter] = 0
		b[i] -= f * b[leave]
		b2[i] -= f * b2[leave]
	}
	basis[leave] = enter
	return nz
}
