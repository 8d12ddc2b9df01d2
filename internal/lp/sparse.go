package lp

// Sparse revised simplex with an eta-file basis representation. The
// offset RLPs of large programs (§4.1) are big but extremely sparse:
// every constraint touches at most three variables (a θ bound couples
// one θ with two offsets; a node equality couples two offsets), yet the
// dense tableau stores m·(n+m) cells, and a dense pivot costs about
// nnz(pivot row) × (rows with a nonzero in the entering column) — a
// product that fill-in grows as the solve proceeds. The revised
// simplex keeps the constraint matrix in compressed sparse
// column form, represents the basis inverse as a product of eta
// matrices rebuilt every refactorStride pivots, and merges each
// θ+P ≥ 0 / θ−P ≥ 0 row pair into a single equality row so the RLP's
// absolute-value encoding does not double the row count.

import (
	"context"
	"fmt"
	"math"
)

// Engine selects the simplex core used by Solve (Options.Engine).
type Engine int

// Simplex cores.
const (
	// EngineAuto picks the sparse revised simplex for large low-density
	// problems and the dense tableau otherwise.
	EngineAuto Engine = iota
	// EngineDense forces the dense tableau core.
	EngineDense
	// EngineSparse forces the sparse revised-simplex core.
	EngineSparse
)

// Sparse-dispatch thresholds (EngineAuto): the revised simplex wins
// once the dense tableau would be large (m·(n+m) cells to store, and
// fill-in spreading each pivot's nnz(pivot row) × touched-rows update
// across them) and at most a quarter populated. The cell threshold
// keeps every small RLP on the dense core, whose exact vertex choices
// are pinned by golden tests (TestGoldenReports).
const (
	sparseCellThreshold = 50000
	// refactorStride bounds the eta file: the basis is refactorized
	// from scratch after this many pivots (and at every phase start),
	// purging accumulated floating-point drift.
	refactorStride = 128
)

// chooseSparse decides which core a solveRaw call runs on.
func (p *Problem) chooseSparse() bool {
	switch p.opt.Engine {
	case EngineDense:
		return false
	case EngineSparse:
		return true
	}
	m := len(p.cons)
	if m == 0 {
		return false
	}
	nStruct := 0
	for _, f := range p.free {
		if f {
			nStruct += 2
		} else {
			nStruct++
		}
	}
	nnz := 0
	for _, c := range p.cons {
		nnz += len(c.ents)
	}
	return m*(nStruct+m) >= sparseCellThreshold && nnz*4 <= m*nStruct
}

// spForm is the standard form of a problem for the sparse core:
// columns are [structural | u/w pairs | slacks | artificials], rows are
// the constraints with each θ pair merged to one equality. Artificial
// columns are implicit identity columns (artStart+r has a single 1 in
// row r). The RHS vectors are never mutated by a solve, so a retained
// form can be warm-started any number of times.
type spForm struct {
	m          int // rows after pair merging
	nStruct    int // structural columns (free variables split)
	slackStart int // u/w columns occupy [nStruct, slackStart)
	artStart   int // slack columns occupy [slackStart, artStart)
	nTotal     int // artStart + m

	colPtr []int32 // CSC over columns [0, artStart)
	rowInd []int32
	vals   []float64

	cols    []colref // structural column -> original variable
	uvTheta []VarID  // u/w pair -> merged θ variable
	artUsed []bool   // per row: artificial column in the initial basis
	b, b2   []float64
	initBas []int

	// partner[j] is the column that is the exact vector negative of j
	// (the other half of a free-variable split, or the w of a u/w pair),
	// or -1. While one half is basic the other must never price in: its
	// true reduced cost is exactly the negative of the basic one's (≈0),
	// so any apparent improvement is drift — and admitting it would put
	// two linearly dependent columns in the basis (singular at the next
	// refactorization).
	partner []int32
}

// sparseWarmState is the retained factorizable form of a KeepBasis
// problem whose last solve ran on the sparse core. Unlike the dense
// warmState it holds no tableau: a warm solve refactorizes the retained
// basis against the pristine form, so only the basis indices persist.
type sparseWarmState struct {
	f            *spForm
	basis        []int
	nVars, nCons int // structure fingerprint at solve time
}

// buildSparseForm lowers the problem to spForm, merging θ row pairs.
//
// A pair θ + P ≥ r, θ − P ≥ −r (P a linear term over other variables,
// θ nonnegative with nonnegative cost and appearing nowhere else)
// encodes θ ≥ |P − r|. Substituting u = θ + P − r and v = θ − P + r,
// both ≥ 0, turns the pair into the single equality u − v − 2P = −2r
// with θ = (u+v)/2, halving those rows and giving each of u, v half of
// θ's cost. The substitution is an exact linear reparameterization, so
// objective values and feasibility transfer.
// The form's big arrays (CSC storage, RHS vectors, partner map) are
// carved from ar, so a pooled arena reaches a steady state where cold
// solves stop allocating; transient build scratch lives in ar.sp.
func (p *Problem) buildSparseForm(ar *Arena) *spForm {
	sp := &ar.sp
	nv := len(p.costs)
	occ := growInt(&sp.occ, nv)
	for _, c := range p.cons {
		for _, e := range c.ents {
			occ[e.v]++
		}
	}

	// pairOf[i]: 0 plain row, k+1 first row of pair k, -1 consumed.
	pairOf := growInt(&sp.pairOf, len(p.cons))
	var uvTheta []VarID
	merged := growBool(&sp.merged, nv)
	for i := 0; i+1 < len(p.cons); i++ {
		if pairOf[i] != 0 {
			continue
		}
		c0, c1 := &p.cons[i], &p.cons[i+1]
		if c0.op != GE || c1.op != GE || c0.rhs != -c1.rhs ||
			len(c0.ents) != len(c1.ents) {
			continue
		}
		theta := -1
		for _, e := range c0.ents {
			if e.a == 1 && c1.coef(e.v) == 1 && occ[e.v] == 2 && !p.free[e.v] &&
				p.costs[e.v] >= 0 {
				theta = e.v // the lowest qualifying variable: entries ascend
				break
			}
		}
		if theta < 0 {
			continue
		}
		ok := true
		for _, e := range c0.ents {
			if e.v != theta && c1.coef(e.v) != -e.a {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		pairOf[i] = len(uvTheta) + 1
		pairOf[i+1] = -1
		uvTheta = append(uvTheta, VarID(theta))
		merged[theta] = true
	}

	// Structural columns: free variables split, merged θs dropped.
	var cols []colref
	colOf := growInt(&sp.colOf, nv)
	negColOf := growInt(&sp.negColOf, nv)
	for v := 0; v < nv; v++ {
		if merged[v] {
			colOf[v], negColOf[v] = -1, -1
			continue
		}
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
	slackStart := nStruct + 2*len(uvTheta)
	nSlack := 0
	nRows := 0
	for i, c := range p.cons {
		if pairOf[i] == -1 {
			continue
		}
		nRows++
		if pairOf[i] == 0 && c.op != EQ {
			nSlack++
		}
	}
	artStart := slackStart + nSlack

	// Rows are built into one flat entry buffer (entBuf) with row r's
	// entries at [rowOff[r], rowOff[r+1]) — the pooled replacement for
	// a [][]ent with one heap slice per constraint.
	entBuf := sp.entBuf[:0]
	rowOff := append(sp.rowOff[:0], 0)
	b2 := ar.floats(nRows)
	initBas := ar.ints(nRows)
	artUsed := make([]bool, nRows)
	slackIdx := slackStart
	r := 0
	for i := range p.cons {
		if pairOf[i] == -1 {
			continue
		}
		c := &p.cons[i]
		start := len(entBuf)
		if k := pairOf[i]; k > 0 {
			pi := k - 1
			theta := int(uvTheta[pi])
			// Row scaling by max(|2a|, 1) keeps the u/w coefficients
			// bounded by 1 while conditioning heavy edge weights.
			rowMax := 1.0
			for _, e := range c.ents {
				if e.v == theta {
					continue
				}
				if s := math.Abs(2 * e.a); s > rowMax {
					rowMax = s
				}
			}
			inv := 1 / rowMax
			entBuf = append(entBuf,
				spEnt{col: int32(nStruct + 2*pi), val: inv},
				spEnt{col: int32(nStruct + 2*pi + 1), val: -inv})
			for _, e := range c.ents {
				if e.v == theta {
					continue
				}
				cv := -2 * e.a * inv
				entBuf = append(entBuf, spEnt{col: int32(colOf[e.v]), val: cv})
				if negColOf[e.v] >= 0 {
					entBuf = append(entBuf, spEnt{col: int32(negColOf[e.v]), val: -cv})
				}
			}
			es := entBuf[start:]
			rhs := -2 * c.rhs * inv
			basic := nStruct + 2*pi // u carries coefficient +inv
			if rhs < 0 {
				for j := range es {
					es[j].val = -es[j].val
				}
				rhs = -rhs
				basic = nStruct + 2*pi + 1 // the flip makes w positive
			}
			rowOff = append(rowOff, int32(len(entBuf)))
			b2[r] = rhs
			initBas[r] = basic
			r++
			continue
		}
		// Plain row: mirror the dense construction — scale the
		// structural part by its largest coefficient, append the slack
		// unscaled, then normalize the RHS sign.
		rowMax := 0.0
		for _, e := range c.ents {
			if math.Abs(e.a) > rowMax {
				rowMax = math.Abs(e.a)
			}
		}
		inv := 1.0
		if rowMax > 0 {
			inv = 1 / rowMax
		}
		rhs := c.rhs * inv
		for _, e := range c.ents {
			cv := e.a * inv
			entBuf = append(entBuf, spEnt{col: int32(colOf[e.v]), val: cv})
			if negColOf[e.v] >= 0 {
				entBuf = append(entBuf, spEnt{col: int32(negColOf[e.v]), val: -cv})
			}
		}
		slackCol := -1
		if c.op != EQ {
			slackCol = slackIdx
			slackIdx++
			sv := 1.0
			if c.op == GE {
				sv = -1
			}
			entBuf = append(entBuf, spEnt{col: int32(slackCol), val: sv})
		}
		es := entBuf[start:]
		if rhs < 0 {
			for j := range es {
				es[j].val = -es[j].val
			}
			rhs = -rhs
		}
		if slackCol >= 0 && es[len(es)-1].val == 1 {
			initBas[r] = slackCol
		} else {
			initBas[r] = artStart + r
			artUsed[r] = true
		}
		rowOff = append(rowOff, int32(len(entBuf)))
		b2[r] = rhs
		r++
	}
	sp.entBuf, sp.rowOff = entBuf, rowOff

	// Assemble the CSC matrix. Iterating rows in order makes each
	// column's entries row-sorted.
	counts := growInt32(&sp.counts, artStart)
	for _, e := range entBuf {
		counts[e.col]++
	}
	colPtr := ar.int32s(artStart + 1)
	for j := 0; j < artStart; j++ {
		colPtr[j+1] = colPtr[j] + counts[j]
	}
	rowInd := ar.int32s(int(colPtr[artStart]))
	vals := ar.floats(int(colPtr[artStart]))
	next := growInt32(&sp.next, artStart)
	copy(next, colPtr[:artStart])
	for rr := 0; rr < nRows; rr++ {
		for _, e := range entBuf[rowOff[rr]:rowOff[rr+1]] {
			k := next[e.col]
			next[e.col]++
			rowInd[k] = int32(rr)
			vals[k] = e.val
		}
	}

	// Deterministic RHS perturbation, as in the dense core: pivoting
	// reads the perturbed b, solutions read the exact b2.
	b := ar.floats(nRows)
	for i := range b {
		b[i] = b2[i] + 1e-7*float64(i+1)/float64(nRows+1)
	}
	partner := ar.int32s(artStart + nRows)
	for j := range partner {
		partner[j] = -1
	}
	for v := 0; v < nv; v++ {
		if colOf[v] >= 0 && negColOf[v] >= 0 {
			partner[colOf[v]] = int32(negColOf[v])
			partner[negColOf[v]] = int32(colOf[v])
		}
	}
	for k := range uvTheta {
		u, w := nStruct+2*k, nStruct+2*k+1
		partner[u] = int32(w)
		partner[w] = int32(u)
	}
	return &spForm{
		m: nRows, nStruct: nStruct, slackStart: slackStart,
		artStart: artStart, nTotal: artStart + nRows,
		colPtr: colPtr, rowInd: rowInd, vals: vals,
		cols: cols, uvTheta: uvTheta, artUsed: artUsed,
		b: b, b2: b2, initBas: initBas, partner: partner,
	}
}

// colDot returns yᵀA_j for column j (artificials are implicit e_r).
func (f *spForm) colDot(j int, y []float64) float64 {
	if j >= f.artStart {
		return y[j-f.artStart]
	}
	s := 0.0
	for k := f.colPtr[j]; k < f.colPtr[j+1]; k++ {
		s += f.vals[k] * y[f.rowInd[k]]
	}
	return s
}

// spEta is one eta matrix of the basis factorization: identity except
// column r, which holds diag at row r and the solver's shared
// etaInd/etaVal entries in [start, end) at their rows. Keeping every
// eta's off-diagonal entries in two flat arrays (instead of two heap
// slices per eta) lets the whole file be truncated and rebuilt at each
// refactorization without freeing or allocating anything.
type spEta struct {
	r          int32
	diag       float64
	start, end int32
}

// spSolver is the mutable state of one sparse solve: the current basis,
// its eta-file factorization, and the basic solution for both the
// perturbed and exact right-hand sides. A solver owned by an Arena
// (sparseScratch.sol) keeps its buffers across solves, so warm
// re-optimizations run without heap allocation.
type spSolver struct {
	f        *spForm
	basis    []int
	etas     []spEta
	etaInd   []int32   // shared eta off-diagonal rows
	etaVal   []float64 // shared eta off-diagonal values
	dirty    int       // pivots since the last refactorization
	xB, xB2  []float64
	work     []float64
	y        []float64
	skip     []bool // pricing scratch (per phase)
	inBasis  []bool
	oldBasis []int // refactor scratch
	used     []bool
	stats    *Stats
}

// sparseScratch is the sparse core's reusable state, owned by an Arena
// and recycled through the same pool point as the dense tableau
// storage (align's scratchPool hands arenas around via Arena.Reset).
// sol holds the per-solve solver whose buffers — FTRAN/BTRAN work
// vectors, the flat eta file, pricing scratch — persist between solves;
// the remaining fields are form-construction scratch. None of this is
// rewound by Arena.Reset: the buffers are length-checked on reuse.
type sparseScratch struct {
	sol      spSolver
	cost     []float64 // phase cost vector
	occ      []int     // form build: variable occurrence counts
	pairOf   []int
	colOf    []int
	negColOf []int
	merged   []bool
	counts   []int32 // CSC assembly
	next     []int32
	entBuf   []spEnt // flat row-major constraint entries
	rowOff   []int32 // row r's entries at entBuf[rowOff[r]:rowOff[r+1]]
}

// spEnt is one constraint-matrix entry during form construction.
type spEnt struct {
	col int32
	val float64
}

// growF64 returns buf resized to n, zeroed, reusing its storage when
// the capacity suffices (the sparse core's ensure-length reuse point).
func growF64(buf *[]float64, n int) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

func growBool(buf *[]bool, n int) []bool {
	s := *buf
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = false
		}
	}
	*buf = s
	return s
}

func growInt(buf *[]int, n int) []int {
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

func growInt32(buf *[]int32, n int) []int32 {
	s := *buf
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

// newSpSolver readies the arena's resident solver for a solve: buffers
// are length-checked against this form and reused, the eta file is
// truncated. The returned solver is only valid until the next
// newSpSolver call on the same arena.
func newSpSolver(f *spForm, basis []int, stats *Stats, ar *Arena) *spSolver {
	s := &ar.sp.sol
	s.f, s.basis, s.stats = f, basis, stats
	s.dirty = 0
	s.etas = s.etas[:0]
	s.etaInd = s.etaInd[:0]
	s.etaVal = s.etaVal[:0]
	s.xB = growF64(&s.xB, f.m)
	s.xB2 = growF64(&s.xB2, f.m)
	s.work = growF64(&s.work, f.m)
	s.y = growF64(&s.y, f.m)
	return s
}

// unpackCol scatters column j into the dense vector out.
func (s *spSolver) unpackCol(j int, out []float64) {
	for i := range out {
		out[i] = 0
	}
	f := s.f
	if j >= f.artStart {
		out[j-f.artStart] = 1
		return
	}
	for k := f.colPtr[j]; k < f.colPtr[j+1]; k++ {
		out[f.rowInd[k]] = f.vals[k]
	}
}

// ftran solves Bx' = x in place through the eta file.
func (s *spSolver) ftran(x []float64) {
	for e := range s.etas {
		et := &s.etas[e]
		xr := x[et.r]
		if xr == 0 {
			continue
		}
		xr /= et.diag
		x[et.r] = xr
		ind := s.etaInd[et.start:et.end]
		val := s.etaVal[et.start:et.end]
		for k, i := range ind {
			x[i] -= val[k] * xr
		}
	}
}

// btran solves yᵀB = c in place through the eta file in reverse.
func (s *spSolver) btran(y []float64) {
	for e := len(s.etas) - 1; e >= 0; e-- {
		et := &s.etas[e]
		sum := y[et.r]
		ind := s.etaInd[et.start:et.end]
		val := s.etaVal[et.start:et.end]
		for k, i := range ind {
			sum -= val[k] * y[i]
		}
		y[et.r] = sum / et.diag
	}
}

// appendEta records the pivot "column with FTRANed image w enters at
// row r" in the eta file. Entries below the drop tolerance are noise
// from earlier eliminations and are discarded; the periodic
// refactorization bounds the resulting drift.
func (s *spSolver) appendEta(r int, w []float64) {
	start := int32(len(s.etaInd))
	for i, wi := range w {
		if i == r || math.Abs(wi) < 1e-12 {
			continue
		}
		s.etaInd = append(s.etaInd, int32(i))
		s.etaVal = append(s.etaVal, wi)
	}
	s.etas = append(s.etas, spEta{r: int32(r), diag: w[r], start: start, end: int32(len(s.etaInd))})
}

// refactor rebuilds the eta file from the current basis columns and
// recomputes both basic solutions from the pristine right-hand sides.
// Columns are eliminated in basis order, each pivoting at its largest
// remaining row (ties to the lowest row for determinism); the basis
// array is reordered so basis[r] is the variable pivoted at row r.
// Returns false if the basis matrix is numerically singular.
func (s *spSolver) refactor() bool {
	m := s.f.m
	s.etas = s.etas[:0]
	s.etaInd = s.etaInd[:0]
	s.etaVal = s.etaVal[:0]
	s.dirty = 0
	if s.stats != nil {
		s.stats.Refactors++
	}
	s.oldBasis = append(s.oldBasis[:0], s.basis...)
	oldBasis := s.oldBasis
	used := growBool(&s.used, m)
	w := s.work
	for _, j := range oldBasis {
		s.unpackCol(j, w)
		s.ftran(w)
		r, best := -1, 1e-10
		for i := 0; i < m; i++ {
			if !used[i] && math.Abs(w[i]) > best {
				best, r = math.Abs(w[i]), i
			}
		}
		if r < 0 {
			return false
		}
		used[r] = true
		s.basis[r] = j
		s.appendEta(r, w)
	}
	copy(s.xB, s.f.b)
	s.ftran(s.xB)
	copy(s.xB2, s.f.b2)
	s.ftran(s.xB2)
	return true
}

// errSingular reports a numerically singular basis at refactorization;
// it wraps ErrBudget so callers treat it like any other stuck solve.
func errSingular(m int) error {
	return fmt.Errorf("%w: singular basis at refactorization (m=%d)", ErrBudget, m)
}

// runPhase runs one simplex phase on the current basis: entering
// columns are priced partially from a rotating cursor (Dantzig rule
// over the first 256 candidates past the first negative reduced cost,
// exact-tie to the lowest column id), the ratio test mirrors the dense
// core (reject pivots below pivTol, degenerate steps fall back to
// Bland's lowest-basis-index rule, otherwise prefer the largest pivot
// among near-minimum ratios), and optimality or unboundedness is only
// declared on a freshly refactorized basis. Columns at or beyond limit
// never enter; unused artificial columns never enter in any phase.
func (s *spSolver) runPhase(cost []float64, limit int, maxIter int64, ctx context.Context) (int64, error) {
	f := s.f
	m := f.m
	var pivots int64
	if !s.refactor() {
		return pivots, errSingular(m)
	}
	skip := growBool(&s.skip, f.nTotal)
	// Basic columns must never price in: the dense tableau keeps their
	// reduced costs identically zero, but the eta file only keeps them
	// near zero — drift past eps would re-admit a basic column, putting
	// a duplicate in the basis (singular at the next refactorization).
	inBasis := growBool(&s.inBasis, f.nTotal)
	for _, bj := range s.basis {
		inBasis[bj] = true
	}
	cursor := 0
	scale := 1.0
	for iter := int64(0); ; iter++ {
		if iter >= maxIter {
			return pivots, fmt.Errorf("%w after %d iterations (m=%d n=%d)", ErrBudget, iter, m, f.nTotal)
		}
		if ctx != nil && iter%iterCheckStride == iterCheckStride-1 {
			if err := ctx.Err(); err != nil {
				return pivots, fmt.Errorf("%w: %w", ErrCanceled, err)
			}
		}
		// Price: y = BTRAN(c_B), with stuck basic artificials (cost
		// +inf in phase 2, pinned at level 0) priced as cost 0.
		y := s.y
		for i, bj := range s.basis {
			c := cost[bj]
			if math.IsInf(c, 1) {
				c = 0
			}
			y[i] = c
		}
		s.btran(y)
		enter := -1
		bestD := 0.0
		firstNeg := -1
		for sc := 0; sc < limit; sc++ {
			if firstNeg >= 0 && sc >= firstNeg+256 {
				break
			}
			j := cursor + sc
			if j >= limit {
				j -= limit
			}
			if skip[j] || inBasis[j] || math.IsInf(cost[j], 1) {
				continue
			}
			if pt := f.partner[j]; pt >= 0 && inBasis[pt] {
				continue
			}
			if j >= f.artStart && !f.artUsed[j-f.artStart] {
				continue
			}
			d := cost[j] - f.colDot(j, y)
			if ad := math.Abs(d); ad > scale {
				scale = ad
			}
			if d < -eps {
				if firstNeg < 0 {
					firstNeg = sc
				}
				if enter < 0 || d < bestD || (d == bestD && j < enter) {
					enter, bestD = j, d
				}
			}
		}
		if enter == -1 {
			if s.dirty > 0 {
				// Confirm optimality against factorization drift.
				if !s.refactor() {
					return pivots, errSingular(m)
				}
				continue
			}
			return pivots, nil
		}
		w := s.work
		s.unpackCol(enter, w)
		s.ftran(w)
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if w[i] > pivTol {
				if r := s.xB[i] / w[i]; r < best {
					best, leave = r, i
				}
			}
		}
		if leave >= 0 {
			tol := 1e-9 * (1 + math.Abs(best))
			if best <= tol {
				for i := 0; i < m; i++ {
					if w[i] > pivTol && s.xB[i]/w[i] <= best+tol && s.basis[i] < s.basis[leave] {
						leave = i
					}
				}
			} else {
				for i := 0; i < m; i++ {
					if w[i] > pivTol && s.xB[i]/w[i] <= best+tol && w[i] > w[leave] {
						leave = i
					}
				}
			}
		}
		if leave == -1 {
			if s.dirty > 0 {
				if !s.refactor() {
					return pivots, errSingular(m)
				}
				continue
			}
			colmax := 0.0
			for i := 0; i < m; i++ {
				if math.Abs(w[i]) > colmax {
					colmax = math.Abs(w[i])
				}
			}
			if bestD > -1e-5*scale || (colmax < 1e-6 && cost[enter] >= 0) {
				// A numerically zero-cost ray (translation freedom of
				// offsets) or a column degenerated to noise: moving
				// along it cannot improve the objective.
				skip[enter] = true
				continue
			}
			return pivots, ErrUnbounded
		}
		t := s.xB[leave] / w[leave]
		t2 := s.xB2[leave] / w[leave]
		for i := 0; i < m; i++ {
			if i != leave && w[i] != 0 {
				s.xB[i] -= w[i] * t
				s.xB2[i] -= w[i] * t2
			}
		}
		s.xB[leave], s.xB2[leave] = t, t2
		s.appendEta(leave, w)
		inBasis[s.basis[leave]] = false
		s.basis[leave] = enter
		inBasis[enter] = true
		skip[enter] = false
		pivots++
		s.dirty++
		cursor = enter + 1
		if cursor >= limit {
			cursor = 0
		}
		if s.dirty >= refactorStride {
			if !s.refactor() {
				return pivots, errSingular(m)
			}
		}
	}
}

// driveOut pivots every artificial still basic after phase 1 out of the
// basis where possible, mirroring the dense core. An artificial left
// basic at level 0 is only safe if its row of B⁻¹A is zero for every
// structural/slack column — otherwise a later phase-2 pivot with a
// negative element in that row would lift the artificial off zero,
// silently abandoning the constraint. Rows that admit no pivot are
// genuinely redundant: every future FTRANed column is zero there, so
// the artificial can never move.
func (s *spSolver) driveOut() {
	f := s.f
	inBasis := growBool(&s.inBasis, f.nTotal)
	for _, bj := range s.basis {
		inBasis[bj] = true
	}
	for r := 0; r < f.m; r++ {
		if s.basis[r] < f.artStart {
			continue
		}
		// Row r of B⁻¹A is ρᵀA with ρ = B⁻ᵀe_r. Pivot at the largest
		// eligible element; anything under pivTol is factorization noise
		// (a numerically redundant row) and pivoting there would amplify
		// the row by up to 1/pivTol — leave the artificial stuck instead.
		rho := s.y
		for i := range rho {
			rho[i] = 0
		}
		rho[r] = 1
		s.btran(rho)
		bestJ, bestV := -1, pivTol
		for j := 0; j < f.artStart; j++ {
			if inBasis[j] {
				continue
			}
			if pt := f.partner[j]; pt >= 0 && inBasis[pt] {
				continue
			}
			if v := math.Abs(f.colDot(j, rho)); v > bestV {
				bestJ, bestV = j, v
			}
		}
		if bestJ < 0 {
			continue
		}
		w := s.work
		s.unpackCol(bestJ, w)
		s.ftran(w)
		if math.Abs(w[r]) <= pivTol {
			continue // drift between ρᵀA_j and the FTRANed column
		}
		t := s.xB[r] / w[r]
		t2 := s.xB2[r] / w[r]
		for i := 0; i < f.m; i++ {
			if i != r && w[i] != 0 {
				s.xB[i] -= w[i] * t
				s.xB2[i] -= w[i] * t2
			}
		}
		s.xB[r], s.xB2[r] = t, t2
		// A negative-signed pivot flips the row's perturbation residue
		// negative; re-perturb to keep the phase-2 invariant xB ≥ 0.
		if s.xB[r] < 0 {
			s.xB[r] = 0
		}
		s.appendEta(r, w)
		inBasis[s.basis[r]] = false
		s.basis[r] = bestJ
		inBasis[bestJ] = true
		s.dirty++
	}
}

// checkStuckArts fails if an artificial still basic after phase 2
// carries a nonzero exact level: a stuck artificial is only legitimate
// pinned at 0 in a redundant row — lifted, its constraint was silently
// abandoned and the solution is garbage. Mirrors the dense core.
func (s *spSolver) checkStuckArts() error {
	for i, bj := range s.basis {
		if bj >= s.f.artStart && math.Abs(s.xB2[i]) > 1e-6 {
			return fmt.Errorf("%w: artificial lifted to %g (m=%d)", ErrBudget, s.xB2[i], s.f.m)
		}
	}
	return nil
}

// sparsePhase2Cost builds the phase-2 cost vector: structural columns
// carry the variable costs (split by sign for free variables), each u/w
// pair splits its θ's cost in half, and artificials that entered the
// initial basis are forbidden from re-entering.
func sparsePhase2Cost(p *Problem, f *spForm, ar *Arena) []float64 {
	cost := growF64(&ar.sp.cost, f.nTotal)
	for j, cr := range f.cols {
		cost[j] = p.costs[cr.orig] * cr.sign
	}
	for k, th := range f.uvTheta {
		c := p.costs[th] / 2
		cost[f.nStruct+2*k] = c
		cost[f.nStruct+2*k+1] = c
	}
	for r, u := range f.artUsed {
		if u {
			cost[f.artStart+r] = inf
		}
	}
	return cost
}

// sparseExtract reads the solution off the final basis and exact RHS,
// mapping u/w pairs back to their θ via θ = (u+w)/2.
func (p *Problem) sparseExtract(f *spForm, basis []int, xB2 []float64) *Solution {
	values := make([]float64, len(p.costs))
	for r, bj := range basis {
		x := xB2[r]
		switch {
		case bj < f.nStruct:
			values[f.cols[bj].orig] += f.cols[bj].sign * x
		case bj < f.slackStart:
			values[f.uvTheta[(bj-f.nStruct)/2]] += 0.5 * x
		}
	}
	obj := 0.0
	for v, x := range values {
		obj += p.costs[v] * x
	}
	return &Solution{Objective: obj, values: values}
}

// solveSparse is the sparse counterpart of the dense solveRaw body:
// two-phase revised simplex over the merged standard form.
func (p *Problem) solveSparse() (*Solution, error) {
	p.ws = nil // this solve's retained basis (if any) is sparse
	p.sws = nil
	// Cold solves rewind the arena cursor like the dense core; the
	// form's carved arrays then survive for any number of warm solves
	// (warmSolveSparse never resets).
	ar := p.arena
	if ar == nil {
		ar = &Arena{}
	} else {
		ar.reset()
	}
	f := p.buildSparseForm(ar)
	if p.stats != nil {
		p.stats.Solves++
		p.stats.SparseSolves++
	}
	maxIter, ctx := p.budget(f.m, f.nTotal)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	if f.m == 0 {
		return p.sparseExtract(f, nil, nil), nil
	}
	basis := append([]int(nil), f.initBas...)
	s := newSpSolver(f, basis, p.stats, ar)
	anyArt := false
	for _, u := range f.artUsed {
		if u {
			anyArt = true
			break
		}
	}
	if anyArt {
		// Phase 1 and phase 2 run sequentially and fully overwrite the
		// cost vector, so both phases share the arena's cost buffer.
		cost1 := growF64(&ar.sp.cost, f.nTotal)
		for r, u := range f.artUsed {
			if u {
				cost1[f.artStart+r] = 1
			}
		}
		t0 := now()
		piv, err := s.runPhase(cost1, f.nTotal, maxIter, ctx)
		if p.stats != nil {
			p.stats.Pivots += piv
			p.stats.Phase1 += since(t0)
		}
		if err != nil {
			return nil, err
		}
		// Judge feasibility on the exact RHS: the perturbed phase-1
		// objective retains the perturbation residue at feasible bases.
		resid := 0.0
		for r, bj := range s.basis {
			if bj >= f.artStart {
				resid += math.Abs(s.xB2[r])
			}
		}
		if resid > 1e-6 {
			return nil, ErrInfeasible
		}
		s.driveOut()
	}
	cost := sparsePhase2Cost(p, f, ar)
	t0 := now()
	piv, err := s.runPhase(cost, f.artStart, maxIter, ctx)
	if p.stats != nil {
		p.stats.Pivots += piv
		p.stats.Phase2 += since(t0)
	}
	if err != nil {
		return nil, err
	}
	if err := s.checkStuckArts(); err != nil {
		return nil, err
	}
	if p.keep {
		p.sws = &sparseWarmState{
			f: f, basis: s.basis,
			nVars: len(p.costs), nCons: len(p.cons),
		}
	}
	return p.sparseExtract(f, s.basis, s.xB2), nil
}

// warmSolveSparse re-optimizes from the basis retained by the previous
// sparse solve after objective changes (SetCost): the retained basis
// stays primal feasible under any cost vector, so the warm solve
// refactorizes it against the pristine form and runs phase 2 only.
func (p *Problem) warmSolveSparse() (*Solution, error) {
	sws := p.sws
	f := sws.f
	if p.stats != nil {
		p.stats.WarmSolves++
		p.stats.SparseSolves++
	}
	maxIter, ctx := p.budget(f.m, f.nTotal)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
	}
	// sws.basis is shared with the solver, so the end-of-solve basis is
	// retained for the next warm start automatically. The arena is NOT
	// reset here: the retained form's arrays live in it.
	ar := p.arena
	if ar == nil {
		ar = &Arena{}
	}
	s := newSpSolver(f, sws.basis, p.stats, ar)
	cost := sparsePhase2Cost(p, f, ar)
	t0 := now()
	piv, err := s.runPhase(cost, f.artStart, maxIter, ctx)
	if p.stats != nil {
		p.stats.Pivots += piv
		p.stats.Phase2 += since(t0)
	}
	if err != nil {
		return nil, err
	}
	if err := s.checkStuckArts(); err != nil {
		return nil, err
	}
	return p.sparseExtract(f, s.basis, s.xB2), nil
}
