// Package adg implements the alignment-distribution graph (ADG) of §2.2:
// a data-flow graph in which nodes represent computation, edges represent
// flow of array-valued objects, and alignments live on ports (edge
// endpoints). Nodes constrain the relative alignments of their ports;
// an edge whose two ports have different alignments carries residual
// communication whose cost depends on the alignments and the amount of
// data flowing over the edge during execution.
package adg

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/space"
)

// Kind classifies ADG nodes.
type Kind int

// Node kinds, mirroring §2.2.2 of the paper.
const (
	// KindSource introduces an array's initial value (its declaration).
	KindSource Kind = iota
	// KindSink consumes an object's final value (live at program end).
	KindSink
	// KindOp is an elementwise operation; all ports constrained equal.
	KindOp
	// KindSection takes an array and yields a section of it.
	KindSection
	// KindSectionAssign (Update of Cytron et al.) takes an array and a
	// replacement object and yields the modified array.
	KindSectionAssign
	// KindMerge joins multiple reaching definitions (the φ-function).
	KindMerge
	// KindFanout forwards one definition to multiple uses in a block.
	KindFanout
	// KindBranch routes one definition to alternate uses (conditionals).
	KindBranch
	// KindTranspose constrains its output to the opposite axis alignment.
	KindTranspose
	// KindSpread replicates an object along a new axis; its input port is
	// labeled replicated on the spread template axis (§5.2, footnote 1).
	KindSpread
	// KindReduce is a reduction (intrinsic communication); the reduced
	// axis is unconstrained.
	KindReduce
	// KindXform is a transformer node delimiting iteration spaces at loop
	// boundaries (§2.2.3).
	KindXform
	// KindGather reads an array through a vector-valued subscript; the
	// lookup table input is a candidate for replication (§5.1).
	KindGather
)

var kindNames = map[Kind]string{
	KindSource: "Source", KindSink: "Sink", KindOp: "Op",
	KindSection: "Section", KindSectionAssign: "SectionAssign",
	KindMerge: "Merge", KindFanout: "Fanout", KindBranch: "Branch",
	KindTranspose: "Transpose", KindSpread: "Spread", KindReduce: "Reduce",
	KindXform: "Transformer", KindGather: "Gather",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// XformKind distinguishes the three transformer roles at a loop boundary.
type XformKind int

// Transformer roles.
const (
	// XformEntry carries a value defined before the loop to its first
	// use inside: input position (independent of the LIV) must equal the
	// output position evaluated at the first iteration.
	XformEntry XformKind = iota
	// XformLoopBack carries a value across iterations: the input position
	// as a function of k+step must equal the output position as a
	// function of k.
	XformLoopBack
	// XformExit carries a value out of the loop: the output position
	// (independent of the LIV) must equal the input position evaluated at
	// the last iteration.
	XformExit
)

func (x XformKind) String() string {
	switch x {
	case XformEntry:
		return "entry"
	case XformLoopBack:
		return "loopback"
	case XformExit:
		return "exit"
	}
	return "?"
}

// XformSpec describes a transformer node's loop.
type XformSpec struct {
	Kind XformKind
	LIV  string
	// Lo, Hi, Step are the loop bounds (affine in outer LIVs).
	Lo, Hi, Step expr.Affine
}

// SubSpec describes one dimension's subscript in a Section or
// SectionAssign node.
type SubSpec struct {
	IsRange      bool
	Lo, Hi, Step expr.Affine // when IsRange
	Index        expr.Affine // single affine index
	IsVector     bool        // vector-valued subscript (Gather handles data)
}

// SectionSpec is the full subscript list of a Section/SectionAssign.
type SectionSpec struct {
	Subs []SubSpec
}

// OutRank returns the rank of the section object.
func (s *SectionSpec) OutRank() int {
	r := 0
	for _, sub := range s.Subs {
		if sub.IsRange || sub.IsVector {
			r++
		}
	}
	return r
}

// Node is an ADG node.
type Node struct {
	ID    int
	Kind  Kind
	Label string
	In    []*Port
	Out   []*Port

	// Kind-specific payloads.
	Section      *SectionSpec // Section, SectionAssign, Gather
	SpreadDim    int          // Spread: 1-based output dimension of the new axis
	SpreadCopies expr.Affine  // Spread: number of copies
	ReduceDim    int          // Reduce: 1-based reduced dimension (0 = full)
	Xform        *XformSpec   // Transformer
	ReadOnly     bool         // Source of an array never assigned
	CondMerge    bool         // Merge joining conditional arms (not a loop φ)
}

// Port is a definition or use of an object: an edge endpoint that will be
// labeled with an alignment.
type Port struct {
	ID     int
	Node   *Node
	Index  int  // position among the node's In or Out ports
	Output bool // true for definition (output) ports
	// Rank is the rank of the object at this port.
	Rank int
	// Extents are the per-dimension extents of the object, affine in the
	// LIVs in scope (used for data weights).
	Extents []expr.Affine
	// Space is the iteration space of the enclosing loop nest.
	Space IterSpace
	// Edge is the unique edge incident on this port (every port has
	// exactly one, §2.2.1); set by Graph.Connect.
	Edge *Edge
}

// Weight returns the data weight of the object at this port: the product
// of its extents, a polynomial in the LIVs (§2.3).
func (p *Port) Weight() expr.Poly {
	w := expr.PolyConst(1)
	for _, e := range p.Extents {
		w = w.Mul(e.Poly())
	}
	return w
}

// Edge joins the definition of an object (Src, an output port) with its
// use (Dst, an input port).
type Edge struct {
	ID  int
	Src *Port
	Dst *Port
	// Control is the control weight c_e of §6: the expected number of
	// times data flows on this edge relative to its iteration space
	// (1 everywhere except conditional arms, where it is the arm's
	// execution probability). The expected realignment cost of the edge
	// is Control × Σ_i w(i)·d(π_src(i), π_dst(i)).
	Control float64

	// totW caches TotalWeight()+1 (0 = not yet computed). The sum is a
	// pure function of the graph's spaces and weights, which are fixed
	// once construction finishes, so a racing recompute is idempotent
	// and the atomic needs no lock. Alignment solvers hit TotalWeight
	// for every edge on every solve; the closed-form summation behind
	// it is by far too expensive to redo there.
	totW atomic.Int64
}

// Space returns the iteration space over which data actually flows on
// the edge. Ordinarily this is the (shared) space of its ports; edges
// into an exit transformer carry data only on the final iteration of the
// loop being exited, and edges out of an entry transformer only on the
// first, so those spaces pin the transformer's LIV to the boundary
// iterate (this is what makes loop-entry/-exit realignment count once,
// not once per iteration).
func (e *Edge) Space() IterSpace {
	s := e.Src.Space
	if n := e.Dst.Node; n.Kind == KindXform && n.Xform.Kind == XformExit {
		return s.pinLIV(n.Xform.LIV, n.Xform.LastIterate())
	}
	if n := e.Src.Node; n.Kind == KindXform && n.Xform.Kind == XformEntry {
		return s.pinLIV(n.Xform.LIV, n.Xform.Lo)
	}
	return s
}

// pinLIV returns the space with the named level restricted to a single
// value (no-op if the LIV is not a level of the space).
func (s IterSpace) pinLIV(liv string, v expr.Affine) IterSpace {
	for k, name := range s.LIVs {
		if name == liv {
			out := IterSpace{
				LIVs: append([]string{}, s.LIVs...),
				Lo:   append([]expr.Affine{}, s.Lo...),
				Hi:   append([]expr.Affine{}, s.Hi...),
				Step: append([]expr.Affine{}, s.Step...),
			}
			out.Lo[k] = v
			out.Hi[k] = v
			out.Step[k] = expr.Const(1)
			return out
		}
	}
	return s
}

// LastIterate returns the affine form of the loop's final LIV value. With
// constant bounds the true last iterate is computed; with affine bounds
// the upper bound is used (exact when the step divides the trip count).
func (x *XformSpec) LastIterate() expr.Affine {
	if x.Lo.IsConst() && x.Hi.IsConst() && x.Step.IsConst() {
		lo, hi, st := x.Lo.ConstPart(), x.Hi.ConstPart(), x.Step.ConstPart()
		n := (hi-lo)/st + 1
		if n < 1 {
			n = 1
		}
		return expr.Const(lo + (n-1)*st)
	}
	return x.Hi
}

// Weight returns the per-iteration data weight carried by the edge.
func (e *Edge) Weight() expr.Poly { return e.Src.Weight() }

// TotalWeight returns the closed-form sum of the edge's data weight over
// its iteration space: W = Σ_{i∈I} w(i) (§3). The first call evaluates
// the sum; later calls return the cached value.
func (e *Edge) TotalWeight() int64 {
	if v := e.totW.Load(); v != 0 {
		return v - 1
	}
	w := e.Space().TotalOf(e.Weight())
	e.totW.Store(w + 1)
	return w
}

// ExpectedWeight is the control-weighted total weight c_e·W (§6).
func (e *Edge) ExpectedWeight() float64 { return e.Control * float64(e.TotalWeight()) }

// Graph is an alignment-distribution graph.
type Graph struct {
	Nodes []*Node
	Edges []*Edge
	Ports []*Port
	// TemplateRank is the dimensionality of the single template all
	// objects align to.
	TemplateRank int

	arena graphArena
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// graphArena chunk-allocates the graph's nodes, ports, edges, and the
// backing storage of the per-node In/Out port lists: one allocation per
// chunk instead of one per object, which is most of what ADG
// construction allocates. Chunks are never reallocated or reused — the
// graph owns them for its lifetime — so every returned pointer is
// stable.
type graphArena struct {
	nodes []Node
	ports []Port
	edges []Edge
	refs  []*Port
}

const arenaChunk = 64

func (a *graphArena) node() *Node {
	if len(a.nodes) == cap(a.nodes) {
		a.nodes = make([]Node, 0, arenaChunk)
	}
	a.nodes = a.nodes[:len(a.nodes)+1]
	return &a.nodes[len(a.nodes)-1]
}

func (a *graphArena) port() *Port {
	if len(a.ports) == cap(a.ports) {
		a.ports = make([]Port, 0, arenaChunk)
	}
	a.ports = a.ports[:len(a.ports)+1]
	return &a.ports[len(a.ports)-1]
}

func (a *graphArena) edge() *Edge {
	if len(a.edges) == cap(a.edges) {
		a.edges = make([]Edge, 0, arenaChunk)
	}
	a.edges = a.edges[:len(a.edges)+1]
	return &a.edges[len(a.edges)-1]
}

// reserve sizes an empty graph for n nodes, np ports and ne edges, so
// building a graph of known size allocates each kind of object once
// instead of in arenaChunk-sized chunks.
func (g *Graph) reserve(n, np, ne int) {
	g.arena = graphArena{
		nodes: make([]Node, 0, n),
		ports: make([]Port, 0, np),
		edges: make([]Edge, 0, ne),
		refs:  make([]*Port, 0, np),
	}
	g.Nodes = make([]*Node, 0, n)
	g.Ports = make([]*Port, 0, np)
	g.Edges = make([]*Edge, 0, ne)
}

// refSlice carves an empty port-pointer slice with capacity n (full
// slice expression: appends fill it in place, never past it).
func (a *graphArena) refSlice(n int) []*Port {
	if n == 0 {
		return nil
	}
	if cap(a.refs)-len(a.refs) < n {
		c := 4 * arenaChunk
		if n > c {
			c = n
		}
		a.refs = make([]*Port, 0, c)
	}
	start := len(a.refs)
	a.refs = a.refs[:start+n]
	return a.refs[start : start : start+n]
}

// AddNode creates a node of the given kind with the given numbers of
// input and output ports. Port ranks/extents/spaces are filled by the
// caller.
func (g *Graph) AddNode(kind Kind, label string, nIn, nOut int) *Node {
	n := g.arena.node()
	n.ID, n.Kind, n.Label = len(g.Nodes), kind, label
	n.In = g.arena.refSlice(nIn)
	for i := 0; i < nIn; i++ {
		p := g.arena.port()
		p.ID, p.Node, p.Index = len(g.Ports), n, i
		g.Ports = append(g.Ports, p)
		n.In = append(n.In, p)
	}
	n.Out = g.arena.refSlice(nOut)
	for i := 0; i < nOut; i++ {
		p := g.arena.port()
		p.ID, p.Node, p.Index, p.Output = len(g.Ports), n, i, true
		g.Ports = append(g.Ports, p)
		n.Out = append(n.Out, p)
	}
	g.Nodes = append(g.Nodes, n)
	return n
}

// Connect adds the edge src→dst. src must be an output (definition) port
// and dst an input (use) port, each not yet connected.
func (g *Graph) Connect(src, dst *Port) *Edge {
	if !src.Output || dst.Output {
		panic("adg: Connect requires an output port and an input port")
	}
	if src.Edge != nil || dst.Edge != nil {
		panic("adg: port already connected")
	}
	e := g.arena.edge()
	e.ID, e.Src, e.Dst, e.Control = len(g.Edges), src, dst, 1
	src.Edge, dst.Edge = e, e
	g.Edges = append(g.Edges, e)
	return e
}

// Validate checks structural invariants: every port connected to exactly
// one edge, edge endpoints of compatible rank, transformer specs present
// on transformer nodes, and section specs present on section nodes.
func (g *Graph) Validate() error {
	for _, p := range g.Ports {
		if p.Edge == nil {
			return fmt.Errorf("adg: port %d of node %d (%s %q) not connected",
				p.Index, p.Node.ID, p.Node.Kind, p.Node.Label)
		}
	}
	for _, e := range g.Edges {
		if e.Src.Rank != e.Dst.Rank {
			return fmt.Errorf("adg: edge %d rank mismatch: src %d dst %d",
				e.ID, e.Src.Rank, e.Dst.Rank)
		}
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindXform:
			if n.Xform == nil {
				return fmt.Errorf("adg: transformer node %d missing spec", n.ID)
			}
			if len(n.In) != 1 || len(n.Out) != 1 {
				return fmt.Errorf("adg: transformer node %d must have 1 in, 1 out", n.ID)
			}
		case KindSection, KindGather:
			if n.Section == nil {
				return fmt.Errorf("adg: %s node %d missing section spec", n.Kind, n.ID)
			}
		case KindSectionAssign:
			if n.Section == nil {
				return fmt.Errorf("adg: section-assign node %d missing spec", n.ID)
			}
			if len(n.In) != 2 {
				return fmt.Errorf("adg: section-assign node %d must have 2 inputs", n.ID)
			}
		case KindMerge:
			if len(n.In) < 2 {
				return fmt.Errorf("adg: merge node %d with %d inputs", n.ID, len(n.In))
			}
		case KindFanout, KindBranch:
			if len(n.Out) < 2 {
				return fmt.Errorf("adg: %s node %d with %d outputs", n.Kind, n.ID, len(n.Out))
			}
		}
	}
	return nil
}

// Dot renders the graph in Graphviz DOT format.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph ADG {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range g.Nodes {
		label := n.Kind.String()
		if n.Label != "" {
			label += "\\n" + n.Label
		}
		shape := "box"
		switch n.Kind {
		case KindMerge, KindFanout, KindBranch:
			shape = "diamond"
		case KindXform:
			shape = "trapezium"
			label += "\\n(" + n.Xform.Kind.String() + " " + n.Xform.LIV + ")"
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\", shape=%s];\n", n.ID, label, shape)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"e%d\"];\n", e.Src.Node.ID, e.Dst.Node.ID, e.ID)
	}
	b.WriteString("}\n")
	return b.String()
}

// Stats summarizes the graph.
func (g *Graph) Stats() string {
	counts := map[Kind]int{}
	for _, n := range g.Nodes {
		counts[n.Kind]++
	}
	var parts []string
	for k := KindSource; k <= KindGather; k++ {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
		}
	}
	return fmt.Sprintf("%d nodes (%s), %d edges, template rank %d",
		len(g.Nodes), strings.Join(parts, " "), len(g.Edges), g.TemplateRank)
}

// IterSpace is the iteration space labeling an edge inside a loop nest:
// one (LIV, lo, hi, step) level per enclosing loop, outermost first.
// Bounds are affine in outer LIVs, which represents imperfect and
// trapezoidal nests exactly (§4.4).
type IterSpace struct {
	LIVs         []string
	Lo, Hi, Step []expr.Affine
}

// ScalarSpace is the rank-0 iteration space of straight-line code.
func ScalarSpace() IterSpace { return IterSpace{} }

// Rank returns the loop-nest depth.
func (s IterSpace) Rank() int { return len(s.LIVs) }

// Extend returns the space with one more inner loop level.
func (s IterSpace) Extend(liv string, lo, hi, step expr.Affine) IterSpace {
	out := IterSpace{
		LIVs: append(append([]string{}, s.LIVs...), liv),
		Lo:   append(append([]expr.Affine{}, s.Lo...), lo),
		Hi:   append(append([]expr.Affine{}, s.Hi...), hi),
		Step: append(append([]expr.Affine{}, s.Step...), step),
	}
	return out
}

// Concrete converts the space to a concrete product of triplets when all
// bounds are constants.
func (s IterSpace) Concrete() (space.Space, bool) {
	dims := make([]space.Triplet, s.Rank())
	for k := 0; k < s.Rank(); k++ {
		if !s.Lo[k].IsConst() || !s.Hi[k].IsConst() || !s.Step[k].IsConst() {
			return space.Space{}, false
		}
		dims[k] = space.NewTriplet(s.Lo[k].ConstPart(), s.Hi[k].ConstPart(), s.Step[k].ConstPart())
	}
	return space.NewSpace(dims...), true
}

// Each enumerates the iteration vectors, evaluating nested affine bounds
// under the outer values. The env passed to f is reused.
func (s IterSpace) Each(f func(env map[string]int64) bool) {
	env := map[string]int64{}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == s.Rank() {
			return f(env)
		}
		t := space.NewTriplet(s.Lo[k].Eval(env), s.Hi[k].Eval(env), s.Step[k].Eval(env))
		n := t.Count()
		for j := int64(0); j < n; j++ {
			env[s.LIVs[k]] = t.At(j)
			if !rec(k + 1) {
				return false
			}
		}
		delete(env, s.LIVs[k])
		return true
	}
	rec(0)
}

// Size returns the number of iteration vectors (by enumeration for
// non-rectangular spaces, in closed form for concrete ones).
func (s IterSpace) Size() int64 {
	if c, ok := s.Concrete(); ok {
		return c.Size()
	}
	var n int64
	s.Each(func(map[string]int64) bool { n++; return true })
	return n
}

// TotalOf sums the polynomial w over the iteration space. Concrete
// spaces use the closed-form power sums; nested affine bounds are summed
// level by level symbolically.
func (s IterSpace) TotalOf(w expr.Poly) int64 {
	q := w
	for k := s.Rank() - 1; k >= 0; k-- {
		q = sumLevel(q, s.LIVs[k], s.Lo[k], s.Hi[k], s.Step[k])
	}
	c, ok := q.IsConst()
	if !ok {
		panic("adg: TotalOf left free variables: " + q.String())
	}
	return c
}

// sumLevel sums w over liv ∈ lo:hi:step where the bounds may be affine in
// outer LIVs. If the bounds are constant, closed forms apply directly;
// otherwise substitute liv = lo + step·j with symbolic lo and constant
// count when derivable, else fall back to enumeration of the level.
func sumLevel(w expr.Poly, liv string, lo, hi, step expr.Affine) expr.Poly {
	if lo.IsConst() && hi.IsConst() && step.IsConst() {
		t := space.NewTriplet(lo.ConstPart(), hi.ConstPart(), step.ConstPart())
		return expr.SumOverTriplet(w, liv, t)
	}
	// Count is ((hi-lo)/step)+1; it is affine-derivable only if step is
	// constant and divides all coefficients of (hi-lo). Handle the common
	// constant-count case; otherwise enumerate cannot happen symbolically
	// here, so substitute via the j-form with symbolic count — fall back
	// to requiring constant count.
	diff := hi.Sub(lo)
	if step.IsConst() {
		sc := step.ConstPart()
		allDiv := true
		for _, t := range diff.Terms() {
			if t.Coef%sc != 0 {
				allDiv = false
				break
			}
		}
		if allDiv && diff.ConstPart()%sc == 0 {
			// Trip count (hi-lo)/step + 1 as an affine form.
			nAff := expr.Const(1)
			for _, t := range diff.Terms() {
				nAff = nAff.Add(expr.Axpy(t.Coef/sc, t.Var, 0))
			}
			nAff = nAff.AddConst(diff.ConstPart() / sc)
			if nAff.IsConst() {
				// Constant trip count with symbolic lo: i = lo + j·step.
				nv := nAff.ConstPart()
				if nv < 0 {
					nv = 0
				}
				sub := lo.Poly().Add(expr.PolyVar("__j").ScaleInt(sc))
				q := w.Subst(liv, sub)
				out := expr.Poly{}
				for _, m := range q.Monomials() {
					jexp := 0
					rest := []expr.Pow{}
					for _, pw := range m.Pows {
						if pw.Var == "__j" {
							jexp = pw.Exp
						} else {
							rest = append(rest, pw)
						}
					}
					mono := expr.PolyConst(m.Coef)
					for _, pw := range rest {
						for e := 0; e < pw.Exp; e++ {
							mono = mono.Mul(expr.PolyVar(pw.Var))
						}
					}
					out = out.Add(mono.ScaleInt(expr.PowerSum(jexp, nv)))
				}
				return out
			}
		}
	}
	panic(fmt.Sprintf("adg: cannot sum over %s ∈ %s:%s:%s symbolically", liv, lo, hi, step))
}
