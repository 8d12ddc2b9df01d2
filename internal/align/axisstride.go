// Package align implements the paper's alignment analyses on the ADG:
// axis and stride alignment (including mobile strides, §3) by compact
// dynamic programming over candidate labels under the discrete metric;
// mobile offset alignment (§4) by rounded linear programming with the
// subrange approximation; and replication labeling (§5) by min-cut.
package align

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/adg"
	"repro/internal/expr"
)

// ASLabel is an axis/stride label for one port: the axis map and the
// per-body-axis (possibly mobile) strides. Offsets are not part of the
// label; they are determined later under the grid metric.
type ASLabel struct {
	AxisMap []int
	Stride  []expr.Affine
}

func (l ASLabel) String() string {
	if len(l.AxisMap) == 0 {
		return "scalar"
	}
	parts := make([]string, len(l.AxisMap))
	for d := range l.AxisMap {
		parts[d] = fmt.Sprintf("i%d→T%d×(%s)", d+1, l.AxisMap[d]+1, l.Stride[d])
	}
	return strings.Join(parts, " ")
}

// Equal reports label equality.
func (l ASLabel) Equal(m ASLabel) bool {
	if len(l.AxisMap) != len(m.AxisMap) {
		return false
	}
	for d := range l.AxisMap {
		if l.AxisMap[d] != m.AxisMap[d] || !l.Stride[d].Equal(m.Stride[d]) {
			return false
		}
	}
	return true
}

func identityLabel(rank int) ASLabel {
	l := ASLabel{AxisMap: make([]int, rank), Stride: make([]expr.Affine, rank)}
	for d := 0; d < rank; d++ {
		l.AxisMap[d] = d
		l.Stride[d] = expr.Const(1)
	}
	return l
}

// identityLabelCached returns the (immutable, shared) identity label for
// a rank without rebuilding its slices on every call — the seeding loop
// of candidate generation asks for one per port per solve.
func identityLabelCached(rank int) ASLabel {
	idLabMu.Lock()
	for len(idLabCache) <= rank {
		idLabCache = append(idLabCache, identityLabel(len(idLabCache)))
	}
	l := idLabCache[rank]
	idLabMu.Unlock()
	return l
}

var (
	idLabMu    sync.Mutex
	idLabCache []ASLabel
)

// DPStats is the effort accounting of the §3 compact dynamic program:
// how much search the iterated best-response + chain-expansion
// optimization performed. All counters are sums over the multi-start
// seeds and are identical at every Parallelism setting (each start's
// trajectory is independent of the others).
type DPStats struct {
	// Starts is the number of optimization starts (canonical seeds plus
	// perturbed restarts).
	Starts int
	// Labels is the number of distinct interned axis/stride labels.
	Labels int
	// Configs is the total number of feasible node configurations.
	Configs int
	// Sweeps counts best-response sweeps over the (dirty) nodes.
	Sweeps int64
	// Moves counts accepted single-node best-response moves.
	Moves int64
	// Evals counts (node, config) incident-cost evaluations.
	Evals int64
	// ExpansionAccepts counts accepted chain-expansion moves.
	ExpansionAccepts int64
}

func (s *DPStats) add(o DPStats) {
	s.Starts += o.Starts
	s.Sweeps += o.Sweeps
	s.Moves += o.Moves
	s.Evals += o.Evals
	s.ExpansionAccepts += o.ExpansionAccepts
}

// AxisStrideOptions configures the §3 solver.
type AxisStrideOptions struct {
	// Parallelism bounds the workers running the multi-start optimization
	// concurrently; values ≤ 0 mean GOMAXPROCS. The chosen labeling is
	// identical for every setting: every start always runs, and the
	// winner is the lowest-cost start with the lowest seed index.
	Parallelism int
	// Restarts is the number of perturbed restarts run in addition to the
	// two canonical seeds (all-first and all-last configurations).
	// Default 2; negative means none.
	Restarts int

	// scratch, when non-nil, recycles the label intern table and the
	// flat DP state arena across solves. Threaded in by the pipeline
	// from Options.scratch; nil falls back to a package-level pool.
	scratch *scratchPool

	// ctx, when non-nil, cancels the solve: every start polls it between
	// best-response sweeps and expansion rounds. Threaded in by the
	// pipeline from Options.ctx.
	ctx context.Context
}

func (o AxisStrideOptions) withDefaults() AxisStrideOptions {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Restarts == 0 {
		o.Restarts = 2
	}
	if o.Restarts < 0 {
		o.Restarts = 0
	}
	return o
}

// AxisStrideResult is the outcome of the axis/stride phase.
type AxisStrideResult struct {
	// Labels maps port ID → chosen label.
	Labels map[int]ASLabel
	// Cost is the total discrete-metric realignment cost: Σ over edges of
	// W_e·[label_src ≠ label_dst] (§3).
	Cost int64
	// GeneralEdges lists edges whose endpoints differ (each incurs general
	// communication every time data flows).
	GeneralEdges []*adg.Edge
	// Stats is the DP effort accounting.
	Stats DPStats
}

// AxisStride solves the (mobile) axis and stride alignment problem of §3
// with default options: labels are restricted to affine strides in the
// LIVs; the cost of an edge is its total data weight if the two port
// labels differ (discrete metric), else zero. Candidate labels are
// generated by propagating the identity alignment of every Source through
// the node transfer functions (the "compact" part of compact dynamic
// programming); the labeling is then optimized by multi-start iterated
// best-response with chain-expansion moves.
func AxisStride(g *adg.Graph) (*AxisStrideResult, error) {
	return AxisStrideOpts(g, AxisStrideOptions{})
}

// AxisStrideOpts is AxisStride with explicit options.
func AxisStrideOpts(g *adg.Graph, opts AxisStrideOptions) (*AxisStrideResult, error) {
	opts = opts.withDefaults()
	tab := opts.scratch.getIntern()
	defer opts.scratch.putIntern(tab)
	scr := opts.scratch.getDP()
	defer opts.scratch.putDP(scr)
	s := newASSolver(g, tab, scr)
	if err := s.generateCandidates(); err != nil {
		return nil, err
	}
	if err := s.buildNodeConfigs(); err != nil {
		return nil, err
	}
	stats, err := s.optimize(opts)
	if err != nil {
		return nil, err
	}
	stats.Labels = s.tab.size()
	for nid := range g.Nodes {
		stats.Configs += int(s.cfgCnt[nid])
	}
	res := &AxisStrideResult{Labels: make(map[int]ASLabel, len(g.Ports)), Stats: stats}
	lab := s.bestLab
	for _, p := range g.Ports {
		res.Labels[p.ID] = s.tab.label(lab[p.ID])
	}
	ng := 0
	for _, e := range g.Edges {
		if lab[e.Src.ID] != lab[e.Dst.ID] {
			ng++
		}
	}
	if ng > 0 {
		res.GeneralEdges = make([]*adg.Edge, 0, ng)
		for _, e := range g.Edges {
			if lab[e.Src.ID] != lab[e.Dst.ID] {
				res.Cost += e.TotalWeight()
				res.GeneralEdges = append(res.GeneralEdges, e)
			}
		}
	}
	return res, nil
}

// asSolver is the flat §3 solver: every per-solve array — candidate
// sets, configuration rows, incidence, evaluation and match tables — is
// carved by offset from the solve's dpScratch, so a warm solve builds
// its whole working set without heap allocation. Candidate sets live at
// a fixed stride of maxCandidates per port; configuration rows are a
// CSR over scr.cfgBuf (row = the node's In labels then Out labels).
type asSolver struct {
	g   *adg.Graph
	tab *internTable
	scr *dpScratch

	candBuf []int32 // port ID → candidates at [ID*maxCandidates, +candLen[ID])
	candLen []int32

	cfgOff []int32 // node ID → first row offset into scr.cfgBuf
	cfgCnt []int32 // node ID → number of configurations
	cfgNIn []int32 // node ID → inputs per row
	cfgW   []int32 // node ID → row width (inputs + outputs)
	maxCfg int     // max configurations over all nodes

	best    []int32 // winner's config index per node
	bestLab []int32 // winner's label ID per port

	wts  []float64 // edge ID → control-weighted total weight
	ends []int32   // edge ID → (src port ID, dst port ID) at 2*ID

	inc    []incEdge // incident edges, CSR by node
	incOff []int32

	nodePorts []int32 // node ID → port IDs in row order, CSR
	portOff   []int32

	// evalBuf holds, per node, per incident slot k, per configuration c,
	// the node-side comparison value at evalOff[node] + k*C + c: the
	// node's endpoint label for ordinary slots, a 0/1 mismatch flag for
	// self-loop slots. sweeps evaluate all configurations of a node by
	// streaming these rows against the fixed neighbor labels.
	evalBuf []int32
	evalOff []int32

	// matchBuf maps (port ID, label ID) → 1 + the first configuration
	// index of the port's node carrying that label at the port (0 =
	// none); the expansion wavefront's configuration lookup.
	matchBuf []int32
	nLabels  int32

	// siteDone holds, per propagation site of each node, how many
	// candidates of the site's source port have been processed, making
	// node transfer propagation incremental across fixpoint rounds.
	siteDone []int32
	siteOff  []int32

	idLab []int32 // rank → interned identity label ID (lazy, -1 unset)
}

// incEdge is one edge incident on a node, precomputed so the
// best-response cost loop is branch-light and allocation-free. selfLoop
// edges (both endpoints on the node) depend only on the node's own
// configuration.
type incEdge struct {
	w        float64
	eid      int32 // edge ID (delta-cost dedup in expansion passes)
	peer     int32 // peer port ID (label index), unused for selfLoop
	peerNode int32 // peer node ID, unused for selfLoop
	selfPos  int32 // row position of this node's endpoint
	dstPos   int32 // selfLoop: row position of the edge's Dst endpoint
	selfLoop bool
}

func newASSolver(g *adg.Graph, tab *internTable, scr *dpScratch) *asSolver {
	scr.reset()
	s := &scr.solver
	*s = asSolver{g: g, tab: tab, scr: scr}
	nP, nN := len(g.Ports), len(g.Nodes)
	s.candBuf = scr.int32s(nP * maxCandidates)
	s.candLen = scr.int32s(nP)
	s.siteOff = scr.int32s(nN + 1)
	total := 0
	for _, n := range g.Nodes {
		s.siteOff[n.ID] = int32(total)
		total += len(n.In) + len(n.Out) + 2
	}
	s.siteOff[nN] = int32(total)
	s.siteDone = scr.int32s(total)
	s.portOff = scr.int32s(nN + 1)
	total = 0
	for _, n := range g.Nodes {
		s.portOff[n.ID] = int32(total)
		total += len(n.In) + len(n.Out)
	}
	s.portOff[nN] = int32(total)
	s.nodePorts = scr.int32s(total)
	maxRank := 0
	for _, n := range g.Nodes {
		off := int(s.portOff[n.ID])
		for i, p := range n.In {
			s.nodePorts[off+i] = int32(p.ID)
		}
		for i, p := range n.Out {
			s.nodePorts[off+len(n.In)+i] = int32(p.ID)
		}
	}
	for _, p := range g.Ports {
		if p.Rank > maxRank {
			maxRank = p.Rank
		}
	}
	s.idLab = scr.int32s(maxRank + 1)
	for i := range s.idLab {
		s.idLab[i] = -1
	}
	return s
}

// cand returns a port's candidate label IDs.
func (s *asSolver) cand(pid int) []int32 {
	base := pid * maxCandidates
	return s.candBuf[base : base+int(s.candLen[pid])]
}

// cfgRow returns one configuration row of a node: its In labels
// followed by its Out labels.
func (s *asSolver) cfgRow(nid int, ci int32) []int32 {
	w := int(s.cfgW[nid])
	off := int(s.cfgOff[nid]) + int(ci)*w
	return s.scr.cfgBuf[off : off+w]
}

// ilab interns the identity label of a rank, memoized per solve.
func (s *asSolver) ilab(rank int) int32 {
	if id := s.idLab[rank]; id >= 0 {
		return id
	}
	id := s.tab.intern(identityLabelCached(rank))
	s.idLab[rank] = id
	return id
}

func (s *asSolver) addCand(p *adg.Port, l ASLabel) bool {
	if len(l.AxisMap) != p.Rank || int(s.candLen[p.ID]) >= maxCandidates {
		return false
	}
	id := s.tab.intern(l)
	base := p.ID * maxCandidates
	n := int(s.candLen[p.ID])
	for _, c := range s.candBuf[base : base+n] {
		if c == id {
			return false
		}
	}
	s.candBuf[base+n] = id
	s.candLen[p.ID]++
	return true
}

const maxCandidates = 12

// generateCandidates seeds every port with the identity label for its
// rank and propagates labels through node transfer functions and across
// edges until fixpoint. Propagation is incremental twice over: each edge
// remembers how many of its endpoint's candidates it has already copied,
// and each node transfer-function site (a directed port→port derivation)
// keeps its own cursor into the source port's candidate list — so a node
// revisit re-derives only from candidates that appeared since the site
// last ran, never rescanning the whole set.
func (s *asSolver) generateCandidates() error {
	for _, p := range s.g.Ports {
		s.addCand(p, identityLabelCached(p.Rank))
	}
	scr := s.scr
	srcDone := scr.int32s(len(s.g.Edges))
	dstDone := scr.int32s(len(s.g.Edges))
	lastSeen := scr.int32s(len(s.g.Nodes)) // Σ candLen over the node's ports
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	portSum := func(n *adg.Node) int32 {
		var c int32
		for _, p := range n.In {
			c += s.candLen[p.ID]
		}
		for _, p := range n.Out {
			c += s.candLen[p.ID]
		}
		return c
	}
	changed := true
	for rounds := 0; changed && rounds < 64; rounds++ {
		changed = false
		// Across edges: copy only the candidates that appeared since the
		// edge was last processed.
		for _, e := range s.g.Edges {
			src := s.cand(e.Src.ID)
			for _, id := range src[srcDone[e.ID]:] {
				l := s.tab.label(id)
				if compatibleSpaces(l, e.Dst) && s.addCand(e.Dst, l) {
					changed = true
				}
			}
			srcDone[e.ID] = int32(len(src))
			dst := s.cand(e.Dst.ID)
			for _, id := range dst[dstDone[e.ID]:] {
				l := s.tab.label(id)
				if compatibleSpaces(l, e.Src) && s.addCand(e.Src, l) {
					changed = true
				}
			}
			dstDone[e.ID] = int32(len(dst))
		}
		// Through nodes: transfer functions both ways, only where a port
		// gained candidates.
		for _, n := range s.g.Nodes {
			cnt := portSum(n)
			if cnt == lastSeen[n.ID] {
				continue
			}
			lastSeen[n.ID] = cnt
			if s.propagateNode(n) {
				changed = true
			}
		}
	}
	return nil
}

// compatibleSpaces checks that a label's mobile strides only reference
// LIVs in scope at the port.
func compatibleSpaces(l ASLabel, p *adg.Port) bool {
	ok := true
	for _, st := range l.Stride {
		if st.IsConst() {
			continue
		}
		st.EachTerm(func(tm expr.Term) bool {
			for _, liv := range p.Space.LIVs {
				if liv == tm.Var {
					return true
				}
			}
			ok = false
			return false
		})
		if !ok {
			return false
		}
	}
	return true
}

// portAt returns the node's i-th port in row order (inputs then
// outputs).
func portAt(n *adg.Node, i int) *adg.Port {
	if i < len(n.In) {
		return n.In[i]
	}
	return n.Out[i-len(n.In)]
}

// propagateNode derives new candidate labels for a node's ports from the
// labels of its other ports using the node's constraint. Each derivation
// site consumes only the source candidates added since its last run
// (tracked in siteDone); derivations are deterministic and addCand
// rejections are permanent, so skipping the processed prefix yields
// exactly the additions a full rescan would, in the same order.
func (s *asSolver) propagateNode(n *adg.Node) bool {
	changed := false
	done := s.siteDone[s.siteOff[n.ID]:s.siteOff[n.ID+1]]
	add := func(p *adg.Port, l ASLabel) {
		if compatibleSpaces(l, p) && s.addCand(p, l) {
			changed = true
		}
	}
	// news returns the unprocessed suffix of port p's candidates for
	// site si and advances the site's cursor.
	news := func(si int, p *adg.Port) []int32 {
		ids := s.cand(p.ID)
		k := done[si]
		done[si] = int32(len(ids))
		return ids[k:]
	}
	switch n.Kind {
	case adg.KindOp, adg.KindMerge, adg.KindFanout, adg.KindBranch:
		// Equal labels on all ports of the same rank.
		np := len(n.In) + len(n.Out)
		for pi := 0; pi < np; pi++ {
			p := portAt(n, pi)
			ids := news(pi, p)
			if len(ids) == 0 {
				continue
			}
			for qi := 0; qi < np; qi++ {
				q := portAt(n, qi)
				if qi == pi || q.Rank != p.Rank {
					continue
				}
				for _, id := range ids {
					add(q, s.tab.label(id))
				}
			}
		}
	case adg.KindXform:
		// Strides transform by LIV substitution; same axis map.
		in, out := n.In[0], n.Out[0]
		x := n.Xform
		for _, id := range news(0, out) {
			if m, ok := xformInLabel(s.tab.label(id), x); ok {
				add(in, m)
			}
		}
		for _, id := range news(1, in) {
			if m, ok := xformOutLabel(s.tab.label(id), x); ok {
				add(out, m)
			}
		}
	case adg.KindTranspose:
		in, out := n.In[0], n.Out[0]
		for _, id := range news(0, in) {
			add(out, transposeLabel(s.tab.label(id)))
		}
		for _, id := range news(1, out) {
			add(in, transposeLabel(s.tab.label(id)))
		}
	case adg.KindSection:
		s.propagateSection(n, n.In[0], n.Out[0], done[0:2], &changed)
	case adg.KindSectionAssign:
		// out ~ in0 identical; in1 is the section of in0.
		for _, id := range news(0, n.In[0]) {
			add(n.Out[0], s.tab.label(id))
		}
		for _, id := range news(1, n.Out[0]) {
			add(n.In[0], s.tab.label(id))
		}
		s.propagateSection(n, n.In[0], n.In[1], done[2:4], &changed)
	case adg.KindSpread:
		in, out := n.In[0], n.Out[0]
		for _, id := range news(0, in) {
			if m, ok := spreadLabelMark(s.tab.label(id), n.SpreadDim, s.g.TemplateRank, &s.scr.mark); ok {
				add(out, m)
			}
		}
		for _, id := range news(1, out) {
			add(in, unspreadLabel(s.tab.label(id), n.SpreadDim))
		}
	case adg.KindReduce:
		in, out := n.In[0], n.Out[0]
		for _, id := range news(0, in) {
			if n.ReduceDim == 0 {
				continue
			}
			add(out, reduceLabel(s.tab.label(id), n.ReduceDim))
		}
	case adg.KindGather:
		// The gathered axis is unconstrained; non-vector dims behave as a
		// section. Keep identity candidates only (general communication
		// is intrinsic to the gather).
	}
	return changed
}

func (s *asSolver) propagateSection(n *adg.Node, in, out *adg.Port, done []int32, changed *bool) {
	add := func(p *adg.Port, l ASLabel) {
		if compatibleSpaces(l, p) && s.addCand(p, l) {
			*changed = true
		}
	}
	ids := s.cand(in.ID)
	k := done[0]
	done[0] = int32(len(ids))
	for _, id := range ids[k:] {
		if m, ok := sectionLabel(s.tab.label(id), n.Section); ok {
			add(out, m)
		}
	}
	ids = s.cand(out.ID)
	k = done[1]
	done[1] = int32(len(ids))
	for _, id := range ids[k:] {
		if m, ok := unsectionLabelMark(s.tab.label(id), n.Section, in.Rank, &s.scr.mark); ok {
			add(in, m)
		}
	}
}

// sectionLabel maps an input label through a section: range dims keep
// their axis with stride multiplied by the subscript step; index dims
// drop out.
func sectionLabel(l ASLabel, spec *adg.SectionSpec) (ASLabel, bool) {
	var out ASLabel
	for d, sub := range spec.Subs {
		if sub.IsVector {
			return ASLabel{}, false
		}
		if !sub.IsRange {
			continue
		}
		st, ok := mulAffine(sub.Step, l.Stride[d])
		if !ok {
			return ASLabel{}, false
		}
		out.AxisMap = append(out.AxisMap, l.AxisMap[d])
		out.Stride = append(out.Stride, st)
	}
	return out, true
}

// unsectionLabel maps a section label back to the whole array: the input
// dim of each range gets stride = sectionStride/step when that division
// is exact; other dims keep axis identity with stride 1 on an unused
// template axis.
func unsectionLabel(l ASLabel, spec *adg.SectionSpec, inRank int) (ASLabel, bool) {
	var m axisMark
	return unsectionLabelMark(l, spec, inRank, &m)
}

// unsectionLabelMark is unsectionLabel with the used-axis set tracked in
// an epoch-stamped axisMark owned by the caller instead of a fresh
// map[int]bool per call.
func unsectionLabelMark(l ASLabel, spec *adg.SectionSpec, inRank int, m *axisMark) (ASLabel, bool) {
	out := ASLabel{AxisMap: make([]int, inRank), Stride: make([]expr.Affine, inRank)}
	m.begin(inRank + 8)
	j := 0
	for d, sub := range spec.Subs {
		if sub.IsVector {
			return ASLabel{}, false
		}
		if sub.IsRange {
			st, ok := divAffine(l.Stride[j], sub.Step)
			if !ok {
				return ASLabel{}, false
			}
			out.AxisMap[d] = l.AxisMap[j]
			out.Stride[d] = st
			m.mark(l.AxisMap[j])
			j++
		}
	}
	next := 0
	for d, sub := range spec.Subs {
		if sub.IsRange {
			continue
		}
		for m.used(next) {
			next++
		}
		out.AxisMap[d] = next
		m.mark(next)
		out.Stride[d] = expr.Const(1)
	}
	return out, true
}

func transposeLabel(l ASLabel) ASLabel {
	return ASLabel{
		AxisMap: []int{l.AxisMap[1], l.AxisMap[0]},
		Stride:  []expr.Affine{l.Stride[1], l.Stride[0]},
	}
}

func spreadLabel(l ASLabel, dim, templateRank int) (ASLabel, bool) {
	var m axisMark
	return spreadLabelMark(l, dim, templateRank, &m)
}

// spreadLabelMark is spreadLabel with the used-axis set tracked in an
// epoch-stamped axisMark owned by the caller.
func spreadLabelMark(l ASLabel, dim, templateRank int, m *axisMark) (ASLabel, bool) {
	m.begin(templateRank + len(l.AxisMap) + 1)
	for _, a := range l.AxisMap {
		m.mark(a)
	}
	newAxis := -1
	for t := 0; t < templateRank; t++ {
		if !m.used(t) {
			newAxis = t
			break
		}
	}
	if newAxis < 0 {
		return ASLabel{}, false
	}
	out := ASLabel{}
	out.AxisMap = append(out.AxisMap, l.AxisMap[:dim-1]...)
	out.AxisMap = append(out.AxisMap, newAxis)
	out.AxisMap = append(out.AxisMap, l.AxisMap[dim-1:]...)
	out.Stride = append(out.Stride, l.Stride[:dim-1]...)
	out.Stride = append(out.Stride, expr.Const(1))
	out.Stride = append(out.Stride, l.Stride[dim-1:]...)
	return out, true
}

func unspreadLabel(l ASLabel, dim int) ASLabel {
	out := ASLabel{}
	out.AxisMap = append(out.AxisMap, l.AxisMap[:dim-1]...)
	out.AxisMap = append(out.AxisMap, l.AxisMap[dim:]...)
	out.Stride = append(out.Stride, l.Stride[:dim-1]...)
	out.Stride = append(out.Stride, l.Stride[dim:]...)
	return out
}

func reduceLabel(l ASLabel, dim int) ASLabel {
	out := ASLabel{}
	out.AxisMap = append(out.AxisMap, l.AxisMap[:dim-1]...)
	out.AxisMap = append(out.AxisMap, l.AxisMap[dim:]...)
	out.Stride = append(out.Stride, l.Stride[:dim-1]...)
	out.Stride = append(out.Stride, l.Stride[dim:]...)
	return out
}

// xformInLabel maps an inside-loop label to the label the input port must
// carry so the transformer constraint holds; strides are affine in LIVs,
// so entering substitutes k := lo, loop-back substitutes k := k+step, and
// exit strips nothing (exit's input is the inside port).
func xformInLabel(out ASLabel, x *adg.XformSpec) (ASLabel, bool) {
	in := ASLabel{AxisMap: append([]int{}, out.AxisMap...)}
	for _, st := range out.Stride {
		var m expr.Affine
		switch x.Kind {
		case adg.XformEntry:
			m = st.Subst(x.LIV, x.Lo)
		case adg.XformLoopBack:
			m = st.Subst(x.LIV, expr.Var(x.LIV).Add(x.Step))
		case adg.XformExit:
			m = st
		}
		in.Stride = append(in.Stride, m)
	}
	return in, true
}

func xformOutLabel(in ASLabel, x *adg.XformSpec) (ASLabel, bool) {
	out := ASLabel{AxisMap: append([]int{}, in.AxisMap...)}
	for _, st := range in.Stride {
		var m expr.Affine
		switch x.Kind {
		case adg.XformEntry:
			m = st // a constant-in-k stride is valid inside as well
		case adg.XformLoopBack:
			m = st.Subst(x.LIV, expr.Var(x.LIV).Sub(x.Step))
		case adg.XformExit:
			m = st.Subst(x.LIV, lastIterate(x))
		}
		out.Stride = append(out.Stride, m)
	}
	return out, true
}

// lastIterate returns the affine form of the loop's final LIV value.
func lastIterate(x *adg.XformSpec) expr.Affine { return x.LastIterate() }

func mulAffine(a, b expr.Affine) (expr.Affine, bool) {
	if a.IsConst() {
		return b.Scale(a.ConstPart()), true
	}
	if b.IsConst() {
		return a.Scale(b.ConstPart()), true
	}
	return expr.Affine{}, false // product would be quadratic
}

func divAffine(a, b expr.Affine) (expr.Affine, bool) {
	if b.IsConst() {
		d := b.ConstPart()
		if d == 0 {
			return expr.Affine{}, false
		}
		if a.ConstPart()%d != 0 {
			return expr.Affine{}, false
		}
		out := expr.Const(a.ConstPart() / d)
		for _, t := range a.Terms() {
			if t.Coef%d != 0 {
				return expr.Affine{}, false
			}
			out = out.Add(expr.Axpy(t.Coef/d, t.Var, 0))
		}
		return out, true
	}
	// b mobile: exact only if a = c·b.
	bt := b.Terms()
	if b.ConstPart() == 0 && len(bt) == 1 && a.ConstPart() == 0 {
		at := a.Terms()
		if len(at) == 1 && at[0].Var == bt[0].Var && at[0].Coef%bt[0].Coef == 0 {
			return expr.Const(at[0].Coef / bt[0].Coef), true
		}
	}
	return expr.Affine{}, false
}

// buildNodeConfigs enumerates, per node, the feasible joint labelings of
// its ports drawn from the candidate sets, and precomputes the flat
// incidence, evaluation, and match tables the optimization runs on.
func (s *asSolver) buildNodeConfigs() error {
	scr := s.scr
	nN, nE := len(s.g.Nodes), len(s.g.Edges)
	s.cfgOff = scr.int32s(nN)
	s.cfgCnt = scr.int32s(nN)
	s.cfgNIn = scr.int32s(nN)
	s.cfgW = scr.int32s(nN)
	s.wts = scr.floats(nE)
	s.ends = scr.int32s(2 * nE)
	for _, e := range s.g.Edges {
		s.wts[e.ID] = e.ExpectedWeight()
		s.ends[2*e.ID] = int32(e.Src.ID)
		s.ends[2*e.ID+1] = int32(e.Dst.ID)
	}
	s.maxCfg = 0
	for _, n := range s.g.Nodes {
		cnt := s.enumConfigs(n)
		if cnt == 0 {
			return fmt.Errorf("align: no feasible axis/stride configuration for node %d (%s %q)", n.ID, n.Kind, n.Label)
		}
		if cnt > s.maxCfg {
			s.maxCfg = cnt
		}
	}
	s.incOff = scr.int32s(nN + 1)
	scr.inc = scr.inc[:0]
	for _, n := range s.g.Nodes {
		s.incOff[n.ID] = int32(len(scr.inc))
		nIn := len(n.In)
		for i, p := range n.In {
			e := p.Edge
			if e.Src.Node == n {
				// Self-loop: register once, from the input side.
				scr.inc = append(scr.inc, incEdge{
					w: s.wts[e.ID], eid: int32(e.ID), selfLoop: true,
					selfPos: int32(nIn + e.Src.Index), dstPos: int32(i),
				})
				continue
			}
			scr.inc = append(scr.inc, incEdge{
				w: s.wts[e.ID], eid: int32(e.ID), peer: int32(e.Src.ID),
				peerNode: int32(e.Src.Node.ID), selfPos: int32(i),
			})
		}
		for i, p := range n.Out {
			e := p.Edge
			if e.Dst.Node == n {
				continue // self-loop, already registered
			}
			scr.inc = append(scr.inc, incEdge{
				w: s.wts[e.ID], eid: int32(e.ID), peer: int32(e.Dst.ID),
				peerNode: int32(e.Dst.Node.ID), selfPos: int32(nIn + i),
			})
		}
	}
	s.incOff[nN] = int32(len(scr.inc))
	s.inc = scr.inc
	// Evaluation table: per node, per incident slot, the node-side value
	// of every configuration.
	s.evalOff = scr.int32s(nN + 1)
	total := 0
	for nid := 0; nid < nN; nid++ {
		s.evalOff[nid] = int32(total)
		total += int(s.incOff[nid+1]-s.incOff[nid]) * int(s.cfgCnt[nid])
	}
	s.evalOff[nN] = int32(total)
	s.evalBuf = scr.int32s(total)
	for nid := 0; nid < nN; nid++ {
		C := int(s.cfgCnt[nid])
		base := int(s.evalOff[nid])
		incs := s.inc[s.incOff[nid]:s.incOff[nid+1]]
		for k := range incs {
			ie := &incs[k]
			row := s.evalBuf[base+k*C : base+(k+1)*C]
			for c := 0; c < C; c++ {
				r := s.cfgRow(nid, int32(c))
				if ie.selfLoop {
					if r[ie.selfPos] != r[ie.dstPos] {
						row[c] = 1
					}
				} else {
					row[c] = r[ie.selfPos]
				}
			}
		}
	}
	// Match table: first configuration carrying each (port, label) pair.
	// Sized after enumeration — enumConfigs can intern labels candidate
	// generation never admitted to a port.
	s.nLabels = int32(s.tab.size())
	s.matchBuf = scr.int32s(len(s.g.Ports) * int(s.nLabels))
	for nid := 0; nid < nN; nid++ {
		ports := s.nodePorts[s.portOff[nid]:s.portOff[nid+1]]
		for ci := int32(0); ci < s.cfgCnt[nid]; ci++ {
			row := s.cfgRow(nid, ci)
			for i, pid := range ports {
				idx := int(pid)*int(s.nLabels) + int(row[i])
				if s.matchBuf[idx] == 0 {
					s.matchBuf[idx] = ci + 1
				}
			}
		}
	}
	return nil
}

// enumConfigs builds feasible configurations by choosing a label for the
// node's "driver" port and deriving the rest via the constraint. Rows
// are appended to the scratch's flat cfgBuf (deduplicated by a linear
// scan of integer compares); the per-node count is returned.
func (s *asSolver) enumConfigs(n *adg.Node) int {
	scr := s.scr
	nIn := len(n.In)
	w := nIn + len(n.Out)
	start := len(scr.cfgBuf)
	nid := n.ID
	s.cfgOff[nid] = int32(start)
	s.cfgNIn[nid] = int32(nIn)
	s.cfgW[nid] = int32(w)
	if cap(scr.rowBuf) < w {
		scr.rowBuf = make([]int32, w+8)
	}
	row := scr.rowBuf[:w]
	count := 0
	push := func() {
		for c := 0; c < count; c++ {
			if equalIDs(scr.cfgBuf[start+c*w:start+(c+1)*w], row) {
				return
			}
		}
		scr.cfgBuf = append(scr.cfgBuf, row...)
		count++
	}
	switch n.Kind {
	case adg.KindSource, adg.KindSink:
		p := n.In
		if len(p) == 0 {
			p = n.Out
		}
		for _, id := range s.cand(p[0].ID) {
			row[0] = id
			push()
		}
	case adg.KindOp, adg.KindMerge, adg.KindFanout, adg.KindBranch:
		// All equal-rank ports share a label; lower-rank (scalar) ports
		// are unconstrained — give them the identity label.
		rank := 0
		for _, p := range n.In {
			if p.Rank > rank {
				rank = p.Rank
			}
		}
		for _, p := range n.Out {
			if p.Rank > rank {
				rank = p.Rank
			}
		}
		driver := n.Out[0]
		for _, id := range s.cand(driver.ID) {
			l := s.tab.label(id)
			ok := true
			for i, p := range n.In {
				if p.Rank == rank {
					if !compatibleSpaces(l, p) {
						ok = false
						break
					}
					row[i] = id
				} else {
					row[i] = s.ilab(p.Rank)
				}
			}
			if !ok {
				continue
			}
			for i, p := range n.Out {
				if p.Rank == rank {
					row[nIn+i] = id
				} else {
					row[nIn+i] = s.ilab(p.Rank)
				}
			}
			push()
		}
	case adg.KindXform:
		if n.Xform.Kind == adg.XformExit {
			// The inner (input) side drives: the output is the input
			// evaluated at the final iterate.
			for _, id := range s.cand(n.In[0].ID) {
				m, ok := xformOutLabel(s.tab.label(id), n.Xform)
				if ok && compatibleSpaces(m, n.Out[0]) {
					row[0] = id
					row[1] = s.tab.intern(m)
					push()
				}
			}
			break
		}
		for _, id := range s.cand(n.Out[0].ID) {
			m, ok := xformInLabel(s.tab.label(id), n.Xform)
			if ok && compatibleSpaces(m, n.In[0]) {
				row[0] = s.tab.intern(m)
				row[1] = id
				push()
			}
		}
	case adg.KindTranspose:
		for _, id := range s.cand(n.In[0].ID) {
			m := transposeLabel(s.tab.label(id))
			row[0] = id
			row[1] = s.tab.intern(m)
			push()
		}
	case adg.KindSection:
		for _, id := range s.cand(n.In[0].ID) {
			m, ok := sectionLabel(s.tab.label(id), n.Section)
			if ok {
				row[0] = id
				row[1] = s.tab.intern(m)
				push()
			}
		}
	case adg.KindSectionAssign:
		for _, id := range s.cand(n.In[0].ID) {
			m, ok := sectionLabel(s.tab.label(id), n.Section)
			if ok {
				row[0] = id
				row[1] = s.tab.intern(m)
				row[2] = id
				push()
			}
		}
	case adg.KindSpread:
		for _, id := range s.cand(n.In[0].ID) {
			m, ok := spreadLabelMark(s.tab.label(id), n.SpreadDim, s.g.TemplateRank, &s.scr.mark)
			if ok {
				row[0] = id
				row[1] = s.tab.intern(m)
				push()
			}
		}
	case adg.KindReduce:
		for _, id := range s.cand(n.In[0].ID) {
			row[0] = id
			if n.ReduceDim == 0 {
				row[1] = s.ilab(0)
			} else {
				m := reduceLabel(s.tab.label(id), n.ReduceDim)
				row[1] = s.tab.intern(m)
			}
			push()
		}
	case adg.KindGather:
		// Inputs and output keep their own labels; gather communication
		// is intrinsic. Use identity everywhere as the single config.
		for i, p := range n.In {
			row[i] = s.ilab(p.Rank)
		}
		for i, p := range n.Out {
			row[nIn+i] = s.ilab(p.Rank)
		}
		push()
	}
	s.cfgCnt[nid] = int32(count)
	return count
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// perturbIndex deterministically scatters restart seeds over the config
// space (splitmix64-style mixing; no runtime randomness, so every run and
// every parallelism level sees the same starts).
func perturbIndex(seed, node, n int) int {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(node)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// optimize chooses a configuration per node minimizing the total
// discrete-metric edge cost: multi-start iterated best-response (two
// canonical seeds plus perturbed restarts), augmented with
// chain-expansion moves (re-labeling a whole zero-cost region at once)
// that escape the local optima single-node moves cannot. All start
// states are carved from the scratch arena up front (disjoint regions),
// then the starts run concurrently on a bounded worker pool; the winner
// is the lowest-cost start with the lowest seed index, so the outcome is
// identical at every parallelism level.
func (s *asSolver) optimize(opts AxisStrideOptions) (DPStats, error) {
	nStarts := 2 + opts.Restarts
	scr := s.scr
	if cap(scr.states) < nStarts {
		scr.states = make([]dpState, nStarts)
	}
	scr.states = scr.states[:nStarts]
	states := scr.states
	for i := range states {
		s.carveState(&states[i])
	}
	if par := min(opts.Parallelism, nStarts); par <= 1 {
		for seed := range states {
			states[seed].init(seed)
			states[seed].run(opts.ctx)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, par)
		for seed := range states {
			wg.Add(1)
			sem <- struct{}{}
			go func(seed int) {
				defer func() { <-sem; wg.Done() }()
				states[seed].init(seed)
				states[seed].run(opts.ctx)
			}(seed)
		}
		wg.Wait()
	}
	// A canceled solve returns the context's error rather than a labeling
	// chosen from aborted starts (their trajectories stopped early, so the
	// winner would not be the deterministic one).
	if opts.ctx != nil {
		if err := opts.ctx.Err(); err != nil {
			var stats DPStats
			for i := range states {
				stats.add(states[i].stats)
			}
			return stats, err
		}
	}
	best := 0
	var stats DPStats
	for i := range states {
		stats.add(states[i].stats)
		if states[i].cost < states[best].cost {
			best = i
		}
	}
	s.best = states[best].cfg
	s.bestLab = states[best].lab
	return stats, nil
}

func (s *asSolver) totalCost(lab []int32) float64 {
	var c float64
	for eid := 0; eid < len(s.wts); eid++ {
		if lab[s.ends[2*eid]] != lab[s.ends[2*eid+1]] {
			c += s.wts[eid]
		}
	}
	return c
}
