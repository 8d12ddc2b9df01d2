package align

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/adg"
)

// AxisStrideInterned solves the §3 problem with the interned-label
// solver exactly as it stood before the flat-state rebuild: candidate
// sets and configurations are per-node slices of interned label IDs
// ([]int32 / []inCfg), every optimization start allocates its own
// startState slices, and expansion passes scan a node's configuration
// list to match a wavefront label. It is retained solely as the
// measured baseline for BenchmarkAxisStride's flat-vs-interned speedup
// gate and as an oracle for TestDPStateDeterminism (the flat solver
// must reproduce its labelings byte for byte). New code should call
// AxisStride.
func AxisStrideInterned(g *adg.Graph) (*AxisStrideResult, error) {
	return AxisStrideInternedOpts(g, AxisStrideOptions{})
}

// AxisStrideInternedOpts is AxisStrideInterned with explicit options
// (Parallelism, Restarts, and ctx are honored).
func AxisStrideInternedOpts(g *adg.Graph, opts AxisStrideOptions) (*AxisStrideResult, error) {
	opts = opts.withDefaults()
	s := &inSolver{g: g, tab: newInternTable(), cands: make([][]int32, len(g.Ports))}
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
	for _, cfgs := range s.cfgs {
		stats.Configs += len(cfgs)
	}
	res := &AxisStrideResult{Labels: map[int]ASLabel{}, Stats: stats}
	lab := make([]int32, len(g.Ports))
	for _, n := range g.Nodes {
		cfg := s.cfgs[n.ID][s.best[n.ID]]
		for i, p := range n.In {
			lab[p.ID] = cfg.in[i]
			res.Labels[p.ID] = s.tab.label(cfg.in[i])
		}
		for i, p := range n.Out {
			lab[p.ID] = cfg.out[i]
			res.Labels[p.ID] = s.tab.label(cfg.out[i])
		}
	}
	for _, e := range g.Edges {
		if lab[e.Src.ID] != lab[e.Dst.ID] {
			res.Cost += e.TotalWeight()
			res.GeneralEdges = append(res.GeneralEdges, e)
		}
	}
	return res, nil
}

type inSolver struct {
	g     *adg.Graph
	tab   *internTable
	cands [][]int32     // port ID → candidate label IDs
	cfgs  [][]inCfg     // node ID → feasible configurations
	best  []int         // chosen config index per node ID
	wts   []float64     // edge ID → control-weighted total weight
	ends  [][2]int32    // edge ID → (src port ID, dst port ID)
	inc   [][]inIncEdge // node ID → incident edges (each edge once)
}

// inCfg is a node configuration over interned label IDs.
type inCfg struct {
	in, out []int32
}

// inIncEdge is one edge incident on a node in the baseline's
// pointer-free incidence structure.
type inIncEdge struct {
	w        float64
	eid      int32 // edge ID (delta-cost dedup in expansion passes)
	peer     int32 // peer port ID (label index), unused for selfLoop
	selfOut  bool  // this node's endpoint is an output port
	selfIdx  int32 // index of this node's endpoint among In or Out
	selfLoop bool
	dstIdx   int32 // selfLoop: input-port index of the edge's Dst
}

func (c inCfg) labelAt(out bool, idx int32) int32 {
	if out {
		return c.out[idx]
	}
	return c.in[idx]
}

func (s *inSolver) addCand(p *adg.Port, l ASLabel) bool {
	if len(l.AxisMap) != p.Rank || len(s.cands[p.ID]) >= maxCandidates {
		return false
	}
	id := s.tab.intern(l)
	for _, c := range s.cands[p.ID] {
		if c == id {
			return false
		}
	}
	s.cands[p.ID] = append(s.cands[p.ID], id)
	return true
}

// generateCandidates seeds every port with the identity label for its
// rank and propagates labels through node transfer functions and across
// edges until fixpoint. Propagation is incremental across edges (each
// edge remembers how many endpoint candidates it has copied) but a node
// revisit re-derives from all of its ports' candidates — the flat
// solver's per-site cursors are the optimization this baseline freezes
// out.
func (s *inSolver) generateCandidates() error {
	for _, p := range s.g.Ports {
		s.addCand(p, identityLabel(p.Rank))
	}
	srcDone := make([]int, len(s.g.Edges))
	dstDone := make([]int, len(s.g.Edges))
	lastSeen := make([]int, len(s.g.Nodes)) // Σ len(cands) over the node's ports
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	portSum := func(n *adg.Node) int {
		c := 0
		for _, p := range n.In {
			c += len(s.cands[p.ID])
		}
		for _, p := range n.Out {
			c += len(s.cands[p.ID])
		}
		return c
	}
	changed := true
	for rounds := 0; changed && rounds < 64; rounds++ {
		changed = false
		for _, e := range s.g.Edges {
			src := s.cands[e.Src.ID]
			for _, id := range src[srcDone[e.ID]:] {
				l := s.tab.label(id)
				if compatibleSpaces(l, e.Dst) && s.addCand(e.Dst, l) {
					changed = true
				}
			}
			srcDone[e.ID] = len(src)
			dst := s.cands[e.Dst.ID]
			for _, id := range dst[dstDone[e.ID]:] {
				l := s.tab.label(id)
				if compatibleSpaces(l, e.Src) && s.addCand(e.Src, l) {
					changed = true
				}
			}
			dstDone[e.ID] = len(dst)
		}
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

// propagateNode derives new candidate labels for a node's ports from the
// labels of its other ports using the node's constraint.
func (s *inSolver) propagateNode(n *adg.Node) bool {
	changed := false
	add := func(p *adg.Port, l ASLabel) {
		if compatibleSpaces(l, p) && s.addCand(p, l) {
			changed = true
		}
	}
	switch n.Kind {
	case adg.KindOp, adg.KindMerge, adg.KindFanout, adg.KindBranch:
		all := append(append([]*adg.Port{}, n.In...), n.Out...)
		for _, p := range all {
			for _, q := range all {
				if p == q || p.Rank != q.Rank {
					continue
				}
				for _, id := range s.cands[p.ID] {
					add(q, s.tab.label(id))
				}
			}
		}
	case adg.KindXform:
		in, out := n.In[0], n.Out[0]
		x := n.Xform
		for _, id := range s.cands[out.ID] {
			if m, ok := xformInLabel(s.tab.label(id), x); ok {
				add(in, m)
			}
		}
		for _, id := range s.cands[in.ID] {
			if m, ok := xformOutLabel(s.tab.label(id), x); ok {
				add(out, m)
			}
		}
	case adg.KindTranspose:
		in, out := n.In[0], n.Out[0]
		for _, id := range s.cands[in.ID] {
			add(out, transposeLabel(s.tab.label(id)))
		}
		for _, id := range s.cands[out.ID] {
			add(in, transposeLabel(s.tab.label(id)))
		}
	case adg.KindSection:
		s.propagateSection(n, n.In[0], n.Out[0], &changed)
	case adg.KindSectionAssign:
		for _, id := range s.cands[n.In[0].ID] {
			add(n.Out[0], s.tab.label(id))
		}
		for _, id := range s.cands[n.Out[0].ID] {
			add(n.In[0], s.tab.label(id))
		}
		s.propagateSection(n, n.In[0], n.In[1], &changed)
	case adg.KindSpread:
		in, out := n.In[0], n.Out[0]
		for _, id := range s.cands[in.ID] {
			if m, ok := spreadLabel(s.tab.label(id), n.SpreadDim, s.g.TemplateRank); ok {
				add(out, m)
			}
		}
		for _, id := range s.cands[out.ID] {
			add(in, unspreadLabel(s.tab.label(id), n.SpreadDim))
		}
	case adg.KindReduce:
		in, out := n.In[0], n.Out[0]
		for _, id := range s.cands[in.ID] {
			if n.ReduceDim == 0 {
				continue
			}
			add(out, reduceLabel(s.tab.label(id), n.ReduceDim))
		}
	case adg.KindGather:
	}
	return changed
}

func (s *inSolver) propagateSection(n *adg.Node, in, out *adg.Port, changed *bool) {
	add := func(p *adg.Port, l ASLabel) {
		if compatibleSpaces(l, p) && s.addCand(p, l) {
			*changed = true
		}
	}
	for _, id := range s.cands[in.ID] {
		if m, ok := sectionLabel(s.tab.label(id), n.Section); ok {
			add(out, m)
		}
	}
	for _, id := range s.cands[out.ID] {
		if m, ok := unsectionLabel(s.tab.label(id), n.Section, in.Rank); ok {
			add(in, m)
		}
	}
}

// buildNodeConfigs enumerates, per node, the feasible joint labelings of
// its ports drawn from the candidate sets, and precomputes the incidence
// structure the optimization sweeps over.
func (s *inSolver) buildNodeConfigs() error {
	s.cfgs = make([][]inCfg, len(s.g.Nodes))
	s.wts = make([]float64, len(s.g.Edges))
	s.ends = make([][2]int32, len(s.g.Edges))
	for _, e := range s.g.Edges {
		s.wts[e.ID] = e.ExpectedWeight()
		s.ends[e.ID] = [2]int32{int32(e.Src.ID), int32(e.Dst.ID)}
	}
	for _, n := range s.g.Nodes {
		cfgs := s.enumConfigs(n)
		if len(cfgs) == 0 {
			return fmt.Errorf("align: no feasible axis/stride configuration for node %d (%s %q)", n.ID, n.Kind, n.Label)
		}
		s.cfgs[n.ID] = cfgs
	}
	s.inc = make([][]inIncEdge, len(s.g.Nodes))
	for _, n := range s.g.Nodes {
		for i, p := range n.In {
			e := p.Edge
			if e.Src.Node == n {
				s.inc[n.ID] = append(s.inc[n.ID], inIncEdge{
					w: s.wts[e.ID], eid: int32(e.ID), selfLoop: true,
					selfOut: true, selfIdx: int32(e.Src.Index), dstIdx: int32(i),
				})
				continue
			}
			s.inc[n.ID] = append(s.inc[n.ID], inIncEdge{
				w: s.wts[e.ID], eid: int32(e.ID), peer: int32(e.Src.ID), selfOut: false, selfIdx: int32(i),
			})
		}
		for i, p := range n.Out {
			e := p.Edge
			if e.Dst.Node == n {
				continue // self-loop, already registered
			}
			s.inc[n.ID] = append(s.inc[n.ID], inIncEdge{
				w: s.wts[e.ID], eid: int32(e.ID), peer: int32(e.Dst.ID), selfOut: true, selfIdx: int32(i),
			})
		}
	}
	return nil
}

// enumConfigs builds feasible configurations by choosing a label for the
// node's "driver" port and deriving the rest via the constraint.
func (s *inSolver) enumConfigs(n *adg.Node) []inCfg {
	var out []inCfg
	push := func(cfg inCfg, ok bool) {
		if !ok {
			return
		}
		for _, c := range out {
			if equalIDs(c.in, cfg.in) && equalIDs(c.out, cfg.out) {
				return
			}
		}
		out = append(out, cfg)
	}
	ilabel := func(rank int) int32 { return s.tab.intern(identityLabel(rank)) }
	switch n.Kind {
	case adg.KindSource, adg.KindSink:
		p := n.In
		if len(p) == 0 {
			p = n.Out
		}
		for _, id := range s.cands[p[0].ID] {
			cfg := inCfg{}
			if len(n.In) > 0 {
				cfg.in = []int32{id}
			} else {
				cfg.out = []int32{id}
			}
			push(cfg, true)
		}
	case adg.KindOp, adg.KindMerge, adg.KindFanout, adg.KindBranch:
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
		for _, id := range s.cands[driver.ID] {
			l := s.tab.label(id)
			cfg := inCfg{in: make([]int32, 0, len(n.In)), out: make([]int32, 0, len(n.Out))}
			ok := true
			for _, p := range n.In {
				if p.Rank == rank {
					if !compatibleSpaces(l, p) {
						ok = false
						break
					}
					cfg.in = append(cfg.in, id)
				} else {
					cfg.in = append(cfg.in, ilabel(p.Rank))
				}
			}
			if !ok {
				continue
			}
			for _, p := range n.Out {
				if p.Rank == rank {
					cfg.out = append(cfg.out, id)
				} else {
					cfg.out = append(cfg.out, ilabel(p.Rank))
				}
			}
			push(cfg, true)
		}
	case adg.KindXform:
		if n.Xform.Kind == adg.XformExit {
			for _, id := range s.cands[n.In[0].ID] {
				m, ok := xformOutLabel(s.tab.label(id), n.Xform)
				if ok && compatibleSpaces(m, n.Out[0]) {
					push(inCfg{in: []int32{id}, out: []int32{s.tab.intern(m)}}, true)
				}
			}
			break
		}
		for _, id := range s.cands[n.Out[0].ID] {
			m, ok := xformInLabel(s.tab.label(id), n.Xform)
			if ok && compatibleSpaces(m, n.In[0]) {
				push(inCfg{in: []int32{s.tab.intern(m)}, out: []int32{id}}, true)
			}
		}
	case adg.KindTranspose:
		for _, id := range s.cands[n.In[0].ID] {
			m := transposeLabel(s.tab.label(id))
			push(inCfg{in: []int32{id}, out: []int32{s.tab.intern(m)}}, true)
		}
	case adg.KindSection:
		for _, id := range s.cands[n.In[0].ID] {
			m, ok := sectionLabel(s.tab.label(id), n.Section)
			if ok {
				push(inCfg{in: []int32{id}, out: []int32{s.tab.intern(m)}}, true)
			}
		}
	case adg.KindSectionAssign:
		for _, id := range s.cands[n.In[0].ID] {
			m, ok := sectionLabel(s.tab.label(id), n.Section)
			if ok {
				push(inCfg{in: []int32{id, s.tab.intern(m)}, out: []int32{id}}, true)
			}
		}
	case adg.KindSpread:
		for _, id := range s.cands[n.In[0].ID] {
			m, ok := spreadLabel(s.tab.label(id), n.SpreadDim, s.g.TemplateRank)
			if ok {
				push(inCfg{in: []int32{id}, out: []int32{s.tab.intern(m)}}, true)
			}
		}
	case adg.KindReduce:
		for _, id := range s.cands[n.In[0].ID] {
			if n.ReduceDim == 0 {
				push(inCfg{in: []int32{id}, out: []int32{ilabel(0)}}, true)
			} else {
				m := reduceLabel(s.tab.label(id), n.ReduceDim)
				push(inCfg{in: []int32{id}, out: []int32{s.tab.intern(m)}}, true)
			}
		}
	case adg.KindGather:
		cfg := inCfg{}
		for _, p := range n.In {
			cfg.in = append(cfg.in, ilabel(p.Rank))
		}
		for _, p := range n.Out {
			cfg.out = append(cfg.out, ilabel(p.Rank))
		}
		push(cfg, true)
	}
	return out
}

// startState is the per-start mutable state of the baseline: one heap
// slice per concern, allocated fresh for every start of every solve
// (the flat solver replaces all of it with dpState's carved buffers).
type startState struct {
	s     *inSolver
	cfg   []int   // per node: index into s.cfgs[n]
	lab   []int32 // per port: label ID under cfg
	dirty []bool  // per node: must be re-evaluated
	cost  float64
	stats DPStats

	trialCfg  []int
	trialLab  []int32
	nodeEpoch []int32
	edgeEpoch []int32
	epoch     int32
	changed   []int
	queue     []int
}

func newStartState(s *inSolver, seed int) *startState {
	st := &startState{
		s:         s,
		cfg:       make([]int, len(s.g.Nodes)),
		lab:       make([]int32, len(s.g.Ports)),
		dirty:     make([]bool, len(s.g.Nodes)),
		trialCfg:  make([]int, len(s.g.Nodes)),
		trialLab:  make([]int32, len(s.g.Ports)),
		nodeEpoch: make([]int32, len(s.g.Nodes)),
		edgeEpoch: make([]int32, len(s.g.Edges)),
		changed:   make([]int, 0, len(s.g.Nodes)),
		queue:     make([]int, 0, len(s.g.Nodes)),
	}
	for _, n := range s.g.Nodes {
		switch {
		case seed == 0:
			st.cfg[n.ID] = 0
		case seed == 1:
			st.cfg[n.ID] = len(s.cfgs[n.ID]) - 1
		default:
			st.cfg[n.ID] = perturbIndex(seed, n.ID, len(s.cfgs[n.ID]))
		}
		st.applyLabels(n, st.cfg[n.ID], st.lab)
		st.dirty[n.ID] = true
	}
	st.cost = s.totalCost(st.lab)
	return st
}

func (st *startState) applyLabels(n *adg.Node, cfgIdx int, lab []int32) {
	cfg := st.s.cfgs[n.ID][cfgIdx]
	for i, p := range n.In {
		lab[p.ID] = cfg.in[i]
	}
	for i, p := range n.Out {
		lab[p.ID] = cfg.out[i]
	}
}

// incidentCost is the discrete cost of the node's incident edges under
// configuration cfg with all neighbors fixed at lab.
func (st *startState) incidentCost(nid int, cfg inCfg) float64 {
	var c float64
	for _, ie := range st.s.inc[nid] {
		if ie.selfLoop {
			if cfg.out[ie.selfIdx] != cfg.in[ie.dstIdx] {
				c += ie.w
			}
			continue
		}
		if cfg.labelAt(ie.selfOut, ie.selfIdx) != st.lab[ie.peer] {
			c += ie.w
		}
	}
	return c
}

// sweepOnce runs one best-response sweep over the dirty nodes in
// deterministic order (forward on even sweeps, backward on odd ones).
func (st *startState) sweepOnce(sweep int) bool {
	s := st.s
	moved := false
	nn := len(s.g.Nodes)
	for k := 0; k < nn; k++ {
		nid := k
		if sweep%2 == 1 {
			nid = nn - 1 - k
		}
		if !st.dirty[nid] {
			continue
		}
		st.dirty[nid] = false
		cfgs := s.cfgs[nid]
		cur := st.cfg[nid]
		curCost := st.incidentCost(nid, cfgs[cur])
		bestIdx, bestCost := cur, curCost
		for ci := range cfgs {
			if ci == cur {
				continue
			}
			if c := st.incidentCost(nid, cfgs[ci]); c < bestCost {
				bestIdx, bestCost = ci, c
			}
		}
		st.stats.Evals += int64(len(cfgs))
		if bestIdx == cur {
			continue
		}
		st.cfg[nid] = bestIdx
		st.applyLabels(s.g.Nodes[nid], bestIdx, st.lab)
		st.cost += bestCost - curCost
		st.stats.Moves++
		moved = true
		for _, ie := range s.inc[nid] {
			if !ie.selfLoop {
				st.dirty[s.g.Ports[ie.peer].Node.ID] = true
			}
		}
	}
	return moved
}

// optimize is the baseline multi-start schedule: every start allocates
// its own state and all starts always run to their local optimum.
func (s *inSolver) optimize(opts AxisStrideOptions) (DPStats, error) {
	nStarts := 2 + opts.Restarts
	states := make([]*startState, nStarts)
	run := func(seed int) {
		st := newStartState(s, seed)
		st.stats.Starts = 1
		st.run(opts.ctx)
		states[seed] = st
	}
	if par := min(opts.Parallelism, nStarts); par <= 1 {
		for seed := 0; seed < nStarts; seed++ {
			run(seed)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, par)
		for seed := 0; seed < nStarts; seed++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(seed int) {
				defer func() { <-sem; wg.Done() }()
				run(seed)
			}(seed)
		}
		wg.Wait()
	}
	if opts.ctx != nil {
		if err := opts.ctx.Err(); err != nil {
			var stats DPStats
			for _, st := range states {
				stats.add(st.stats)
			}
			return stats, err
		}
	}
	best := 0
	var stats DPStats
	for seed, st := range states {
		stats.add(st.stats)
		if st.cost < states[best].cost {
			best = seed
		}
	}
	s.best = states[best].cfg
	return stats, nil
}

func (st *startState) run(ctx context.Context) {
	canceled := func() bool { return ctx != nil && ctx.Err() != nil }
	for round := 0; round < 12; round++ {
		improved := false
		for sweep := 0; sweep < 60; sweep++ {
			if canceled() {
				return
			}
			st.stats.Sweeps++
			if !st.sweepOnce(sweep) {
				break
			}
			improved = true
		}
		if st.cost == 0 || canceled() {
			return
		}
		if st.expansionPass() {
			improved = true
		}
		if !improved || st.cost == 0 {
			break
		}
	}
}

// expansionPass tries, for every node and every alternative
// configuration, to re-label the node and greedily propagate matching
// configurations across its incident edges; the whole move is accepted
// if it lowers the total cost.
func (st *startState) expansionPass() bool {
	s := st.s
	improvedAny := false
	copy(st.trialCfg, st.cfg)
	copy(st.trialLab, st.lab)
	for _, n := range s.g.Nodes {
		if st.incidentCost(n.ID, s.cfgs[n.ID][st.cfg[n.ID]]) == 0 {
			continue
		}
		for ci := range s.cfgs[n.ID] {
			if ci == st.cfg[n.ID] {
				continue
			}
			st.epoch++
			st.changed = st.changed[:0]
			st.trialCfg[n.ID] = ci
			st.applyLabels(n, ci, st.trialLab)
			st.nodeEpoch[n.ID] = st.epoch
			st.changed = append(st.changed, n.ID)
			st.queue = append(st.queue[:0], n.ID)
			for len(st.queue) > 0 {
				uid := st.queue[0]
				st.queue = st.queue[1:]
				for _, ie := range s.inc[uid] {
					if ie.selfLoop {
						continue
					}
					peerPort := s.g.Ports[ie.peer]
					vid := peerPort.Node.ID
					if st.nodeEpoch[vid] == st.epoch {
						continue
					}
					want := s.cfgs[uid][st.trialCfg[uid]].labelAt(ie.selfOut, ie.selfIdx)
					if st.trialLab[ie.peer] == want {
						continue
					}
					for vci, vc := range s.cfgs[vid] {
						if vc.labelAt(peerPort.Output, int32(peerPort.Index)) == want {
							st.trialCfg[vid] = vci
							st.applyLabels(peerPort.Node, vci, st.trialLab)
							st.nodeEpoch[vid] = st.epoch
							st.changed = append(st.changed, vid)
							st.queue = append(st.queue, vid)
							break
						}
					}
				}
			}
			var delta float64
			for _, uid := range st.changed {
				for _, ie := range s.inc[uid] {
					if st.edgeEpoch[ie.eid] == st.epoch {
						continue
					}
					st.edgeEpoch[ie.eid] = st.epoch
					ends := s.ends[ie.eid]
					if (st.lab[ends[0]] != st.lab[ends[1]]) != (st.trialLab[ends[0]] != st.trialLab[ends[1]]) {
						if st.trialLab[ends[0]] != st.trialLab[ends[1]] {
							delta += ie.w
						} else {
							delta -= ie.w
						}
					}
				}
			}
			if delta < 0 {
				for _, uid := range st.changed {
					st.cfg[uid] = st.trialCfg[uid]
					st.applyLabels(s.g.Nodes[uid], st.trialCfg[uid], st.lab)
					st.dirty[uid] = true
					for _, ie := range s.inc[uid] {
						if !ie.selfLoop {
							st.dirty[s.g.Ports[ie.peer].Node.ID] = true
						}
					}
				}
				st.cost += delta
				st.stats.ExpansionAccepts++
				improvedAny = true
			} else {
				for _, uid := range st.changed {
					st.trialCfg[uid] = st.cfg[uid]
					st.applyLabels(s.g.Nodes[uid], st.cfg[uid], st.trialLab)
				}
			}
		}
	}
	return improvedAny
}

func (s *inSolver) totalCost(lab []int32) float64 {
	var c float64
	for _, e := range s.g.Edges {
		if lab[e.Src.ID] != lab[e.Dst.ID] {
			c += s.wts[e.ID]
		}
	}
	return c
}
