package align

import (
	"context"
	"math"
)

// This file holds the flat, pooled state of the §3 solver: a dpScratch
// arena that carves every per-solve and per-start array from three flat
// blocks (int32 / float64 / uint64) by offset, WFA-style, and the
// dpState that replaces the old per-start slice construction. See
// DESIGN.md, "Flat DP/LP state and pooling".

// dpScratch is the recyclable backing store of one axis/stride solve.
// All solver-lifetime arrays (candidate sets, configuration rows,
// incidence, evaluation tables) and all per-start dpState arrays are
// carved from its blocks by offset, exactly like lp.Arena.floats/ints:
// growth abandons the old block (outstanding slices stay valid) and
// doubles, so a steady-state workload allocates nothing. A dpScratch is
// owned by one solve at a time and recycled through scratchPool
// alongside the intern tables; it is not safe for concurrent use except
// that distinct already-carved regions may be written by different
// goroutines (the multi-start states are carved sequentially before the
// starts fan out).
type dpScratch struct {
	i32  []int32
	i32n int
	f64  []float64
	f64n int
	u64  []uint64
	u64n int

	// Append-grown buffers reused across solves (reset to length zero,
	// capacity retained).
	cfgBuf []int32   // all nodes' configuration rows, CSR by cfgOff/cfgW
	inc    []incEdge // all nodes' incident edges, CSR by incOff
	states []dpState // multi-start state slab
	rowBuf []int32   // one configuration row under construction

	solver asSolver // the solve's solver header, embedded to avoid a per-solve alloc
	mark   axisMark // epoch-stamped used-axis scratch for label derivations
}

func newDPScratch() *dpScratch { return &dpScratch{} }

// reset rewinds the arena and empties the append-grown buffers so the
// next solve carves from the start. Callers must be done with every
// previously carved slice.
func (d *dpScratch) reset() {
	d.i32n, d.f64n, d.u64n = 0, 0, 0
	d.cfgBuf = d.cfgBuf[:0]
	d.inc = d.inc[:0]
	d.states = d.states[:0]
}

// int32s carves a zeroed []int32 of length n.
func (d *dpScratch) int32s(n int) []int32 {
	if d.i32n+n > len(d.i32) {
		sz := 2 * len(d.i32)
		if sz < n {
			sz = n
		}
		if sz < 1024 {
			sz = 1024
		}
		d.i32 = make([]int32, sz)
		d.i32n = 0
	}
	s := d.i32[d.i32n : d.i32n+n : d.i32n+n]
	d.i32n += n
	for j := range s {
		s[j] = 0
	}
	return s
}

// floats carves a zeroed []float64 of length n.
func (d *dpScratch) floats(n int) []float64 {
	if d.f64n+n > len(d.f64) {
		sz := 2 * len(d.f64)
		if sz < n {
			sz = n
		}
		if sz < 256 {
			sz = 256
		}
		d.f64 = make([]float64, sz)
		d.f64n = 0
	}
	s := d.f64[d.f64n : d.f64n+n : d.f64n+n]
	d.f64n += n
	for j := range s {
		s[j] = 0
	}
	return s
}

// words carves a zeroed []uint64 of length n (dirty bitsets and packed
// best-response words).
func (d *dpScratch) words(n int) []uint64 {
	if d.u64n+n > len(d.u64) {
		sz := 2 * len(d.u64)
		if sz < n {
			sz = n
		}
		if sz < 128 {
			sz = 128
		}
		d.u64 = make([]uint64, sz)
		d.u64n = 0
	}
	s := d.u64[d.u64n : d.u64n+n : d.u64n+n]
	d.u64n += n
	for j := range s {
		s[j] = 0
	}
	return s
}

// axisMark is an epoch-stamped membership set over small nonnegative
// axis indices, replacing the per-call map[int]bool scratch of the label
// derivation helpers. begin opens a new generation; used/mark test and
// insert without clearing (a stamp from an older generation reads as
// absent).
type axisMark struct {
	stamp []int32
	cur   int32
}

func (m *axisMark) begin(sizeHint int) {
	if n := sizeHint - len(m.stamp); n > 0 {
		m.stamp = append(m.stamp, make([]int32, n)...)
	}
	if m.cur == math.MaxInt32 {
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.cur = 0
	}
	m.cur++
}

func (m *axisMark) used(a int) bool { return a < len(m.stamp) && m.stamp[a] == m.cur }

func (m *axisMark) mark(a int) {
	if a >= len(m.stamp) {
		m.stamp = append(m.stamp, make([]int32, a+1-len(m.stamp))...)
	}
	m.stamp[a] = m.cur
}

// respMoveBits is the width of the move payload packed into the low
// mantissa bits of a best-response cost word: resp[n] holds the node's
// best incident cost with its low 12 bits replaced by the best config
// index (always < maxCandidates ≤ 4096). The cost payload is therefore
// approximate, but the one exact read — the zero test resp>>12 == 0 —
// is sound: incident costs are sums of nonnegative edge weights, so the
// cost is either exactly +0 (all high bits zero) or at least the
// smallest positive weight, which is astronomically larger than the
// 2^-1010-scale perturbation the truncation could represent. A resp
// word is meaningful only while its node's dirty bit is clear.
const respMoveBits = 12

const respMoveMask = (1 << respMoveBits) - 1

func packResp(cost float64, move int) uint64 {
	return math.Float64bits(cost)&^uint64(respMoveMask) | uint64(move)
}

// dpState is the mutable state of one optimization start, every array
// carved from the solve's dpScratch: the current configuration choice
// per node, the derived per-port label IDs, dirty flags as a bitset,
// packed best-response words, and the epoch-stamped expansion scratch.
// All starts' states are carved up front so the multi-start fan-out
// writes disjoint regions of the shared blocks.
type dpState struct {
	s    *asSolver
	seed int32

	cfg   []int32  // per node: config index
	lab   []int32  // per port: label ID under cfg
	dirty []uint64 // per node: needs re-evaluation (bitset)
	resp  []uint64 // per node: packed best-response word (valid while clean)

	trialCfg  []int32
	trialLab  []int32
	nodeEpoch []int32
	edgeEpoch []int32
	epoch     int32
	changed   []int32
	queue     []int32

	costs []float64 // per-config incident costs of the node being evaluated
	cost  float64
	stats DPStats
}

// carveState carves all of st's arrays from the solver's scratch. Must
// run before the multi-start fan-out (carving mutates the arena
// cursors).
func (s *asSolver) carveState(st *dpState) {
	scr := s.scr
	nN, nP, nE := len(s.g.Nodes), len(s.g.Ports), len(s.g.Edges)
	st.s = s
	st.cfg = scr.int32s(nN)
	st.lab = scr.int32s(nP)
	st.trialCfg = scr.int32s(nN)
	st.trialLab = scr.int32s(nP)
	st.nodeEpoch = scr.int32s(nN)
	st.edgeEpoch = scr.int32s(nE)
	st.dirty = scr.words((nN + 63) / 64)
	st.resp = scr.words(nN)
	st.changed = scr.int32s(nN)[:0]
	st.queue = scr.int32s(nN)[:0]
	st.costs = scr.floats(s.maxCfg)
	st.epoch = 0
	st.cost = 0
	st.stats = DPStats{}
}

func (st *dpState) markDirty(nid int32) { st.dirty[nid>>6] |= 1 << (uint(nid) & 63) }

func (st *dpState) isDirty(nid int) bool { return st.dirty[nid>>6]>>(uint(nid)&63)&1 != 0 }

// init seeds the start: seed 0 = all-first configurations, seed 1 =
// all-last, others perturbed deterministically.
func (st *dpState) init(seed int) {
	s := st.s
	st.seed = int32(seed)
	st.stats = DPStats{Starts: 1}
	st.cost = 0
	for nid := range s.g.Nodes {
		var ci int32
		switch {
		case seed == 0:
			ci = 0
		case seed == 1:
			ci = s.cfgCnt[nid] - 1
		default:
			ci = int32(perturbIndex(seed, nid, int(s.cfgCnt[nid])))
		}
		st.cfg[nid] = ci
		st.applyLabels(nid, ci, st.lab)
		st.markDirty(int32(nid))
	}
	st.cost = s.totalCost(st.lab)
}

func (st *dpState) applyLabels(nid int, ci int32, lab []int32) {
	s := st.s
	row := s.cfgRow(nid, ci)
	ports := s.nodePorts[s.portOff[nid]:s.portOff[nid+1]]
	for i, pid := range ports {
		lab[pid] = row[i]
	}
}

// evalNode fills costs[c] with the incident cost of every configuration
// c of nid under the current neighbor labels. The evaluation is
// transposed — incident slots outer, configurations inner — over the
// solver's precomputed evaluation table, so each slot's weight is added
// to each costs[c] in the same slot order the per-config scan used,
// keeping every float sum bit-identical to the one-config-at-a-time
// evaluation.
func (st *dpState) evalNode(nid int, costs []float64) {
	s := st.s
	C := len(costs)
	base := int(s.evalOff[nid])
	for i := range costs {
		costs[i] = 0
	}
	incs := s.inc[s.incOff[nid]:s.incOff[nid+1]]
	for k := range incs {
		ie := &incs[k]
		row := s.evalBuf[base+k*C : base+(k+1)*C]
		w := ie.w
		if ie.selfLoop {
			for c, v := range row {
				if v != 0 {
					costs[c] += w
				}
			}
		} else {
			pl := st.lab[ie.peer]
			for c, v := range row {
				if v != pl {
					costs[c] += w
				}
			}
		}
	}
}

// incCost is the incident cost of one configuration of nid (same slot
// order as evalNode).
func (st *dpState) incCost(nid int, ci int32) float64 {
	s := st.s
	C := int(s.cfgCnt[nid])
	base := int(s.evalOff[nid])
	var c float64
	incs := s.inc[s.incOff[nid]:s.incOff[nid+1]]
	for k := range incs {
		ie := &incs[k]
		v := s.evalBuf[base+k*C+int(ci)]
		if ie.selfLoop {
			if v != 0 {
				c += ie.w
			}
		} else if v != st.lab[ie.peer] {
			c += ie.w
		}
	}
	return c
}

// sweepOnce runs one best-response sweep over the dirty nodes in
// deterministic order (forward on even sweeps, backward on odd ones). A
// move updates the node's port labels and the running total cost by the
// incident-cost delta, and marks the node's neighbors dirty. Every
// evaluated node's best response is packed into its resp word. Returns
// whether any move was made.
func (st *dpState) sweepOnce(sweep int) bool {
	s := st.s
	moved := false
	nn := len(s.g.Nodes)
	for k := 0; k < nn; k++ {
		nid := k
		if sweep%2 == 1 {
			nid = nn - 1 - k
		}
		w := nid >> 6
		bit := uint64(1) << (uint(nid) & 63)
		if st.dirty[w]&bit == 0 {
			continue
		}
		st.dirty[w] &^= bit
		C := int(s.cfgCnt[nid])
		cur := int(st.cfg[nid])
		costs := st.costs[:C]
		st.evalNode(nid, costs)
		curCost := costs[cur]
		bestIdx, bestCost := cur, curCost
		for ci := 0; ci < C; ci++ {
			if ci == cur {
				continue
			}
			if c := costs[ci]; c < bestCost {
				bestIdx, bestCost = ci, c
			}
		}
		st.stats.Evals += int64(C)
		st.resp[nid] = packResp(bestCost, bestIdx)
		if bestIdx == cur {
			continue
		}
		st.cfg[nid] = int32(bestIdx)
		st.applyLabels(nid, int32(bestIdx), st.lab)
		st.cost += bestCost - curCost
		st.stats.Moves++
		moved = true
		incs := s.inc[s.incOff[nid]:s.incOff[nid+1]]
		for j := range incs {
			if !incs[j].selfLoop {
				st.markDirty(incs[j].peerNode)
			}
		}
	}
	return moved
}

// run drives one start to a local optimum: best-response sweeps to
// quiescence, then expansion passes, iterated while either improves.
// Zero cost is a global lower bound (weights are nonnegative), so a
// start that reaches it stops immediately. A done context stops the
// start between sweeps and rounds.
func (st *dpState) run(ctx context.Context) {
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
// configurations across its incident edges (a wavefront that keeps
// propagated edges at zero cost); the whole move is accepted if it
// lowers the total cost. trialCfg/trialLab mirror cfg/lab between
// trials, epoch stamps replace per-trial clearing, and the cost change
// is a delta over only the wavefront's incident edges. Nodes whose
// incident cost is already zero cannot seed an improvement; for clean
// nodes that test reads the packed resp word instead of re-evaluating.
func (st *dpState) expansionPass() bool {
	s := st.s
	improvedAny := false
	copy(st.trialCfg, st.cfg)
	copy(st.trialLab, st.lab)
	nn := len(s.g.Nodes)
	nLabels := int(s.nLabels)
	for nid := 0; nid < nn; nid++ {
		if !st.isDirty(nid) {
			if st.resp[nid]>>respMoveBits == 0 {
				continue
			}
		} else if st.incCost(nid, st.cfg[nid]) == 0 {
			continue
		}
		C := int(s.cfgCnt[nid])
		for ci := 0; ci < C; ci++ {
			if int32(ci) == st.cfg[nid] {
				continue
			}
			st.epoch++
			st.changed = st.changed[:0]
			st.trialCfg[nid] = int32(ci)
			st.applyLabels(nid, int32(ci), st.trialLab)
			st.nodeEpoch[nid] = st.epoch
			st.changed = append(st.changed, int32(nid))
			st.queue = append(st.queue[:0], int32(nid))
			for qi := 0; qi < len(st.queue); qi++ {
				uid := int(st.queue[qi])
				urow := s.cfgRow(uid, st.trialCfg[uid])
				incs := s.inc[s.incOff[uid]:s.incOff[uid+1]]
				for j := range incs {
					ie := &incs[j]
					if ie.selfLoop {
						continue
					}
					vid := int(ie.peerNode)
					if st.nodeEpoch[vid] == st.epoch {
						continue
					}
					want := urow[ie.selfPos]
					if st.trialLab[ie.peer] == want {
						continue
					}
					// First config of v matching `want` at the peer port,
					// via the (port, label) → config match table.
					if mv := s.matchBuf[int(ie.peer)*nLabels+int(want)]; mv != 0 {
						vci := mv - 1
						st.trialCfg[vid] = vci
						st.applyLabels(vid, vci, st.trialLab)
						st.nodeEpoch[vid] = st.epoch
						st.changed = append(st.changed, int32(vid))
						st.queue = append(st.queue, int32(vid))
					}
				}
			}
			// Delta over edges incident to the wavefront; every other
			// edge has both endpoints unchanged.
			var delta float64
			for _, uidv := range st.changed {
				incs := s.inc[s.incOff[uidv]:s.incOff[uidv+1]]
				for j := range incs {
					ie := &incs[j]
					if st.edgeEpoch[ie.eid] == st.epoch {
						continue
					}
					st.edgeEpoch[ie.eid] = st.epoch
					a, b := s.ends[2*ie.eid], s.ends[2*ie.eid+1]
					if (st.lab[a] != st.lab[b]) != (st.trialLab[a] != st.trialLab[b]) {
						if st.trialLab[a] != st.trialLab[b] {
							delta += ie.w
						} else {
							delta -= ie.w
						}
					}
				}
			}
			if delta < 0 {
				// Commit: fold the wavefront into cfg/lab and mark the
				// changed nodes and their neighbors for re-evaluation.
				for _, uidv := range st.changed {
					uid := int(uidv)
					st.cfg[uid] = st.trialCfg[uid]
					st.applyLabels(uid, st.trialCfg[uid], st.lab)
					st.markDirty(uidv)
					incs := s.inc[s.incOff[uid]:s.incOff[uid+1]]
					for j := range incs {
						if !incs[j].selfLoop {
							st.markDirty(incs[j].peerNode)
						}
					}
				}
				st.cost += delta
				st.stats.ExpansionAccepts++
				improvedAny = true
			} else {
				// Undo: restore the mirror from the committed state.
				for _, uidv := range st.changed {
					uid := int(uidv)
					st.trialCfg[uid] = st.cfg[uid]
					st.applyLabels(uid, st.cfg[uid], st.trialLab)
				}
			}
		}
	}
	return improvedAny
}
