// Package netflow implements maximum flow and minimum cut on directed
// graphs. Theorem 1 of the paper reduces replication labeling to a
// min-cut problem: a weighted directed graph with ∞-weight edges from a
// source to all N-labeled vertices and from all R-labeled vertices to a
// sink; a minimum s-t cut is an optimal replication labeling. The primary
// algorithm is Dinic's (low-order polynomial, as the paper requires); an
// LP formulation is provided as well, matching the paper's remark that
// the problem "can be solved using linear programming".
package netflow

import (
	"math"

	"repro/internal/lp"
)

// Inf is the capacity used for the paper's infinite-weight edges. It is
// large enough to dominate any finite cut yet safe against overflow when
// many Inf edges are saturated together.
const Inf int64 = math.MaxInt64 / 1024

// Graph is a flow network under construction. Vertices are dense ints
// [0, n).
type Graph struct {
	n     int
	edges []edge
	head  [][]int // adjacency: indices into edges (even=forward, odd=residual)
}

type edge struct {
	to  int
	cap int64
}

// NewGraph returns an empty flow network with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{n: n, head: make([][]int, n)}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// AddEdge adds a directed edge u→v with the given capacity and returns
// its index (usable with EdgeFlow after MaxFlow).
func (g *Graph) AddEdge(u, v int, capacity int64) int {
	if capacity < 0 {
		panic("netflow: negative capacity")
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: v, cap: capacity}, edge{to: u, cap: 0})
	g.head[u] = append(g.head[u], id)
	g.head[v] = append(g.head[v], id+1)
	return id
}

// Result reports a max-flow computation.
type Result struct {
	Value   int64
	g       *Graph
	origCap []int64
	level   []int
	source  int
}

// MaxFlow computes a maximum s-t flow with Dinic's algorithm. The graph's
// residual capacities are consumed; call MaxFlow once per Graph.
func (g *Graph) MaxFlow(s, t int) *Result {
	orig := make([]int64, len(g.edges))
	for i, e := range g.edges {
		orig[i] = e.cap
	}
	var total int64
	level := make([]int, g.n)
	iter := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for {
		// BFS level graph on residual capacities.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue = append(queue[:0], s)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, ei := range g.head[u] {
				e := g.edges[ei]
				if e.cap > 0 && level[e.to] < 0 {
					level[e.to] = level[u] + 1
					queue = append(queue, e.to)
				}
			}
		}
		if level[t] < 0 {
			return &Result{Value: total, g: g, origCap: orig, level: level, source: s}
		}
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfs(s, t, Inf, level, iter)
			if f == 0 {
				break
			}
			total += f
		}
	}
}

func (g *Graph) dfs(u, t int, limit int64, level, iter []int) int64 {
	if u == t {
		return limit
	}
	for ; iter[u] < len(g.head[u]); iter[u]++ {
		ei := g.head[u][iter[u]]
		e := &g.edges[ei]
		if e.cap <= 0 || level[e.to] != level[u]+1 {
			continue
		}
		d := limit
		if e.cap < d {
			d = e.cap
		}
		f := g.dfs(e.to, t, d, level, iter)
		if f > 0 {
			e.cap -= f
			g.edges[ei^1].cap += f
			return f
		}
	}
	return 0
}

// EdgeFlow returns the flow routed through the edge returned by AddEdge.
func (r *Result) EdgeFlow(edgeID int) int64 {
	return r.origCap[edgeID] - r.g.edges[edgeID].cap
}

// SourceSide returns the set of vertices reachable from the source in the
// final residual graph: the source side X of a minimum cut (s ∈ X). By
// max-flow/min-cut, edges crossing from X to its complement have total
// capacity equal to the max-flow value.
func (r *Result) SourceSide() []bool {
	side := make([]bool, r.g.n)
	// The last BFS of Dinic already computed reachability (level >= 0).
	for v, l := range r.level {
		side[v] = l >= 0
	}
	return side
}

// CutEdge describes one original edge crossing a minimum cut forward.
type CutEdge struct {
	From, To int
	Capacity int64
}

// MinCutEdges returns the original edges that cross the minimum cut in
// the forward direction (from the source side to the sink side).
func (r *Result) MinCutEdges() []CutEdge {
	side := r.SourceSide()
	var cut []CutEdge
	for id := 0; id < len(r.origCap); id += 2 {
		if r.origCap[id] == 0 {
			continue
		}
		// edges[id] is forward u→v; edges[id^1].to == u.
		u := r.g.edges[id+1].to
		v := r.g.edges[id].to
		if side[u] && !side[v] {
			cut = append(cut, CutEdge{From: u, To: v, Capacity: r.origCap[id]})
		}
	}
	return cut
}

// LPEdge is an input edge for MinCutLP.
type LPEdge struct {
	From, To int
	Capacity int64
}

// MinCutLP solves the s-t min-cut by linear programming, the alternative
// the paper mentions (§5.2): the LP dual of max-flow. Variables: a
// potential p_v per vertex and a cut indicator d_e ≥ 0 per edge with
// d_e ≥ p_u − p_v, p_s = 1, p_t = 0; minimize Σ cap_e·d_e. Because the
// constraint matrix is totally unimodular the optimum is integral, and
// the optimal objective equals the max-flow value.
func MinCutLP(n int, edges []LPEdge, s, t int) (value int64, sourceSide []bool, err error) {
	prob := lp.NewProblem()
	pv := make([]lp.VarID, n)
	for v := 0; v < n; v++ {
		pv[v] = prob.AddVariable(0, true)
	}
	de := make([]lp.VarID, len(edges))
	for i, e := range edges {
		de[i] = prob.AddVariable(float64(e.Capacity), false)
	}
	prob.AddRow([]lp.Term{{V: pv[s], A: 1}}, lp.EQ, 1)
	prob.AddRow([]lp.Term{{V: pv[t], A: 1}}, lp.EQ, 0)
	row := make([]lp.Term, 3)
	for i, e := range edges {
		// d_e − p_u + p_v ≥ 0
		row[0] = lp.Term{V: de[i], A: 1}
		row[1] = lp.Term{V: pv[e.From], A: -1}
		row[2] = lp.Term{V: pv[e.To], A: 1}
		prob.AddRow(row, lp.GE, 0)
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, nil, err
	}
	sourceSide = make([]bool, n)
	for v := 0; v < n; v++ {
		sourceSide[v] = sol.Value(pv[v]) > 0.5
	}
	return int64(math.Round(sol.Objective)), sourceSide, nil
}
