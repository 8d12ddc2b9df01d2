package adg

import "sort"

// This file decomposes an ADG into independently solvable regions.
//
// The cut rule is deliberately conservative: regions are the weakly
// connected components of the graph (edge direction ignored). A cut
// between two components provably cannot carry alignment constraints —
// no edge crosses it, so no discrete-metric term (§3), no replication
// min-cut capacity (§5), and no offset-LP θ term (§4) couples the two
// sides, and the solvers' objectives are sums over edges. Cuts at
// articulation points or bridges inside a component are NOT safe in
// general: every edge carries a discrete-metric term when its endpoint
// labels differ, the replication network clamps non-positive capacities
// to one (so even a zero-weight bridge constrains the min-cut), and the
// offset RLP anchors exactly one variable per connected port group —
// splitting at a bridge would change which variables are anchored and
// can select a different optimal vertex. Articulation points and
// bridges are therefore computed only as diagnostics (CutDiagnostics),
// to show how far a finer future cut rule could go.

// Region is one weakly connected component of a parent graph, extracted
// as a self-contained Graph with dense, order-preserving renumbering:
// region node i is the i-th parent node of the component in parent ID
// order, and likewise for ports and edges. Kind-specific payloads
// (section specs, transformer specs, extents, iteration spaces) are
// shared with the parent — they are immutable after construction — so
// extraction allocates only the graph skeleton.
type Region struct {
	Graph *Graph
	// Nodes[i] is the parent node ID of region node i (ascending).
	Nodes []int
	// Ports[i] is the parent port ID of region port i.
	Ports []int
	// Edges[i] is the parent edge ID of region edge i (ascending).
	Edges []int
}

// Partition is the decomposition of a graph into regions. The region
// list is canonically ordered by each region's smallest parent node ID,
// so two structurally identical graphs partition into identical lists —
// the property per-region content addressing relies on.
type Partition struct {
	Regions []*Region
	// NodeRegion maps parent node ID → index into Regions.
	NodeRegion []int
}

// PartitionGraph decomposes g into its weakly connected components. An
// empty graph yields zero regions; a connected graph yields exactly one
// whose Graph is g itself, with identity Nodes, Ports and Edges — no
// copy is made.
func PartitionGraph(g *Graph) *Partition {
	n := len(g.Nodes)
	p := &Partition{NodeRegion: make([]int, n)}
	if n == 0 {
		return p
	}
	// Union-find over parent node IDs; every edge merges its endpoints.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		a, b := find(e.Src.Node.ID), find(e.Dst.Node.ID)
		if a != b {
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	// Region indices in order of first appearance over ascending node
	// IDs — equivalently, regions sorted by smallest parent node ID.
	// Unions keep the smaller root, so a component's root is its
	// smallest node and is visited before every other node of it.
	for _, nd := range g.Nodes {
		r := find(nd.ID)
		if r == nd.ID {
			p.NodeRegion[r] = len(p.Regions)
			p.Regions = append(p.Regions, &Region{})
		}
		p.NodeRegion[nd.ID] = p.NodeRegion[r]
	}
	if len(p.Regions) == 1 {
		// IDs are dense construction-order indices, so the maps of the
		// graph onto itself are one shared identity run.
		nodes, ports, edges := len(g.Nodes), len(g.Ports), len(g.Edges)
		id := make([]int, max(nodes, ports, edges))
		for i := range id {
			id[i] = i
		}
		*p.Regions[0] = Region{Graph: g, Nodes: id[:nodes:nodes], Ports: id[:ports:ports], Edges: id[:edges:edges]}
		return p
	}
	// Size every region's graph and index lists up front.
	type size struct{ nodes, ports, edges int }
	sizes := make([]size, len(p.Regions))
	for _, nd := range g.Nodes {
		sz := &sizes[p.NodeRegion[nd.ID]]
		sz.nodes++
		sz.ports += len(nd.In) + len(nd.Out)
	}
	for _, e := range g.Edges {
		sizes[p.NodeRegion[e.Src.Node.ID]].edges++
	}
	for ri, reg := range p.Regions {
		sz := sizes[ri]
		reg.Graph = New()
		reg.Graph.reserve(sz.nodes, sz.ports, sz.edges)
		reg.Nodes = make([]int, 0, sz.nodes)
		reg.Ports = make([]int, 0, sz.ports)
		reg.Edges = make([]int, 0, sz.edges)
	}
	// Extract each region with order-preserving dense renumbering. Nodes
	// are visited in parent ID order and edges in parent ID order, so
	// region IDs are the ranks of the parent IDs within the component.
	portMap := make([]*Port, len(g.Ports))
	for _, nd := range g.Nodes {
		reg := p.Regions[p.NodeRegion[nd.ID]]
		rn := reg.Graph.AddNode(nd.Kind, nd.Label, len(nd.In), len(nd.Out))
		rn.Section = nd.Section
		rn.SpreadDim = nd.SpreadDim
		rn.SpreadCopies = nd.SpreadCopies
		rn.ReduceDim = nd.ReduceDim
		rn.Xform = nd.Xform
		rn.ReadOnly = nd.ReadOnly
		rn.CondMerge = nd.CondMerge
		reg.Nodes = append(reg.Nodes, nd.ID)
		for i, pp := range nd.In {
			rp := rn.In[i]
			rp.Rank, rp.Extents, rp.Space = pp.Rank, pp.Extents, pp.Space
			portMap[pp.ID] = rp
			reg.Ports = append(reg.Ports, pp.ID)
		}
		for i, pp := range nd.Out {
			rp := rn.Out[i]
			rp.Rank, rp.Extents, rp.Space = pp.Rank, pp.Extents, pp.Space
			portMap[pp.ID] = rp
			reg.Ports = append(reg.Ports, pp.ID)
		}
	}
	for _, e := range g.Edges {
		reg := p.Regions[p.NodeRegion[e.Src.Node.ID]]
		re := reg.Graph.Connect(portMap[e.Src.ID], portMap[e.Dst.ID])
		re.Control = e.Control
		reg.Edges = append(reg.Edges, e.ID)
	}
	for _, reg := range p.Regions {
		reg.Graph.TemplateRank = g.TemplateRank
	}
	return p
}

// CutDiagnostics reports the articulation points (parent node IDs) and
// bridges (parent edge IDs) of g's undirected skeleton, both ascending.
// These are the sites where a finer-than-component cut rule would
// split; the current solver decomposition does not use them (see the
// package comment above — such cuts do carry alignment constraints),
// so they are exposed purely for partition-quality inspection
// (adgdump -regions).
func CutDiagnostics(g *Graph) (articulation []int, bridges []int) {
	n := len(g.Nodes)
	if n == 0 {
		return nil, nil
	}
	type arc struct{ to, edge int }
	adj := make([][]arc, n)
	for _, e := range g.Edges {
		u, v := e.Src.Node.ID, e.Dst.Node.ID
		adj[u] = append(adj[u], arc{v, e.ID})
		adj[v] = append(adj[v], arc{u, e.ID})
	}
	disc := make([]int, n) // 0 = unvisited; else discovery time + 1
	low := make([]int, n)
	isArt := make([]bool, n)
	timer := 0
	type frame struct {
		node, parentEdge, next int
	}
	var stack []frame
	for root := 0; root < n; root++ {
		if disc[root] != 0 {
			continue
		}
		timer++
		disc[root], low[root] = timer, timer
		rootChildren := 0
		stack = append(stack[:0], frame{node: root, parentEdge: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				a := adj[f.node][f.next]
				f.next++
				if a.edge == f.parentEdge {
					// Skip only the arrival edge instance: a parallel
					// edge between the same nodes has a different ID
					// and still provides a back path.
					continue
				}
				if disc[a.to] == 0 {
					if f.node == root {
						rootChildren++
					}
					timer++
					disc[a.to], low[a.to] = timer, timer
					stack = append(stack, frame{node: a.to, parentEdge: a.edge})
				} else if disc[a.to] < low[f.node] {
					low[f.node] = disc[a.to]
				}
				continue
			}
			// Frame exhausted: fold its low link into the parent.
			u := f.node
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			pf := &stack[len(stack)-1]
			if low[u] < low[pf.node] {
				low[pf.node] = low[u]
			}
			if low[u] > disc[pf.node] {
				bridges = append(bridges, f.parentEdge)
			}
			if pf.node != root && low[u] >= disc[pf.node] {
				isArt[pf.node] = true
			}
		}
		if rootChildren >= 2 {
			isArt[root] = true
		}
	}
	for id, a := range isArt {
		if a {
			articulation = append(articulation, id)
		}
	}
	sort.Ints(bridges)
	return articulation, bridges
}
