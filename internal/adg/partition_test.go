package adg

import (
	"reflect"
	"testing"

	"repro/internal/expr"
)

// chain adds a Source→Op→Sink chain of rank-1 objects to g and returns
// the IDs of the three nodes.
func chain(g *Graph, label string) (src, op, sink int) {
	s := g.AddNode(KindSource, label, 0, 1)
	o := g.AddNode(KindOp, label+"op", 1, 1)
	k := g.AddNode(KindSink, label+"sink", 1, 0)
	for _, p := range g.Ports[len(g.Ports)-4:] {
		p.Rank = 1
		p.Extents = []expr.Affine{expr.Const(10)}
	}
	g.Connect(s.Out[0], o.In[0])
	g.Connect(o.Out[0], k.In[0])
	return s.ID, o.ID, k.ID
}

// TestPartitionComponents checks component discovery, canonical region
// ordering, dense order-preserving renumbering, and payload sharing on
// a graph whose two components interleave in construction order.
func TestPartitionComponents(t *testing.T) {
	g := New()
	g.TemplateRank = 2
	// Interleave construction: a's source, b's source, then the rest of
	// a, then the rest of b — region extraction must still see each
	// component's nodes in ascending parent ID order.
	sa := g.AddNode(KindSource, "a", 0, 1)
	sb := g.AddNode(KindSource, "b", 0, 1)
	ka := g.AddNode(KindSink, "asink", 1, 0)
	kb := g.AddNode(KindSink, "bsink", 1, 0)
	for _, p := range g.Ports {
		p.Rank = 1
		p.Extents = []expr.Affine{expr.Const(4)}
	}
	// Connect b's edge first: edge IDs must renumber per region too.
	g.Connect(sb.Out[0], kb.In[0])
	g.Connect(sa.Out[0], ka.In[0])

	p := PartitionGraph(g)
	if len(p.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(p.Regions))
	}
	// Region 0 owns node 0 (a's source): canonical order is by smallest
	// parent node ID, not by edge order.
	r0, r1 := p.Regions[0], p.Regions[1]
	if !reflect.DeepEqual(r0.Nodes, []int{sa.ID, ka.ID}) {
		t.Errorf("region 0 nodes = %v, want [%d %d]", r0.Nodes, sa.ID, ka.ID)
	}
	if !reflect.DeepEqual(r1.Nodes, []int{sb.ID, kb.ID}) {
		t.Errorf("region 1 nodes = %v, want [%d %d]", r1.Nodes, sb.ID, kb.ID)
	}
	if !reflect.DeepEqual(p.NodeRegion, []int{0, 1, 0, 1}) {
		t.Errorf("NodeRegion = %v, want [0 1 0 1]", p.NodeRegion)
	}
	for ri, r := range p.Regions {
		if n := len(r.Graph.Nodes); n != 2 {
			t.Errorf("region %d: %d nodes, want 2", ri, n)
		}
		if n := len(r.Graph.Edges); n != 1 {
			t.Errorf("region %d: %d edges, want 1", ri, n)
		}
		if r.Graph.TemplateRank != g.TemplateRank {
			t.Errorf("region %d: template rank %d, want %d", ri, r.Graph.TemplateRank, g.TemplateRank)
		}
		if err := r.Graph.Validate(); err != nil {
			t.Errorf("region %d: %v", ri, err)
		}
		// Dense renumbering: region node i has ID i, and the port map
		// round-trips to the parent's payloads (shared, not copied).
		for i, nd := range r.Graph.Nodes {
			if nd.ID != i {
				t.Errorf("region %d node %d has ID %d", ri, i, nd.ID)
			}
		}
		for i, pp := range r.Graph.Ports {
			if pp.ID != i {
				t.Errorf("region %d port %d has ID %d", ri, i, pp.ID)
			}
			parent := g.Ports[r.Ports[i]]
			if &pp.Extents[0] != &parent.Extents[0] {
				t.Errorf("region %d port %d: extents copied, want shared with parent", ri, i)
			}
			if pp.Rank != parent.Rank {
				t.Errorf("region %d port %d: rank %d != parent %d", ri, i, pp.Rank, parent.Rank)
			}
		}
	}
	// b's only edge is parent edge 0 but lands in region 1 as edge 0.
	if !reflect.DeepEqual(r1.Edges, []int{0}) || !reflect.DeepEqual(r0.Edges, []int{1}) {
		t.Errorf("edge maps: region0 %v region1 %v, want [1] and [0]", r0.Edges, r1.Edges)
	}
}

// TestPartitionTrivial pins the degenerate shapes: an empty graph has
// zero regions and a connected graph exactly one, which is the graph
// itself with identity maps.
func TestPartitionTrivial(t *testing.T) {
	if p := PartitionGraph(New()); len(p.Regions) != 0 {
		t.Errorf("empty graph: %d regions, want 0", len(p.Regions))
	}
	g := New()
	g.TemplateRank = 1
	chain(g, "a")
	p := PartitionGraph(g)
	if len(p.Regions) != 1 {
		t.Fatalf("connected graph: %d regions, want 1", len(p.Regions))
	}
	r := p.Regions[0]
	if r.Graph != g {
		t.Error("connected graph: region graph is a copy, want g itself")
	}
	if len(r.Nodes) != len(g.Nodes) || len(r.Ports) != len(g.Ports) || len(r.Edges) != len(g.Edges) {
		t.Errorf("connected graph: maps cover %d nodes, %d ports, %d edges, want %d, %d, %d",
			len(r.Nodes), len(r.Ports), len(r.Edges), len(g.Nodes), len(g.Ports), len(g.Edges))
	}
	for i, id := range r.Nodes {
		if id != i {
			t.Errorf("node map[%d] = %d, want identity", i, id)
		}
	}
	for i, id := range r.Ports {
		if id != i {
			t.Errorf("port map[%d] = %d, want identity", i, id)
		}
	}
	for i, id := range r.Edges {
		if id != i {
			t.Errorf("edge map[%d] = %d, want identity", i, id)
		}
	}
}

// TestCutDiagnostics checks articulation points and bridges on three
// canonical shapes: a path (interior node articulates, every edge is a
// bridge), a cycle (nothing cuts), and a pair of parallel edges (not a
// bridge — the twin edge keeps the endpoints connected).
func TestCutDiagnostics(t *testing.T) {
	mk := func(n int) (*Graph, []*Node) {
		g := New()
		nodes := make([]*Node, n)
		for i := range nodes {
			nodes[i] = g.AddNode(KindOp, "", 2, 2)
		}
		return g, nodes
	}

	// Path 0-1-2 (two chained edges through distinct ports).
	g, nd := mk(3)
	g.Connect(nd[0].Out[0], nd[1].In[0])
	g.Connect(nd[1].Out[0], nd[2].In[0])
	arts, bridges := CutDiagnostics(g)
	if !reflect.DeepEqual(arts, []int{1}) {
		t.Errorf("path: articulation = %v, want [1]", arts)
	}
	if !reflect.DeepEqual(bridges, []int{0, 1}) {
		t.Errorf("path: bridges = %v, want [0 1]", bridges)
	}

	// Cycle 0→1→2→0.
	g, nd = mk(3)
	g.Connect(nd[0].Out[0], nd[1].In[0])
	g.Connect(nd[1].Out[0], nd[2].In[0])
	g.Connect(nd[2].Out[0], nd[0].In[0])
	arts, bridges = CutDiagnostics(g)
	if len(arts) != 0 || len(bridges) != 0 {
		t.Errorf("cycle: articulation = %v bridges = %v, want none", arts, bridges)
	}

	// Parallel edges 0⇒1.
	g, nd = mk(2)
	g.Connect(nd[0].Out[0], nd[1].In[0])
	g.Connect(nd[0].Out[1], nd[1].In[1])
	arts, bridges = CutDiagnostics(g)
	if len(arts) != 0 || len(bridges) != 0 {
		t.Errorf("parallel edges: articulation = %v bridges = %v, want none", arts, bridges)
	}
}
