package cost_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adg"
	"repro/internal/align"
	"repro/internal/build"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/lang"
)

func alignedAssignment(t *testing.T, src string, opts align.Options) (*adg.Graph, *adg.Assignment) {
	t.Helper()
	info, err := lang.Analyze(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(info)
	if err != nil {
		t.Fatal(err)
	}
	res, err := align.Align(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Assignment
}

func TestExactZeroForAligned(t *testing.T) {
	g, asg := alignedAssignment(t, `
real A(100), B(100)
A(1:99) = A(1:99) + B(2:100)
`, align.Options{})
	b := cost.Exact(g, asg)
	if b.Total() != 0 {
		t.Errorf("aligned program has cost %s", b)
	}
}

func TestIdentityAssignmentShift(t *testing.T) {
	// Under the identity assignment the Example-1 program is consistent
	// except for the section offsets baked into the section nodes, which
	// the identity ignores — force a mismatch manually instead: move one
	// source by 3 and verify the shift volume is weight × 3.
	info, _ := lang.Analyze(lang.MustParse(`
real A(100), B(100)
A = A + B
`))
	g, _ := build.Build(info)
	asg := adg.NewAssignment(g)
	for _, n := range g.Nodes {
		if n.Kind == adg.KindSource && n.Label == "b" {
			a := asg.Of(n.Out[0])
			a.Offset[0] = expr.Const(3)
			asg.Set(n.Out[0], a)
		}
	}
	b := cost.Exact(g, asg)
	if b.Shift != 300 {
		t.Errorf("shift = %d, want 300 (100 elements × distance 3)", b.Shift)
	}
	if b.ShiftEvents != 1 {
		t.Errorf("shift events = %d, want 1", b.ShiftEvents)
	}
}

func TestGeneralOnAxisMismatch(t *testing.T) {
	info, _ := lang.Analyze(lang.MustParse(`
real A(10,10), B(10,10)
A = A + B
`))
	g, _ := build.Build(info)
	asg := adg.NewAssignment(g)
	for _, n := range g.Nodes {
		if n.Kind == adg.KindSource && n.Label == "b" {
			a := asg.Of(n.Out[0])
			a.AxisMap = []int{1, 0} // transposed axis map
			asg.Set(n.Out[0], a)
		}
	}
	b := cost.Exact(g, asg)
	if b.General != 100 {
		t.Errorf("general = %d, want 100", b.General)
	}
}

func TestBroadcastAccounting(t *testing.T) {
	info, _ := lang.Analyze(lang.MustParse(`
real A(10), B(10)
A = A + B
`))
	g, _ := build.Build(info)
	asg := adg.NewAssignment(g)
	// Mark the op's B input replicated on axis 0 while B's source is not.
	for _, n := range g.Nodes {
		if n.Kind == adg.KindOp {
			a := asg.Of(n.In[1])
			a.Replicated[0] = true
			asg.Set(n.In[1], a)
		}
	}
	b := cost.Exact(g, asg)
	if b.Broadcast != 10 || b.BroadcastEvents != 1 {
		t.Errorf("broadcast = %d (%d events), want 10 (1)", b.Broadcast, b.BroadcastEvents)
	}
}

func TestMobileCostPerIteration(t *testing.T) {
	// A static assignment of Figure 1 accumulates shift cost across all
	// 100 iterations; verify the per-iteration structure (events = number
	// of misaligned edge-iterations).
	info, _ := lang.Analyze(lang.MustParse(`
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`))
	g, _ := build.Build(info)
	as, err := align.AxisStride(g)
	if err != nil {
		t.Fatal(err)
	}
	repl := align.NoReplication(g)
	static, err := align.Offsets(g, as, repl, align.OffsetOptions{Strategy: align.StrategyFixed, M: 3, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	r := &align.Result{Graph: g, AxisStride: as, Repl: repl, Offset: static}
	b := cost.Exact(g, r.BuildAssignment())
	if b.Shift == 0 {
		t.Fatal("static Figure 1 has no shift cost")
	}
	if b.ShiftEvents < 100 {
		t.Errorf("shift events = %d, want >= 100 (per-iteration realignment)", b.ShiftEvents)
	}
}

func TestReport(t *testing.T) {
	g, asg := alignedAssignment(t, `
real A(100), B(100)
A(1:99) = A(1:99) + B(2:100)
`, align.Options{})
	rep := cost.Report(g, asg, 5)
	if !strings.Contains(rep, "edge") {
		t.Errorf("report header missing: %q", rep)
	}
}

// edgeCostEnv is the reference EdgeCost: the §2.3 cost summed point by
// point over adg.IterSpace.Each, every form evaluated with Eval on the
// name-keyed environment.
func edgeCostEnv(e *adg.Edge, asg *adg.Assignment) cost.Breakdown {
	src, dst := asg.Of(e.Src), asg.Of(e.Dst)
	w := e.Weight()
	scale := func(v int64) int64 {
		if e.Control == 1 {
			return v
		}
		return int64(e.Control * float64(v))
	}
	var b cost.Breakdown
	e.Space().Each(func(env map[string]int64) bool {
		wt := w.Eval(env)
		if wt == 0 {
			return true
		}
		for t := range dst.Replicated {
			if dst.Replicated[t] && !src.Replicated[t] {
				b.Broadcast += scale(wt)
				b.BroadcastEvents++
				return true
			}
		}
		mismatch := len(src.AxisMap) != len(dst.AxisMap)
		for d := range src.AxisMap {
			if !mismatch && (src.AxisMap[d] != dst.AxisMap[d] || src.Stride[d].Eval(env) != dst.Stride[d].Eval(env)) {
				mismatch = true
			}
		}
		if mismatch {
			b.General += scale(wt)
			b.GeneralEvents++
			return true
		}
		var d int64
		for t := range src.Offset {
			if src.Replicated[t] || dst.Replicated[t] {
				continue
			}
			diff := src.Offset[t].Eval(env) - dst.Offset[t].Eval(env)
			if diff < 0 {
				diff = -diff
			}
			d += diff
		}
		if d > 0 {
			b.Shift += scale(wt * d)
			b.ShiftEvents++
		}
		return true
	})
	return b
}

// TestEdgeCostMatchesEnvEnumeration compares EdgeCost with the
// reference on every edge of loop programs (triangular bounds, strided
// and reversed loops, conditional arms), under their solved
// assignments and under random perturbations of them: mobile offsets
// in the loop variables and in a variable that is no loop variable,
// changed strides, and replicated axes.
func TestEdgeCostMatchesEnvEnumeration(t *testing.T) {
	srcs := []string{`
real A(100,100), V(200)
do k = 1, 20
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`, `
real A(40,40), B(40,40), T(40)
do i = 1, 12
  do j = i, i + 4
    A(i,j:j+3) = A(i,j:j+3) + B(j,i:i+3)
  enddo
  T = T + A(i,1:40)
enddo
`, `
real P(60), Q(60), R(60)
do k = 10, 1, -3
  if (k > 4) then
    P(k:k+20) = P(k:k+20) + Q(k+1:k+21)
  else
    R(1:21) = R(1:21) + P(k:k+20)
  endif
enddo
`}
	rng := rand.New(rand.NewSource(5))
	for si, src := range srcs {
		g, asg := alignedAssignment(t, src, align.Options{Replication: true})
		for trial := 0; trial < 20; trial++ {
			a := asg.Clone()
			if trial > 0 {
				for _, p := range g.Ports {
					al := a.Of(p).Clone()
					for ax := range al.Offset {
						if rng.Intn(3) == 0 {
							off := expr.Const(int64(rng.Intn(7) - 3))
							for _, v := range append([]string{"n"}, p.Space.LIVs...) {
								off = off.Add(expr.Axpy(int64(rng.Intn(5)-2), v, 0))
							}
							al.Offset[ax] = off
						}
						if rng.Intn(3) == 0 {
							al.Replicated[ax] = !al.Replicated[ax]
						}
					}
					for d := range al.Stride {
						if rng.Intn(6) == 0 {
							al.Stride[d] = expr.Const(int64(1 + rng.Intn(2)))
						}
					}
					a.Set(p, al)
				}
			}
			for _, e := range g.Edges {
				if got, want := cost.EdgeCost(e, a), edgeCostEnv(e, a); got != want {
					t.Fatalf("program %d trial %d edge %d: EdgeCost %v, reference %v", si, trial, e.ID, got, want)
				}
			}
		}
	}
}
