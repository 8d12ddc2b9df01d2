package align

import (
	"fmt"
	"testing"

	"repro/internal/adg"
	"repro/internal/build"
	"repro/internal/expr"
	"repro/internal/lang"
)

func mustGraph(t *testing.T, src string) *adg.Graph {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := lang.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	g, err := Build(info) //nolint — see helper below
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

// Build is a local alias so mustGraph reads naturally.
func Build(info *lang.Info) (*adg.Graph, error) { return build.Build(info) }

func alignAll(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	g := mustGraph(t, src)
	res, err := Align(g, opts)
	if err != nil {
		t.Fatalf("align: %v", err)
	}
	return res
}

const fig1 = `
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`

// TestFig1MobileOffset reproduces the paper's headline example: with
// mobile offsets allowed, the Figure 1 fragment aligns with zero residual
// communication, and V's offset alignment is a function of k.
func TestFig1MobileOffset(t *testing.T) {
	res := alignAll(t, fig1, Options{Offset: OffsetOptions{Strategy: StrategyFixed, M: 3}})
	if res.AxisStride.Cost != 0 {
		t.Errorf("axis/stride discrete cost = %d, want 0", res.AxisStride.Cost)
	}
	if res.Offset.Exact != 0 {
		t.Errorf("exact offset cost = %d, want 0 (mobile alignment eliminates all realignment)", res.Offset.Exact)
	}
	// V's alignment must be mobile: some port of V's chain has an offset
	// depending on k.
	mobile := false
	for _, n := range res.Graph.Nodes {
		if n.Kind == adg.KindSection && n.Label[0] == 'v' {
			a := res.Assignment.Of(n.In[0])
			for _, off := range a.Offset {
				if !off.IsConst() {
					mobile = true
				}
			}
		}
	}
	if !mobile {
		t.Error("V's alignment is not mobile; the paper shows mobility is necessary here")
	}
}

// TestFig1StaticOffsetCostly verifies the other half of the paper's
// claim: restricted to static (non-mobile) offsets, the fragment cannot
// be aligned for free. We emulate the restriction by evaluating the best
// static assignment: identity alignments everywhere.
func TestFig1StaticIsWorse(t *testing.T) {
	g := mustGraph(t, fig1)
	as, err := AxisStride(g)
	if err != nil {
		t.Fatal(err)
	}
	// Zero all mobile coefficients: keep only the constant offset parts
	// from a static solve with the mobile machinery disabled by using
	// identity (all-zero) offsets.
	repl := NoReplication(g)
	off, err := Offsets(g, as, repl, OffsetOptions{Strategy: StrategyFixed, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	if off.Exact != 0 {
		t.Fatalf("mobile solve should be free, got %d", off.Exact)
	}
	// Best STATIC alignment: solve with mobile coefficients pinned to 0.
	statOff, err := Offsets(g, as, repl, OffsetOptions{Strategy: StrategyFixed, M: 3, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if statOff.Exact == 0 {
		t.Error("best static alignment also free — mobility would not be necessary, contradicting the paper")
	}
	if statOff.Exact <= off.Exact {
		// off.Exact is 0, so any positive static cost passes; this guards
		// the comparison direction if the mobile result regresses.
		t.Logf("static=%d mobile=%d", statOff.Exact, off.Exact)
	}
}

// TestExample1Offset reproduces Example 1: A(1:N-1) = A(1:N-1) + B(2:N)
// aligns communication-free with B(i) ⊞ [i-1].
func TestExample1Offset(t *testing.T) {
	res := alignAll(t, `
real A(100), B(100)
A(1:99) = A(1:99) + B(2:100)
`, Options{})
	if res.Offset.Exact != 0 {
		t.Errorf("exact offset cost = %d, want 0", res.Offset.Exact)
	}
	if res.AxisStride.Cost != 0 {
		t.Errorf("axis/stride cost = %d, want 0", res.AxisStride.Cost)
	}
	// B's source and A's source must differ by one template cell.
	var aOff, bOff int64
	seen := 0
	for _, n := range res.Graph.Nodes {
		if n.Kind == adg.KindSource {
			a := res.Assignment.Of(n.Out[0])
			if len(a.Offset) > 0 && a.Offset[0].IsConst() {
				switch n.Label {
				case "a":
					aOff = a.Offset[0].ConstPart()
					seen++
				case "b":
					bOff = a.Offset[0].ConstPart()
					seen++
				}
			}
		}
	}
	if seen == 2 && aOff-bOff != 1 && bOff-aOff != 1 {
		t.Errorf("offsets a=%d b=%d, want |a-b| = 1", aOff, bOff)
	}
}

// TestExample2Stride reproduces Example 2: A(1:N)=A(1:N)+B(2:2N:2) aligns
// communication-free with A(i) ⊞ [2i] (or equivalently B at stride 1/2
// of A's), under the discrete stride metric.
func TestExample2Stride(t *testing.T) {
	res := alignAll(t, `
real A(100), B(200)
A(1:100) = A(1:100) + B(2:200:2)
`, Options{})
	if res.AxisStride.Cost != 0 {
		t.Errorf("stride discrete cost = %d, want 0 (stride-2 alignment of A avoids it)", res.AxisStride.Cost)
	}
	// One of the arrays must carry a non-unit stride.
	nonUnit := false
	for _, n := range res.Graph.Nodes {
		if n.Kind == adg.KindSource {
			a := res.Assignment.Of(n.Out[0])
			for _, s := range a.Stride {
				if !s.IsConst() || s.ConstPart() != 1 {
					nonUnit = true
				}
			}
		}
	}
	if !nonUnit {
		t.Error("no non-unit stride chosen; Example 2 requires stride alignment")
	}
}

// TestExample3Axis reproduces Example 3: B = B + transpose(C) aligns
// communication-free with C(i1,i2) ⊞ [i2,i1].
func TestExample3Axis(t *testing.T) {
	res := alignAll(t, `
real B(60,40), C(40,60)
B = B + transpose(C)
`, Options{})
	if res.AxisStride.Cost != 0 {
		t.Errorf("axis discrete cost = %d, want 0", res.AxisStride.Cost)
	}
	// B and C sources must have opposite axis maps.
	var bMap, cMap []int
	for _, n := range res.Graph.Nodes {
		if n.Kind == adg.KindSource {
			a := res.Assignment.Of(n.Out[0])
			if n.Label == "b" {
				bMap = a.AxisMap
			}
			if n.Label == "c" {
				cMap = a.AxisMap
			}
		}
	}
	if len(bMap) == 2 && len(cMap) == 2 {
		if bMap[0] == cMap[0] {
			t.Errorf("B axis map %v equals C axis map %v; want opposite", bMap, cMap)
		}
	}
}

// TestExample5MobileStride reproduces Example 5: with mobile stride
// V(i) ⊞k [ki], the loop needs one general communication per iteration
// instead of two.
func TestExample5MobileStride(t *testing.T) {
	res := alignAll(t, `
real A(1000), B(1000), V(20)
do k = 1, 50
  V = V + A(1:20*k:k)
  B(1:20*k:k) = V
enddo
`, Options{})
	// Total data volume on general edges: V's chain is 20 elements × 50
	// iterations = 1000 per crossing. With the mobile stride the cost is
	// one stride change per iteration (1000); static strides force two
	// (2000).
	if res.AxisStride.Cost > 1000 {
		t.Errorf("axis/stride cost = %d, want <= 1000 (one general comm per iteration)", res.AxisStride.Cost)
	}
	// V must end up with a mobile stride somewhere in its chain.
	mobile := false
	for pid, l := range res.AxisStride.Labels {
		_ = pid
		for _, s := range l.Stride {
			if !s.IsConst() {
				mobile = true
			}
		}
	}
	if !mobile {
		t.Error("no mobile stride chosen; Example 5 requires V(i) ⊞k [ki]")
	}
}

// TestReplicationFig4 reproduces Figure 4: a spread inside a loop makes
// replication of t profitable — one broadcast at loop entry instead of
// one per iteration.
func TestReplicationFig4(t *testing.T) {
	src := `
real T(100), B(100,200)
do k = 1, 200
  T = cos(T)
  B = B + spread(T, 2, 200)
enddo
`
	with := alignAll(t, src, Options{Replication: true})
	// The spread input port must be replicated on the spread axis.
	okRepl := false
	for _, n := range with.Graph.Nodes {
		if n.Kind == adg.KindSpread {
			a := with.Assignment.Of(n.In[0])
			for _, r := range a.Replicated {
				if r {
					okRepl = true
				}
			}
		}
	}
	if !okRepl {
		t.Error("spread input not replicated")
	}
	// The broadcast volume must be bounded by (roughly) one broadcast of
	// t per iteration of the cos chain — the min-cut keeps it to the
	// cheapest edge set. In particular it must be far less than
	// re-broadcasting B every iteration (200×100×200).
	if with.Repl.Broadcast > 100*200+100 {
		t.Errorf("broadcast volume = %d, too high", with.Repl.Broadcast)
	}
}

// TestStrategiesAgreeOnEasyCase: all five §4.2 strategies find the free
// alignment on a scaled-down Figure 1 (unrolling is exponential in the
// iteration count, as the paper notes, so the shared case stays small).
func TestStrategiesAgreeOnEasyCase(t *testing.T) {
	fig1small := `
real A(10,10), V(20)
do k = 1, 10
  A(k,1:10) = A(k,1:10) + V(k:k+9)
enddo
`
	for _, s := range []Strategy{StrategyFixed, StrategySingle, StrategyZeroTrack, StrategyRecursive, StrategyUnroll} {
		g := mustGraph(t, fig1small)
		as, err := AxisStride(g)
		if err != nil {
			t.Fatal(err)
		}
		opts := OffsetOptions{Strategy: s, M: 3}
		if s == StrategyUnroll {
			opts.UnrollCap = 128
		}
		off, err := Offsets(g, as, nil, opts)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// Fixed partitioning, recursive refinement, and unrolling carry
		// quality guarantees and must find the free alignment; the paper
		// gives no convergence guarantee for state-space search or
		// zero-crossing tracking (§4.2), so they only need feasibility.
		switch s {
		case StrategyFixed, StrategyRecursive, StrategyUnroll:
			if off.Exact != 0 {
				t.Errorf("%v: exact cost %d, want 0", s, off.Exact)
			}
		default:
			if off.Exact < 0 {
				t.Errorf("%v: negative cost", s)
			}
			t.Logf("%v: exact cost %d", s, off.Exact)
		}
	}
}

// TestOffsetFeasibilityAfterRounding: the rounded offsets satisfy every
// node constraint exactly, from a one-shot solve and from every round of
// the §6 iteration the pipeline runs on a NewOffsetSolver (replication
// on, two rounds, the kept RLPs presolved).
func TestOffsetFeasibilityAfterRounding(t *testing.T) {
	srcs := []string{
		fig1,
		"real A(100), B(100)\nA(1:99) = A(1:99) + B(2:100)\n",
		"real A(50,50), C(50,50)\nA = A + transpose(C)\n",
		"real A(60)\ndo k = 1, 6\n A(k:k+9) = A(k:k+9) + 1\nenddo\n",
	}
	check := func(g *adg.Graph, as *AxisStrideResult, repl *ReplResult, off *OffsetResult, what string) {
		t.Helper()
		for axis := 0; axis < g.TemplateRank; axis++ {
			ax := &axisSolver{g: g, as: as, repl: repl, axis: axis, opts: OffsetOptions{}.withDefaults()}
			if !oracleFeasible(ax, off.Offsets) {
				t.Errorf("%s: rounded offsets infeasible on axis %d", what, axis)
			}
		}
	}
	for _, src := range srcs {
		g := mustGraph(t, src)
		as, err := AxisStride(g)
		if err != nil {
			t.Fatal(err)
		}
		off, err := Offsets(g, as, nil, OffsetOptions{Strategy: StrategyFixed, M: 3})
		if err != nil {
			t.Fatalf("%q: %v", src[:20], err)
		}
		check(g, as, NoReplication(g), off, fmt.Sprintf("%q one-shot", src[:20]))
		for _, s := range []Strategy{StrategyFixed, StrategySingle} {
			solver := NewOffsetSolver(g, as, OffsetOptions{Strategy: s, M: 3})
			var mobile MobilePredicate
			for round := 0; round < 2; round++ {
				repl, err := Replicate(g, as, mobile)
				if err != nil {
					t.Fatal(err)
				}
				off, err := solver.Solve(repl)
				if err != nil {
					t.Fatalf("%q %v round %d: %v", src[:20], s, round, err)
				}
				check(g, as, repl, off, fmt.Sprintf("%q %v round %d", src[:20], s, round))
				mobile = func(p *adg.Port, t int) bool { return !off.Offsets[p.ID][t].IsConst() }
			}
		}
	}
}

// TestReplicationConstraints: body-axis ports are never labeled
// replicated (§5.2 constraint 1).
func TestReplicationConstraints(t *testing.T) {
	src := `
real T(100), B(100,200), V(200)
do k = 1, 50
  T = cos(T)
  B = B + spread(T, 2, 200)
  V = V + sum(B, 1)
enddo
`
	g := mustGraph(t, src)
	as, err := AxisStride(g)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := Replicate(g, as, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.Ports {
		l := as.Labels[p.ID]
		for _, axis := range l.AxisMap {
			if repl.Replicated(p, axis) {
				t.Errorf("port %d replicated on its own body axis %d", p.ID, axis)
			}
		}
	}
}

// cloneOffsets deep-copies an offsets map.
func cloneOffsets(in map[int][]expr.Affine) map[int][]expr.Affine {
	out := map[int][]expr.Affine{}
	for k, v := range in {
		out[k] = append([]expr.Affine{}, v...)
	}
	return out
}

// TestParseStrategy pins the one name table alignc, alignd and the
// service request decoder share.
func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Strategy
	}{
		{"fixed", StrategyFixed},
		{"unroll", StrategyUnroll},
		{"search", StrategySingle},
		{"zerotrack", StrategyZeroTrack},
		{"recursive", StrategyRecursive},
	} {
		got, err := ParseStrategy(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil || err.Error() != `unknown strategy "bogus"` {
		t.Errorf("ParseStrategy(bogus) error = %v", err)
	}
}

// oracleFeasible is the independent check the node tables are tested
// against: it reports whether the node constraints of ax's axis hold
// for the offsets, evaluating each as an equation of expr.Affine
// offsets (a transformer's by substituting its loop variable).
func oracleFeasible(ax *axisSolver, offsets map[int][]expr.Affine) bool {
	ok := true
	check := func(a, b *adg.Port, delta expr.Affine) {
		lhs := offsets[a.ID][ax.axis]
		rhs := offsets[b.ID][ax.axis].Add(delta)
		if !lhs.Equal(rhs) {
			ok = false
		}
	}
	t := ax.axis
	zero := expr.Const(0)
	for _, n := range ax.g.Nodes {
		switch n.Kind {
		case adg.KindOp, adg.KindMerge, adg.KindFanout, adg.KindBranch:
			ref := n.Out[0]
			for _, p := range n.In {
				check(p, ref, zero)
			}
			for _, p := range n.Out[1:] {
				check(p, ref, zero)
			}
		case adg.KindTranspose:
			check(n.Out[0], n.In[0], zero)
		case adg.KindSection:
			oracleSection(ax, n, n.In[0], n.Out[0], offsets, &ok)
		case adg.KindSectionAssign:
			check(n.Out[0], n.In[0], zero)
			oracleSection(ax, n, n.In[0], n.In[1], offsets, &ok)
		case adg.KindSpread:
			outLabel := ax.as.Labels[n.Out[0].ID]
			spreadAxis := -1
			if n.SpreadDim-1 < len(outLabel.AxisMap) {
				spreadAxis = outLabel.AxisMap[n.SpreadDim-1]
			}
			if t != spreadAxis {
				check(n.Out[0], n.In[0], zero)
			}
		case adg.KindReduce:
			if n.ReduceDim == 0 {
				continue
			}
			inLabel := ax.as.Labels[n.In[0].ID]
			if t != inLabel.AxisMap[n.ReduceDim-1] {
				check(n.Out[0], n.In[0], zero)
			}
		case adg.KindXform:
			x := n.Xform
			in, out := offsets[n.In[0].ID][t], offsets[n.Out[0].ID][t]
			switch x.Kind {
			case adg.XformEntry:
				want := out.Subst(x.LIV, x.Lo)
				if !in.Equal(want) {
					ok = false
				}
			case adg.XformLoopBack:
				want := in.Subst(x.LIV, expr.Var(x.LIV).Add(x.Step))
				if !want.Equal(out) {
					ok = false
				}
			case adg.XformExit:
				want := in.Subst(x.LIV, lastIterate(x))
				if !out.Equal(want) {
					ok = false
				}
			}
		}
		if !ok {
			return false
		}
	}
	return ok
}

func oracleSection(ax *axisSolver, n *adg.Node, whole, sec *adg.Port, offsets map[int][]expr.Affine, ok *bool) {
	t := ax.axis
	label := ax.as.Labels[whole.ID]
	d := -1
	for dd, a := range label.AxisMap {
		if a == t {
			d = dd
			break
		}
	}
	var delta expr.Affine
	if d < 0 {
		delta = expr.Const(0)
	} else {
		sub := n.Section.Subs[d]
		if sub.IsVector {
			return
		}
		pos := sub.Index
		if sub.IsRange {
			pos = sub.Lo
		}
		var good bool
		delta, good = mulAffine(pos.AddConst(-1), label.Stride[d])
		if !good {
			delta = expr.Const(0)
		}
	}
	lhs := offsets[sec.ID][t]
	rhs := offsets[whole.ID][t].Add(delta)
	if !lhs.Equal(rhs) {
		*ok = false
	}
}
