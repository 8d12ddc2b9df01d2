package repro

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/adg"
	"repro/internal/align"
	"repro/internal/build"
	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/lp"
	"repro/internal/machine"
	"repro/internal/netflow"
	"repro/internal/space"
)

// The benchmark harness regenerates every worked example, figure, and
// analytic claim in the paper's evaluation (see EXPERIMENTS.md for the
// paper-vs-measured record). Custom metrics carry the reproduced numbers;
// ns/op measures the compile-time cost of the analyses themselves.

func mustAlign(b *testing.B, src string, opts Options) *Result {
	b.Helper()
	res, err := AlignSource(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

const fig1Src = `
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`

// BenchmarkE1Fig1MobileVsStatic — Figure 1: mobile offset alignment
// executes the fragment with zero residual communication; the best static
// alignment pays a shift every iteration.
func BenchmarkE1Fig1MobileVsStatic(b *testing.B) {
	var mobileCost, staticCost int64
	for i := 0; i < b.N; i++ {
		info, _ := lang.Analyze(lang.MustParse(fig1Src))
		g, _ := build.Build(info)
		as, err := align.AxisStride(g)
		if err != nil {
			b.Fatal(err)
		}
		repl := align.NoReplication(g)
		mobile, err := align.Offsets(g, as, repl, align.OffsetOptions{Strategy: align.StrategyFixed, M: 3})
		if err != nil {
			b.Fatal(err)
		}
		static, err := align.Offsets(g, as, repl, align.OffsetOptions{Strategy: align.StrategyFixed, M: 3, Static: true})
		if err != nil {
			b.Fatal(err)
		}
		mobileCost, staticCost = mobile.Exact, static.Exact
	}
	b.ReportMetric(float64(mobileCost), "mobile-cost")
	b.ReportMetric(float64(staticCost), "static-cost")
	if mobileCost != 0 {
		b.Errorf("mobile cost = %d, want 0", mobileCost)
	}
	if staticCost == 0 {
		b.Errorf("static cost = 0, want > 0")
	}
}

// BenchmarkE2Example1Offset — Example 1: the unit-offset alignment
// removes the nearest-neighbor shift.
func BenchmarkE2Example1Offset(b *testing.B) {
	var res *Result
	for i := 0; i < b.N; i++ {
		res = mustAlign(b, `
real A(100), B(100)
A(1:99) = A(1:99) + B(2:100)
`, Options{})
	}
	b.ReportMetric(float64(res.Cost.Total()), "residual-cost")
	if res.Cost.Total() != 0 {
		b.Errorf("Example 1 cost = %d, want 0", res.Cost.Total())
	}
}

// BenchmarkE3Example2Stride — Example 2: stride alignment A(i) ⊞ [2i]
// avoids general communication.
func BenchmarkE3Example2Stride(b *testing.B) {
	var res *Result
	for i := 0; i < b.N; i++ {
		res = mustAlign(b, `
real A(100), B(200)
A(1:100) = A(1:100) + B(2:200:2)
`, Options{})
	}
	b.ReportMetric(float64(res.Align.AxisStride.Cost), "general-volume")
	if res.Align.AxisStride.Cost != 0 {
		b.Errorf("Example 2 stride cost = %d, want 0", res.Align.AxisStride.Cost)
	}
}

// BenchmarkE4Example3Axis — Example 3: axis alignment C(i1,i2) ⊞ [i2,i1]
// removes the transpose communication.
func BenchmarkE4Example3Axis(b *testing.B) {
	var res *Result
	for i := 0; i < b.N; i++ {
		res = mustAlign(b, `
real B(64,48), C(48,64)
B = B + transpose(C)
`, Options{})
	}
	b.ReportMetric(float64(res.Align.AxisStride.Cost), "general-volume")
	if res.Align.AxisStride.Cost != 0 {
		b.Errorf("Example 3 axis cost = %d, want 0", res.Align.AxisStride.Cost)
	}
}

// BenchmarkE5Example5MobileStride — Example 5: mobile stride V(i) ⊞k [ki]
// drops the cost from two general communications per iteration to one
// (volume 2000 → 1000 over 50 iterations of 20 elements).
func BenchmarkE5Example5MobileStride(b *testing.B) {
	var res *Result
	for i := 0; i < b.N; i++ {
		res = mustAlign(b, `
real A(1000), B(1000), V(20)
do k = 1, 50
  V = V + A(1:20*k:k)
  B(1:20*k:k) = V
enddo
`, Options{})
	}
	b.ReportMetric(float64(res.Align.AxisStride.Cost), "general-volume")
	if res.Align.AxisStride.Cost > 1000 {
		b.Errorf("mobile stride cost = %d, want <= 1000 (1 general comm/iter)", res.Align.AxisStride.Cost)
	}
}

// BenchmarkE6PartitionErrorBound — Figure 3 / §4.2: the m-subrange
// approximation of Σ w·|span| is within (1 + 2/m²) of exact. Measured on
// the adversarial span family span(i) = i - c over 1..n, maximizing the
// approximation error over the crossing position c.
func BenchmarkE6PartitionErrorBound(b *testing.B) {
	n := int64(60)
	tr := space.NewTriplet(1, n, 1)
	w := expr.Const(1)
	worst := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range []int{1, 2, 3, 5, 10} {
			worstRatio := 1.0
			for c := int64(1); c <= n; c += 3 {
				span := expr.Axpy(1, "i", -c)
				exact := expr.SumAbsAffineOverTriplet(w, span, "i", tr)
				if exact == 0 {
					continue
				}
				// The m-subrange approximation: |Σ| per subrange.
				var approx int64
				for _, sub := range tr.Partition(m) {
					s := expr.SumOverTriplet(w.Poly().Mul(span.Poly()), "i", sub)
					v, _ := s.IsConst()
					if v < 0 {
						v = -v
					}
					approx += v
				}
				// The approximation UNDERestimates; the solution found by
				// minimizing it is within exact/approx of optimal.
				r := float64(exact) / float64(approx+1)
				if approx > 0 {
					r = float64(exact) / float64(approx)
				}
				if r > worstRatio {
					worstRatio = r
				}
			}
			worst[m] = worstRatio
		}
	}
	for _, m := range []int{1, 2, 3, 5, 10} {
		b.ReportMetric(worst[m], fmt.Sprintf("worst-ratio-m%d", m))
		bound := 1 + 2/float64(m*m)
		if m >= 2 && worst[m] > bound+0.05 {
			b.Errorf("m=%d: worst ratio %.3f exceeds paper bound %.3f", m, worst[m], bound)
		}
	}
}

// BenchmarkE7StrategyComparison — §4.2: the five mobile-offset algorithms
// compared on a loop whose span has an interior zero crossing; reports
// solution quality (exact cost) and LP size.
func BenchmarkE7StrategyComparison(b *testing.B) {
	// Small enough that even full unrolling (the exact but impractical
	// strategy) solves in seconds, as the paper anticipates.
	src := `
real A(40), B(60)
do k = 1, 16
  A(9:28) = A(9:28) + B(k:k+19)
enddo
`
	type outcome struct {
		exact  int64
		lpVars int
		solves int
	}
	results := map[align.Strategy]outcome{}
	strategies := []align.Strategy{
		align.StrategyFixed, align.StrategySingle, align.StrategyZeroTrack,
		align.StrategyRecursive, align.StrategyUnroll,
	}
	for i := 0; i < b.N; i++ {
		for _, s := range strategies {
			info, _ := lang.Analyze(lang.MustParse(src))
			g, _ := build.Build(info)
			as, err := align.AxisStride(g)
			if err != nil {
				b.Fatal(err)
			}
			opts := align.OffsetOptions{Strategy: s, M: 3, UnrollCap: 16}
			off, err := align.Offsets(g, as, nil, opts)
			if err != nil {
				b.Fatal(err)
			}
			results[s] = outcome{exact: off.Exact, lpVars: off.LPVariables, solves: off.Solves}
		}
	}
	for _, s := range strategies {
		r := results[s]
		b.ReportMetric(float64(r.exact), s.String()+"-cost")
		b.ReportMetric(float64(r.lpVars), s.String()+"-lpvars")
	}
	// Fixed partitioning must be within the paper's 22% of the best found.
	best := results[align.StrategyUnroll].exact
	if best > 0 {
		ratio := float64(results[align.StrategyFixed].exact) / float64(best)
		b.ReportMetric(ratio, "fixed-vs-exact-ratio")
		if ratio > 1.23 {
			b.Errorf("fixed partitioning %.3f× exact, exceeds 1.22 bound", ratio)
		}
	}
}

// BenchmarkE8VariableSize — §4.3: closed forms σ0, σ1, σ2 for
// variable-size objects (weight β0 + β1·i) against brute force, and the
// speedup of evaluating them in closed form.
func BenchmarkE8VariableSize(b *testing.B) {
	tr := space.NewTriplet(3, 3+5*999, 5)
	var closed int64
	for i := 0; i < b.N; i++ {
		// weight(i) = 7 + 2i summed via σ forms.
		closed = 7*expr.Sigma0(tr) + 2*expr.Sigma1(tr)
	}
	var brute int64
	for _, iv := range tr.Values() {
		brute += 7 + 2*iv
	}
	if closed != brute {
		b.Errorf("closed form %d != brute force %d", closed, brute)
	}
	b.ReportMetric(float64(closed), "total-weight")
}

// BenchmarkE9LoopNests — §4.4: the 3^k Cartesian-product partition; the
// LP grows as 3^k·|E| variables with nest depth k.
func BenchmarkE9LoopNests(b *testing.B) {
	srcs := map[int]string{
		1: `
real A(40,40)
do i = 1, 12
  A(i,1:40) = A(i,1:40) + 1
enddo
`,
		2: `
real A(40,40)
do i = 1, 12
  do j = 1, 12
    A(i,j:j+9) = A(i,j:j+9) + 1
  enddo
enddo
`,
	}
	vars := map[int]int{}
	for i := 0; i < b.N; i++ {
		for depth, src := range srcs {
			info, _ := lang.Analyze(lang.MustParse(src))
			g, _ := build.Build(info)
			as, err := align.AxisStride(g)
			if err != nil {
				b.Fatal(err)
			}
			off, err := align.Offsets(g, as, nil, align.OffsetOptions{Strategy: align.StrategyFixed, M: 3})
			if err != nil {
				b.Fatal(err)
			}
			vars[depth] = off.LPVariables
		}
	}
	b.ReportMetric(float64(vars[1]), "lpvars-depth1")
	b.ReportMetric(float64(vars[2]), "lpvars-depth2")
	if vars[2] <= vars[1] {
		b.Errorf("depth-2 LP (%d vars) not larger than depth-1 (%d)", vars[2], vars[1])
	}
}

// BenchmarkE10Replication — Figure 4 + Theorem 1: replication labeling by
// min-cut keeps the broadcast volume at one t-broadcast per iteration
// (the cos chain) instead of re-broadcasting the spread result; and the
// LP min-cut (the paper's noted alternative) agrees with Dinic.
func BenchmarkE10Replication(b *testing.B) {
	src := `
real T(100), B(100,200)
do k = 1, 200
  T = cos(T)
  B = B + spread(T, 2, 200)
enddo
`
	var with, without int64
	for i := 0; i < b.N; i++ {
		resWith := mustAlign(b, src, Options{Replication: true})
		with = resWith.Cost.Broadcast + resWith.Cost.Shift + resWith.Cost.General
		// Without replication labeling the spread input edge pays a
		// broadcast-equivalent general/shift cost every iteration; the
		// machine simulator shows the same shape.
		resWithout := mustAlign(b, src, Options{Replication: false})
		without = resWithout.Cost.Total()
		cfg := machine.Config{Grid: []int{4, 4}, Extent: []int64{256, 256}}
		trW := machine.Simulate(resWith.Graph, resWith.Assignment(), cfg)
		trWo := machine.Simulate(resWithout.Graph, resWithout.Assignment(), cfg)
		b.ReportMetric(trW.Time(cfg), "time-with-repl")
		b.ReportMetric(trWo.Time(cfg), "time-without-repl")
	}
	b.ReportMetric(float64(with), "cost-with-repl")
	b.ReportMetric(float64(without), "cost-without-repl")

	// Theorem 1 ablation: Dinic vs LP min-cut on the replication network
	// extracted from a random labeling instance.
	g := netflow.NewGraph(6)
	edges := []netflow.LPEdge{
		{From: 0, To: 1, Capacity: 100}, {From: 1, To: 2, Capacity: 20},
		{From: 2, To: 3, Capacity: 100}, {From: 1, To: 4, Capacity: 15},
		{From: 4, To: 3, Capacity: 100}, {From: 0, To: 5, Capacity: 30},
		{From: 5, To: 3, Capacity: 25},
	}
	for _, e := range edges {
		g.AddEdge(e.From, e.To, e.Capacity)
	}
	dinic := g.MaxFlow(0, 3).Value
	lpVal, _, err := netflow.MinCutLP(6, edges, 0, 3)
	if err != nil {
		b.Fatal(err)
	}
	if dinic != lpVal {
		b.Errorf("Dinic min cut %d != LP min cut %d", dinic, lpVal)
	}
	b.ReportMetric(float64(dinic), "mincut-value")
}

// BenchmarkPipelineFig1 times the full compile pipeline on Figure 1.
func BenchmarkPipelineFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := AlignSource(fig1Src, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1DistributionAblation — the distribution phase the paper
// defers (§6): the same misaligned program on block vs cyclic template
// distribution. Unit offset shifts touch only block boundaries under
// block distribution but move every element under cyclic — the shape the
// alignment/distribution interaction discussion predicts.
func BenchmarkA1DistributionAblation(b *testing.B) {
	src := `
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`
	info, _ := lang.Analyze(lang.MustParse(src))
	g, _ := build.Build(info)
	as, err := align.AxisStride(g)
	if err != nil {
		b.Fatal(err)
	}
	repl := align.NoReplication(g)
	static, err := align.Offsets(g, as, repl, align.OffsetOptions{Strategy: align.StrategyFixed, M: 3, Static: true})
	if err != nil {
		b.Fatal(err)
	}
	r := &align.Result{Graph: g, AxisStride: as, Repl: repl, Offset: static}
	asg := r.BuildAssignment()
	var blockT, cyclicT float64
	for i := 0; i < b.N; i++ {
		blockCfg := machine.Config{Grid: []int{4, 4}, Extent: []int64{256, 256}}
		cyclicCfg := machine.Config{Grid: []int{4, 4}, Extent: []int64{256, 256},
			Dist: []machine.Distribution{machine.Cyclic, machine.Cyclic}}
		blockT = machine.Simulate(g, asg, blockCfg).Time(blockCfg)
		cyclicT = machine.Simulate(g, asg, cyclicCfg).Time(cyclicCfg)
	}
	b.ReportMetric(blockT, "block-time")
	b.ReportMetric(cyclicT, "cyclic-time")
	if cyclicT <= blockT {
		b.Errorf("cyclic (%v) should pay more than block (%v) for shift realignment", cyclicT, blockT)
	}
}

// BenchmarkA2ReplicationIteration — the §6 chicken-and-egg: iterating
// replication labeling with mobile-offset information (round 2) finds at
// least as good a labeling as the first round.
func BenchmarkA2ReplicationIteration(b *testing.B) {
	src := `
real W(128), D(128,64)
do k = 1, 64
  D(1:128,k) = D(1:128,k) + W(1:128)
  W = W * 2
enddo
`
	var r1, r2 int64
	for i := 0; i < b.N; i++ {
		res1 := mustAlign(b, src, Options{Replication: true, ReplicationRounds: 1})
		res2 := mustAlign(b, src, Options{Replication: true, ReplicationRounds: 2})
		r1, r2 = res1.Cost.Total(), res2.Cost.Total()
	}
	b.ReportMetric(float64(r1), "round1-cost")
	b.ReportMetric(float64(r2), "round2-cost")
	if r2 > r1 {
		b.Errorf("iterating replication/offsets worsened the result: %d → %d", r1, r2)
	}
}

// rank4Src exercises all four template axes with mobile sections, so the
// per-axis offset RLPs are symmetric and heavy — the workload for the
// parallel-axis and warm-start benchmarks.
const rank4Src = `
real A(24,24,24,24), B(24,24,24,24), C(24,24,24,24)
do k = 1, 8
  A(k:k+8,k:k+8,k:k+8,k:k+8) = A(k:k+8,k:k+8,k:k+8,k:k+8) + B(k+1:k+9,k+1:k+9,k+1:k+9,k+1:k+9)
  B(k:k+8,k:k+8,k:k+8,k:k+8) = B(k:k+8,k:k+8,k:k+8,k:k+8) * 2
  C(k:k+8,k:k+8,k:k+8,k:k+8) = C(k:k+8,k:k+8,k:k+8,k:k+8) + A(k+1:k+9,k+1:k+9,k+1:k+9,k+1:k+9)
enddo
`

func rank4Graph(tb testing.TB) (*adg.Graph, *align.AxisStrideResult) {
	tb.Helper()
	info, err := lang.Analyze(lang.MustParse(rank4Src))
	if err != nil {
		tb.Fatal(err)
	}
	g, err := build.Build(info)
	if err != nil {
		tb.Fatal(err)
	}
	as, err := align.AxisStride(g)
	if err != nil {
		tb.Fatal(err)
	}
	return g, as
}

// BenchmarkOffsetsParallel — the tentpole fan-out: the four per-axis
// RLPs solve on a worker pool. Sequential and parallel results are
// byte-identical (TestParallelismDeterminism); with GOMAXPROCS ≥ 4 the
// parallel run must be ≥1.5× faster. On fewer cores the speedup is
// reported but not asserted (a 1-CPU box cannot overlap the axes).
func BenchmarkOffsetsParallel(b *testing.B) {
	g, as := rank4Graph(b)
	procs := runtime.GOMAXPROCS(0)
	measure := func(par int) time.Duration {
		opts := align.OffsetOptions{Strategy: align.StrategyFixed, M: 3, Parallelism: par}
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := align.Offsets(g, as, nil, opts); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	seq := measure(1)
	par := measure(procs)
	speedup := float64(seq) / float64(par)
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(procs), "gomaxprocs")
	if procs >= 4 && speedup < 1.5 {
		b.Errorf("parallel axis solve speedup %.2fx < 1.5x with GOMAXPROCS=%d", speedup, procs)
	}
}

// BenchmarkOffsetsWarmStart — the §6 replication rounds: re-solving
// under a changed replication labeling via the retained basis (phase 2
// only) versus a cold two-phase solve per round. Warm re-solves must
// pivot strictly less; allocations drop because the tableau is carved
// from the per-axis arena. rank4Src's four axes build one RLP, so the
// warm side re-solves only axis 0 and the other three mirror its
// answer (OffsetSolver); the cold side is the one-shot path, which
// still solves all four.
func BenchmarkOffsetsWarmStart(b *testing.B) {
	g, as := rank4Graph(b)
	opts := align.OffsetOptions{Strategy: align.StrategyFixed, M: 3, Parallelism: 1}
	repl := align.NoReplication(g)
	var coldPivots, warmPivots int64
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			off, err := align.Offsets(g, as, repl, opts)
			if err != nil {
				b.Fatal(err)
			}
			coldPivots = off.Stats.Pivots
		}
		b.ReportMetric(float64(coldPivots), "pivots")
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		solver := align.NewOffsetSolver(g, as, opts)
		if _, err := solver.Solve(repl); err != nil {
			b.Fatal(err) // pay the cold factorization outside the loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off, err := solver.Solve(repl)
			if err != nil {
				b.Fatal(err)
			}
			warmPivots = off.Stats.Pivots
		}
		b.ReportMetric(float64(warmPivots), "pivots")
	})
	if coldPivots > 0 && warmPivots >= coldPivots {
		b.Errorf("warm re-solve pivots (%d) not below cold solve pivots (%d)", warmPivots, coldPivots)
	}
}

// TestColdOffsetsAllocs bounds the cold offsets phase that
// BenchmarkOffsetsWarmStart/cold times (rank-4, no replication): every
// solve builds each axis RLP, sums its moments and runs both simplex
// phases from scratch. Measured ~6 700 allocs/op; ~10 400 with
// map-built RLP rows and ~33 000 when the moments were also summed as
// symbolic polynomials. The gate at 14 000 catches a return to
// symbolic moment sums.
func TestColdOffsetsAllocs(t *testing.T) {
	g, as := rank4Graph(t)
	opts := align.OffsetOptions{Strategy: align.StrategyFixed, M: 3, Parallelism: 1}
	repl := align.NoReplication(g)
	checkAllocs(t, 5, 14000, func() error {
		_, err := align.Offsets(g, as, repl, opts)
		return err
	})
}

// axisHeavySrc is the rank-4 workload for the §3 compact DP itself:
// strided rank-4 sections, a transpose pair, and index sections give the
// solver a nontrivial candidate-label space (many distinct axis/stride
// labels, >100 node configurations) where label interning and the
// flat DP state pay off.
const axisHeavySrc = `
real A(64,64,64,64), B(128,128,128,128), C(64,64), D(64,64), V(64)
do k = 1, 16
  A(1:64,1:64,1:64,1:64) = A(1:64,1:64,1:64,1:64) + B(2:128:2,2:128:2,2:128:2,2:128:2)
  C = C + transpose(D)
  D = transpose(C)
  V = V + A(1:64,k,k,k)
  C(1:64,k) = V
enddo
`

func buildGraph(tb testing.TB, src string) *adg.Graph {
	tb.Helper()
	info, err := lang.Analyze(lang.MustParse(src))
	if err != nil {
		tb.Fatal(err)
	}
	g, err := build.Build(info)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// checkAllocs gates the steady-state allocations of a pooled hot path:
// f runs once to warm its pools, then AllocsPerRun averages runs more
// calls, which must stay at or below gate. The gates carry generous
// headroom over the measured steady state, so a breach means a pooled
// path started allocating per solve again. Skipped under the race
// detector, whose instrumentation allocates and would invalidate the
// gate.
func checkAllocs(t *testing.T, runs int, gate float64, f func() error) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instrumentation allocates, invalidating AllocsPerRun")
	}
	var err error
	allocs := testing.AllocsPerRun(runs, func() {
		if e := f(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocs/op (gate %.0f)", allocs, gate)
	if allocs > gate {
		t.Errorf("%.0f allocs/op, want <= %.0f", allocs, gate)
	}
}

// minTime returns the fastest of tries timings of f over reps
// iterations, so the gated speedup ratios below stay stable even at
// -benchtime=1x (the CI bench-smoke setting).
func minTime(b *testing.B, tries, reps int, f func() error) time.Duration {
	b.Helper()
	best := time.Duration(-1)
	for t := 0; t < tries; t++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
		if d := time.Since(t0); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// minTimePair times two sides of a wall-clock ratio the way minTime
// times one, but interleaved: each try times one batch of f and one of
// g, in alternating order, so a burst of host noise lands on both
// sides instead of on whichever side happened to run during it.
func minTimePair(b *testing.B, tries, reps int, f, g func() error) (time.Duration, time.Duration) {
	b.Helper()
	sides := [2]func() error{f, g}
	best := [2]time.Duration{-1, -1}
	for t := 0; t < tries; t++ {
		for k := 0; k < 2; k++ {
			s := (t + k) % 2
			if d := minTime(b, 1, reps, sides[s]); best[s] < 0 || d < best[s] {
				best[s] = d
			}
		}
	}
	return best[0], best[1]
}

// BenchmarkAxisStride — the flat pooled DP against the retained
// interned-label slice-state solver it replaced (AxisStrideInterned,
// 2.1–2.3× quiet, gated ≥ 1.8× to clear mid-suite GC-pool noise on a
// single-CPU host) on the DP-heavy rank-4 workload and the examples/
// programs. ns/op and allocs/op measure the production solver warm (the
// pooled steady state the batch engine runs in); a warm-up solve before
// ResetTimer charges the pool's first-fill to setup. Both solvers share
// candidate generation, so the ratio isolates config enumeration +
// optimization. Byte-identical output across parallelism levels is
// asserted by TestAxisStrideDeterminism and TestDPStateDeterminism;
// TestAxisStrideAllocs bounds the steady-state allocs/op.
func BenchmarkAxisStride(b *testing.B) {
	workloads := []struct{ name, src string }{
		{"rank4", axisHeavySrc},
		{"stencil", determinismSources["stencil"]},
		{"transpose", determinismSources["transpose"]},
		{"spreadloop", determinismSources["spreadloop"]},
		{"tablelookup", determinismSources["tablelookup"]},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			g := buildGraph(b, w.src)
			// Quiesce the heap: earlier benchmarks (E7's unrolled LPs
			// especially) leave a bloated live set whose GC pacing, on
			// one CPU, taxes the timing windows below and corrupts the
			// gated ratios. FreeOSMemory forces a full collect and
			// resets the pacer's target to the true live set.
			debug.FreeOSMemory()
			if _, err := align.AxisStride(g); err != nil { // warm the pools
				b.Fatal(err)
			}
			// The two solvers are measured in interleaved rounds, the
			// order alternating between rounds, so a burst of host or GC
			// noise lands on both instead of skewing whichever solver
			// owned that window — the gate below compares a ratio, and
			// the min per solver across rounds cancels common-mode
			// slowdowns.
			internedT, flat := minTimePair(b, 4, 8, func() error {
				_, err := align.AxisStrideInterned(g)
				return err
			}, func() error {
				_, err := align.AxisStride(g)
				return err
			})
			var stats align.DPStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				as, err := align.AxisStride(g)
				if err != nil {
					b.Fatal(err)
				}
				stats = as.Stats
			}
			b.StopTimer()
			speedup := float64(internedT) / float64(flat)
			b.ReportMetric(speedup, "speedup-vs-interned")
			b.ReportMetric(float64(stats.Labels), "labels")
			b.ReportMetric(float64(stats.Configs), "configs")
			b.ReportMetric(float64(stats.Sweeps), "sweeps")
			// Quiet-state ratio is 2.1–2.3x, but mid-suite (after E7's
			// heap churn, which GC-clears the flat solver's pools) it
			// measures 1.9–2.0x even with the interleaved protocol and
			// forced collection above, so the gate carries margin below
			// the in-suite floor. A real regression — flat losing its
			// pooled advantage — lands near 1x and still trips it.
			if w.name == "rank4" && speedup < 1.8 {
				b.Errorf("flat DP speedup %.2fx < 1.8x over interned-label solver on rank-4 workload (interned %v, flat %v)",
					speedup, internedT, flat)
			}
		})
	}
}

// TestAxisStrideAllocs bounds the warm flat DP on the rank-4 workload
// (measured ~690 allocs/op) at 2000.
func TestAxisStrideAllocs(t *testing.T) {
	g := buildGraph(t, axisHeavySrc)
	checkAllocs(t, 20, 2000, func() error {
		_, err := align.AxisStride(g)
		return err
	})
}

// BenchmarkOffsetSolver — the two-tier offset LP engine against the
// retained dense tableau on the cold offsets phase of the rank4-dp
// workload (the §4 RLPs there are large and sparse, so EngineAuto
// selects the sparse revised simplex on every axis). ns/op times the
// production (auto) engine; the speedup metric is gated ≥ 3×, with the
// two sides timed interleaved (minTimePair). Both runs share graph
// construction and axis/stride alignment, so the ratio isolates the LP
// cores. Engine-invariant output is asserted by
// TestOffsetEngineDeterminism and TestDifferentialEngines.
func BenchmarkOffsetSolver(b *testing.B) {
	g := buildGraph(b, axisHeavySrc)
	as, err := align.AxisStride(g)
	if err != nil {
		b.Fatal(err)
	}
	repl := align.NoReplication(g)
	solve := func(eng lp.Engine) (*align.OffsetResult, error) {
		return align.Offsets(g, as, repl, align.OffsetOptions{
			Strategy: align.StrategyFixed, M: 3, Engine: eng,
		})
	}
	var denseRes, autoRes *align.OffsetResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(lp.EngineAuto); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	dense, auto := minTimePair(b, 3, 2, func() error {
		r, err := solve(lp.EngineDense)
		denseRes = r
		return err
	}, func() error {
		r, err := solve(lp.EngineAuto)
		autoRes = r
		return err
	})
	objTol := 1e-6 * (1 + denseRes.Approx)
	if denseRes.Exact != autoRes.Exact || denseRes.Approx-autoRes.Approx > objTol ||
		autoRes.Approx-denseRes.Approx > objTol {
		b.Fatalf("engines disagree: dense exact=%d approx=%g, auto exact=%d approx=%g",
			denseRes.Exact, denseRes.Approx, autoRes.Exact, autoRes.Approx)
	}
	speedup := float64(dense) / float64(auto)
	b.ReportMetric(speedup, "speedup-vs-dense")
	b.ReportMetric(float64(autoRes.Stats.SparseSolves), "sparse-solves")
	b.ReportMetric(float64(autoRes.Stats.Pivots), "pivots")
	b.ReportMetric(float64(autoRes.Stats.Refactors), "refactors")
	if speedup < 3 {
		b.Errorf("offset LP engine speedup %.2fx < 3x over dense tableau on rank4-dp (dense %v, auto %v)",
			speedup, dense, auto)
	}
}

// BenchmarkOffsetSolverPresolve — the RLP presolver and block
// decomposition on the rank4-dp offsets phase. The gated quantity is
// the §6 refinement round: replication labeling changes only the
// per-edge θ costs between rounds, so the presolved solver re-solves
// dirty blocks warm (and skips clean ones) while the monolithic
// baseline warm-solves the whole RLP every round — that round must be
// ≥ 2× faster with presolve on (measured ~3×). The cold round-0 solve
// also improves (~1.9× from contracted chains and smaller per-block
// bases) and is reported as a metric, un-gated: its ratio isolates
// presolve from the shared RLP-build and moments work, which dilutes
// it below the 2× the whole phase gains over the pre-presolve
// baseline recorded in EXPERIMENTS.md's E17 row. ns/op times one
// presolved refinement round; TestOffsetSolverPresolveAllocs bounds its
// allocs/op so presolve scratch stays pool-resident. Parallelism is
// pinned to 1 so the ratio compares solver work, not scheduling.
func BenchmarkOffsetSolverPresolve(b *testing.B) {
	g := buildGraph(b, axisHeavySrc)
	as, err := align.AxisStride(g)
	if err != nil {
		b.Fatal(err)
	}
	repl0, err := align.Replicate(g, as, nil)
	if err != nil {
		b.Fatal(err)
	}
	coldOf := func(mode lp.PresolveMode) (*align.OffsetSolver, *align.OffsetResult, time.Duration) {
		best := time.Duration(-1)
		var solver *align.OffsetSolver
		var off *align.OffsetResult
		for t := 0; t < 3; t++ {
			s := align.NewOffsetSolver(g, as, align.OffsetOptions{
				Strategy: align.StrategyFixed, M: 3, Presolve: mode, Parallelism: 1,
			})
			t0 := time.Now()
			r, err := s.Solve(repl0)
			if err != nil {
				b.Fatal(err)
			}
			if d := time.Since(t0); best < 0 || d < best {
				best = d
			}
			solver, off = s, r
		}
		return solver, off, best
	}
	onSolver, onRes, onCold := coldOf(lp.PresolveAuto)
	offSolver, offRes, offCold := coldOf(lp.PresolveOff)
	objTol := 1e-6 * (1 + onRes.Approx)
	if onRes.Exact != offRes.Exact || onRes.Approx-offRes.Approx > objTol ||
		offRes.Approx-onRes.Approx > objTol {
		b.Fatalf("presolve changes the optimum: on exact=%d approx=%g, off exact=%d approx=%g",
			onRes.Exact, onRes.Approx, offRes.Exact, offRes.Approx)
	}
	// Both modes replay the same round-1 labeling (derived from the
	// presolved round 0) so the gated ratio compares identical work;
	// degenerate RLPs could otherwise hand the two modes different
	// mobility patterns.
	mobile := func(p *adg.Port, ax int) bool { return !onRes.Offsets[p.ID][ax].IsConst() }
	repl1, err := align.Replicate(g, as, mobile)
	if err != nil {
		b.Fatal(err)
	}
	repls := [2]*align.ReplResult{repl0, repl1}
	roundOf := func(solver *align.OffsetSolver) time.Duration {
		i := 0
		return minTime(b, 4, 2, func() error {
			i = 1 - i
			_, err := solver.Solve(repls[i])
			return err
		})
	}
	onRound := roundOf(onSolver)
	offRound := roundOf(offSolver)
	b.ResetTimer()
	k := 0
	for i := 0; i < b.N; i++ {
		k = 1 - k
		if _, err := onSolver.Solve(repls[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	roundSpeedup := float64(offRound) / float64(onRound)
	b.ReportMetric(roundSpeedup, "round-speedup-vs-nopresolve")
	b.ReportMetric(float64(offCold)/float64(onCold), "cold-speedup-vs-nopresolve")
	b.ReportMetric(float64(onRes.Stats.Blocks), "blocks")
	b.ReportMetric(float64(onRes.Stats.PresolveFixed), "presolve-fixed")
	b.ReportMetric(float64(onRes.Stats.PresolveContracted), "presolve-contracted")
	if roundSpeedup < 2 {
		b.Errorf("presolved refinement round speedup %.2fx < 2x on rank4-dp offsets (presolve on %v, off %v)",
			roundSpeedup, onRound, offRound)
	}
}

// TestOffsetSolverPresolveAllocs bounds one presolved §6 refinement
// round on rank4-dp (measured ~190 allocs/op) at 3000: the round that
// BenchmarkOffsetSolverPresolve times, alternating the two labelings
// so every round re-solves dirty blocks warm.
func TestOffsetSolverPresolveAllocs(t *testing.T) {
	g := buildGraph(t, axisHeavySrc)
	as, err := align.AxisStride(g)
	if err != nil {
		t.Fatal(err)
	}
	repl0, err := align.Replicate(g, as, nil)
	if err != nil {
		t.Fatal(err)
	}
	solver := align.NewOffsetSolver(g, as, align.OffsetOptions{
		Strategy: align.StrategyFixed, M: 3, Presolve: lp.PresolveAuto, Parallelism: 1,
	})
	res, err := solver.Solve(repl0)
	if err != nil {
		t.Fatal(err)
	}
	mobile := func(p *adg.Port, ax int) bool { return !res.Offsets[p.ID][ax].IsConst() }
	repl1, err := align.Replicate(g, as, mobile)
	if err != nil {
		t.Fatal(err)
	}
	repls := [2]*align.ReplResult{repl0, repl1}
	k := 0
	checkAllocs(t, 8, 3000, func() error {
		k = 1 - k
		_, err := solver.Solve(repls[k])
		return err
	})
}

// BenchmarkOffsetSolverPresolveFig1 — the presolve size floor on the
// one-shot path (align.Offsets), the only path it governs: fig1's axis
// RLPs (87 vars + 96 constraints = 183) sit below presolveFloor, where
// E17 measured the reduction as a net ~9% regression (on top of the
// simplex's own equality presolve it saved no pivots), so PresolveAuto
// declines them and the offsets phase must cost no more than ~2% over
// the forced-off baseline. The floor must not fire the reduction at
// all (zero fixed/contracted/blocks), and larger workloads — rank4-dp
// at 558 — stay above it (gated ≥ 2× by BenchmarkOffsetSolverPresolve).
// The RLPs a NewOffsetSolver keeps across §6 rounds skip the equality
// presolve and ignore the floor (TestKeptRLPsPresolve).
func BenchmarkOffsetSolverPresolveFig1(b *testing.B) {
	g := buildGraph(b, determinismSources["fig1"])
	as, err := align.AxisStride(g)
	if err != nil {
		b.Fatal(err)
	}
	repl := align.NoReplication(g)
	solveOnce := func(mode lp.PresolveMode) (*align.OffsetResult, time.Duration) {
		t0 := time.Now()
		r, err := align.Offsets(g, as, repl, align.OffsetOptions{
			Strategy: align.StrategyFixed, M: 3, Presolve: mode, Parallelism: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r, time.Since(t0)
	}
	// With the floor declining the reduction, on and off do identical
	// work, so the ratio measures pure timing noise. Interleave the
	// tries (on, off, on, off, ...) and keep each mode's minimum, so
	// clock-frequency or GC drift during the measurement hits both modes
	// instead of skewing the ratio; retry the whole measurement a few
	// times before failing, because a genuine floor regression (the ~9%
	// the reduction cost below the floor) is systematic and fails every
	// round, while scheduler jitter on a loaded 1-CPU host is not.
	var onRes, offRes *align.OffsetResult
	var speedup float64
	var onT, offT time.Duration
	for attempt := 0; attempt < 4; attempt++ {
		const tries = 8
		onT, offT = time.Duration(1<<62-1), time.Duration(1<<62-1)
		for i := 0; i < tries; i++ {
			r, d := solveOnce(lp.PresolveAuto)
			onRes = r
			if d < onT {
				onT = d
			}
			r, d = solveOnce(lp.PresolveOff)
			offRes = r
			if d < offT {
				offT = d
			}
		}
		speedup = float64(offT) / float64(onT)
		if speedup >= 0.98 {
			break
		}
	}
	if onRes.Exact != offRes.Exact {
		b.Fatalf("presolve floor changes the optimum: on=%d off=%d", onRes.Exact, offRes.Exact)
	}
	if onRes.Stats.PresolveFixed != 0 || onRes.Stats.PresolveContracted != 0 || onRes.Stats.Blocks != 0 {
		b.Errorf("fig1 RLPs ran the presolver under the size floor: %d fixed, %d contracted, %d blocks",
			onRes.Stats.PresolveFixed, onRes.Stats.PresolveContracted, onRes.Stats.Blocks)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.Offsets(g, as, repl, align.OffsetOptions{
			Strategy: align.StrategyFixed, M: 3, Parallelism: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(speedup, "on-vs-off-speedup")
	if speedup < 0.98 {
		b.Errorf("fig1 offsets with presolve on is %.3fx of presolve off, want >= 0.98x (on %v, off %v)",
			speedup, onT, offT)
	}
}

// TestOffsetSolverPresolveFig1Allocs bounds fig1's cold offsets phase
// under the presolve size floor (measured ~1 000 allocs/op) at 12000.
func TestOffsetSolverPresolveFig1Allocs(t *testing.T) {
	g := buildGraph(t, determinismSources["fig1"])
	as, err := align.AxisStride(g)
	if err != nil {
		t.Fatal(err)
	}
	repl := align.NoReplication(g)
	checkAllocs(t, 8, 12000, func() error {
		_, err := align.Offsets(g, as, repl, align.OffsetOptions{
			Strategy: align.StrategyFixed, M: 3, Parallelism: 1,
		})
		return err
	})
}

// keptRounds sets up the §6 iteration the pipeline runs on src: the
// round-0 replication labeling, and the round-1 labeling derived from
// the offsets a presolved round 0 finds.
func keptRounds(tb testing.TB, src string) (*adg.Graph, *align.AxisStrideResult, [2]*align.ReplResult) {
	tb.Helper()
	g := buildGraph(tb, src)
	as, err := align.AxisStride(g)
	if err != nil {
		tb.Fatal(err)
	}
	repl0, err := align.Replicate(g, as, nil)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := align.NewOffsetSolver(g, as, keptOptions(lp.PresolveAuto)).Solve(repl0)
	if err != nil {
		tb.Fatal(err)
	}
	mobile := func(p *adg.Port, ax int) bool { return !res.Offsets[p.ID][ax].IsConst() }
	repl1, err := align.Replicate(g, as, mobile)
	if err != nil {
		tb.Fatal(err)
	}
	return g, as, [2]*align.ReplResult{repl0, repl1}
}

func keptOptions(mode lp.PresolveMode) align.OffsetOptions {
	return align.OffsetOptions{Strategy: align.StrategyFixed, M: 3, Presolve: mode, Parallelism: 1}
}

// TestKeptRLPsPresolve: presolveFloor governs one-shot solves only. The
// RLPs a NewOffsetSolver keeps across §6 rounds skip the simplex's
// equality presolve, so they go through Reduce at every size: fig1 and
// spreadloop, both below the floor, must split into blocks, contract
// chains, and pivot less over a cold solve plus one §6 round than the
// same solver with presolve off (measured 216 vs 359 and 177 vs 339),
// for the same answer.
func TestKeptRLPsPresolve(t *testing.T) {
	for _, name := range []string{"fig1", "spreadloop"} {
		t.Run(name, func(t *testing.T) {
			g, as, repls := keptRounds(t, determinismSources[name])
			run := func(mode lp.PresolveMode) (lp.Stats, *align.OffsetResult) {
				solver := align.NewOffsetSolver(g, as, keptOptions(mode))
				var st lp.Stats
				var res *align.OffsetResult
				for _, repl := range repls {
					r, err := solver.Solve(repl)
					if err != nil {
						t.Fatal(err)
					}
					st.Add(r.Stats)
					res = r
				}
				return st, res
			}
			on, onRes := run(lp.PresolveAuto)
			off, offRes := run(lp.PresolveOff)
			t.Logf("pivots %d presolved, %d not; %d blocks, %d contracted",
				on.Pivots, off.Pivots, on.Blocks, on.PresolveContracted)
			if on.Blocks == 0 || on.PresolveContracted == 0 {
				t.Errorf("kept RLPs skipped Reduce: %d blocks, %d contracted", on.Blocks, on.PresolveContracted)
			}
			if on.Pivots >= off.Pivots {
				t.Errorf("presolved pivots %d not below %d with presolve off", on.Pivots, off.Pivots)
			}
			if onRes.Exact != offRes.Exact {
				t.Errorf("presolve changes the exact cost: on %d, off %d", onRes.Exact, offRes.Exact)
			}
		})
	}
}

// TestKeptOffsetsAllocs bounds the offsets phase the pipeline runs
// under replication: a NewOffsetSolver, its cold solve and one §6
// round, on fig1, spreadloop and rank4Src. Measured ~1 040, ~1 170 and
// ~5 170 allocs/op; with the map-built RLPs and no Reduce below
// presolveFloor fig1 and spreadloop were ~1 660 and ~1 840, and
// rank4Src was ~6 280 while each of its four identical axes built its
// own route instead of sharing the first axis's solve. Each kept
// simplex block holds its own tableau arena, so this path allocates
// more per RLP than the one-shot path TestColdOffsetsAllocs gates.
func TestKeptOffsetsAllocs(t *testing.T) {
	for _, w := range []struct {
		name, src string
		gate      float64
	}{
		{"fig1", determinismSources["fig1"], 1500},
		{"spreadloop", determinismSources["spreadloop"], 1700},
		{"rank4Src", rank4Src, 7500},
	} {
		t.Run(w.name, func(t *testing.T) {
			g, as, repls := keptRounds(t, w.src)
			checkAllocs(t, 8, w.gate, func() error {
				solver := align.NewOffsetSolver(g, as, keptOptions(lp.PresolveAuto))
				for _, repl := range repls {
					if _, err := solver.Solve(repl); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// BenchmarkAlignCached — the content-addressed pipeline cache: aligning
// an unchanged program again is O(hash + reassembly). ns/op times the
// cache-hit path; the cold path re-solves into a fresh cache each
// iteration. The hit must be ≥ 10× faster than the cold solve, and the
// driver-level report must record it.
func BenchmarkAlignCached(b *testing.B) {
	g := buildGraph(b, axisHeavySrc)
	popts := align.Options{
		Offset:      align.OffsetOptions{Strategy: align.StrategyFixed, M: 3},
		Replication: true,
	}
	cold := minTime(b, 3, 4, func() error {
		o := popts
		o.Cache = align.NewCache(0)
		_, err := align.Align(g, o)
		return err
	})
	popts.Cache = align.NewCache(0)
	if _, err := align.Align(g, popts); err != nil {
		b.Fatal(err) // pay the one cold solve outside the loop
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := align.Align(g, popts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("re-alignment of unchanged program missed the cache")
		}
	}
	b.StopTimer()
	warm := minTime(b, 3, 4, func() error {
		_, err := align.Align(g, popts)
		return err
	})
	speedup := float64(cold) / float64(warm)
	b.ReportMetric(speedup, "cached-speedup")
	hits, misses := popts.Cache.Counters()
	b.ReportMetric(float64(hits), "cache-hits")
	b.ReportMetric(float64(misses), "cache-misses")
	if speedup < 10 {
		b.Errorf("cached re-alignment speedup %.1fx < 10x (cold %v, cached %v)", speedup, cold, warm)
	}

	// The driver-level report records the hit — served by the source
	// memo tier, which answers warm repeats before the pipeline cache.
	ropts := DefaultOptions()
	ropts.Cache = NewCache(0)
	if _, err := AlignSource(axisHeavySrc, ropts); err != nil {
		b.Fatal(err)
	}
	res, err := AlignSource(axisHeavySrc, ropts)
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(res.Report(), "source memo: hit") {
		b.Errorf("cached result's Report() does not record the memo hit:\n%s", res.Report())
	}
	// With the memo bypassed the warm repeat must still land the
	// pipeline-cache hit it always did.
	res, err = frontendSolve(context.Background(), nil, axisHeavySrc, ropts.alignOptions(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(res.Report(), "pipeline cache: hit") {
		b.Errorf("memo-bypassed cached result's Report() does not record the cache hit:\n%s", res.Report())
	}
}

// BenchmarkFrontend — the cold front end alone (lex → parse → sema →
// ADG build) on the rank-4 workload: the work a source-memo miss pays
// before solving, and the path the pooled lexer/parser arenas and the
// ADG node/port/edge arena optimize. allocs/op is gated by
// TestFrontendAllocs.
func BenchmarkFrontend(b *testing.B) {
	b.ReportAllocs()
	var toks []lang.Token
	for i := 0; i < b.N; i++ {
		var err error
		toks, err = lang.LexInto(axisHeavySrc, toks[:0])
		if err != nil {
			b.Fatal(err)
		}
		prog, err := lang.ParseTokens(toks)
		if err != nil {
			b.Fatal(err)
		}
		info, err := lang.Analyze(prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := build.Build(info); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrontendAllocs bounds the cold front end on the rank-4 workload
// (measured ~250 allocs/op) at 400.
func TestFrontendAllocs(t *testing.T) {
	var toks []lang.Token
	checkAllocs(t, 20, 400, func() error {
		var err error
		if toks, err = lang.LexInto(axisHeavySrc, toks[:0]); err != nil {
			return err
		}
		prog, err := lang.ParseTokens(toks)
		if err != nil {
			return err
		}
		info, err := lang.Analyze(prog)
		if err != nil {
			return err
		}
		_, err = build.Build(info)
		return err
	})
}

// BenchmarkHitPath — the source-keyed memo tier: re-aligning an
// unchanged source is one token-stream hash, a shard probe, and a
// shallow copy, skipping lex/parse/sema/build/canonical-hash entirely.
// ns/op times the memo hit; the gated ratio compares it against the
// parse-and-hash hit path (memo bypassed: full front end + pipeline
// cache hit), which must be ≥ 5× slower.
func BenchmarkHitPath(b *testing.B) {
	opts := DefaultOptions()
	opts.Cache = NewCache(0)
	if _, err := AlignSource(axisHeavySrc, opts); err != nil {
		b.Fatal(err) // one cold solve populates both tiers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := AlignSource(axisHeavySrc, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.MemoHit {
			b.Fatal("warm repeat was not a source-memo hit")
		}
	}
	b.StopTimer()

	hit := minTime(b, 5, 32, func() error {
		_, err := AlignSource(axisHeavySrc, opts)
		return err
	})
	bypass := opts.alignOptions()
	parseHash := minTime(b, 5, 32, func() error {
		_, err := frontendSolve(context.Background(), nil, axisHeavySrc, bypass, 0, 0)
		return err
	})
	speedup := float64(parseHash) / float64(hit)
	b.ReportMetric(speedup, "hit-speedup")
	b.ReportMetric(float64(hit.Nanoseconds())/32, "hit-ns")
	if speedup < 5 {
		b.Errorf("source-memo hit speedup %.1fx < 5x over parse-and-hash (hit %v, parse-and-hash %v for 32 reps)",
			speedup, hit, parseHash)
	}
}

// batchWorkload generates n distinct programs drawn from four template
// families (mobile stencil, Figure 1, transpose chain, spread loop) with
// sizes varied per index, so every program hashes to its own cache key.
func batchWorkload(n int) []string {
	srcs := make([]string, n)
	for i := range srcs {
		switch i % 4 {
		case 0:
			srcs[i] = fmt.Sprintf(`
real U(%d), F(%d)
do k = 1, %d
  U(k:k+29) = U(k:k+29) + F(k:k+29)
enddo
`, 80+i, 80+i, 8+i%8)
		case 1:
			m := 40 + i
			srcs[i] = fmt.Sprintf(`
real A(%d,%d), V(%d)
do k = 1, %d
  A(k,1:%d) = A(k,1:%d) + V(k:k+%d)
enddo
`, m, m, 2*m, m, m, m, m-1)
		case 2:
			srcs[i] = fmt.Sprintf(`
real B(%d,%d), C(%d,%d)
B = B + transpose(C)
B = B * 2
C = transpose(B)
`, 64+i, 32+i, 32+i, 64+i)
		default:
			srcs[i] = fmt.Sprintf(`
real T(%d), B(%d,%d)
do k = 1, 8
  T = cos(T)
  B = B + spread(T, 2, %d)
enddo
`, 50+i, 50+i, 100+i, 100+i)
		}
	}
	return srcs
}

// BenchmarkBatchThroughput — the batch alignment engine (E13).
//
// mixed: 32 distinct programs under AlignBatch; programs/sec at one
// worker versus GOMAXPROCS workers. With GOMAXPROCS ≥ 8 the scaling
// must reach ≥ 3× (gated); on narrower boxes the ratio is reported
// only — one core cannot overlap solves (cf. BenchmarkOffsetsParallel).
//
// duplicates: 64 programs with only 4 distinct sources; the sharded
// cache's singleflight must collapse them to exactly 4 pipeline
// executions at every worker count, asserted unconditionally.
func BenchmarkBatchThroughput(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	b.Run("mixed", func(b *testing.B) {
		srcs := batchWorkload(32)
		opts := DefaultOptions()
		run := func(workers int) error {
			for _, br := range AlignBatch(srcs, opts, BatchOptions{Workers: workers}) {
				if br.Err != nil {
					return br.Err
				}
			}
			return nil
		}
		seq := minTime(b, 2, 1, func() error { return run(1) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(procs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		par := minTime(b, 2, 1, func() error { return run(procs) })
		speedup := float64(seq) / float64(par)
		b.ReportMetric(float64(len(srcs))/par.Seconds(), "programs/sec")
		b.ReportMetric(float64(len(srcs))/seq.Seconds(), "programs/sec-1w")
		b.ReportMetric(speedup, "speedup")
		b.ReportMetric(float64(procs), "gomaxprocs")
		if procs >= 8 && speedup < 3 {
			b.Errorf("batch throughput scaled %.2fx from 1 to %d workers, want >= 3x", speedup, procs)
		}
	})
	b.Run("duplicates", func(b *testing.B) {
		unique := batchWorkload(4)
		srcs := make([]string, 64)
		for i := range srcs {
			srcs[i] = unique[i%len(unique)]
		}
		opts := DefaultOptions()
		var computes, shared int64
		for i := 0; i < b.N; i++ {
			cache := NewCache(len(srcs))
			o := opts
			o.Cache = cache
			for _, br := range AlignBatch(srcs, o, BatchOptions{Workers: 8}) {
				if br.Err != nil {
					b.Fatal(br.Err)
				}
			}
			computes, shared = cache.FlightStats()
			if computes != int64(len(unique)) {
				b.Fatalf("duplicate-heavy batch ran %d pipeline executions, want exactly %d (one per unique program)",
					computes, len(unique))
			}
		}
		b.ReportMetric(float64(computes), "unique-solves")
		b.ReportMetric(float64(shared), "flight-shared")
	})
}

// TestBatchThroughputAllocs bounds one AlignBatch pass over the 32
// distinct mixed programs at GOMAXPROCS workers (measured ~235k
// allocs/op) at 700k.
func TestBatchThroughputAllocs(t *testing.T) {
	srcs := batchWorkload(32)
	opts := DefaultOptions()
	checkAllocs(t, 1, 700000, func() error {
		for _, br := range AlignBatch(srcs, opts, BatchOptions{Workers: runtime.GOMAXPROCS(0)}) {
			if br.Err != nil {
				return br.Err
			}
		}
		return nil
	})
}

// incrementalEditSrc composes n independent loop components into one
// program; component `edited` gets shift 2+v%4000 in place of the base
// shift 1, so every (edited, v) revision is a distinct one-line edit
// whose other n-1 components hash to the same region keys as the base.
// The 5000-element arrays keep ~4000 distinct shifts in bounds, so
// revision keys do not recur within any plausible benchmark run.
func incrementalEditSrc(n, edited int, v int64) string {
	decls := make([]string, n)
	var body strings.Builder
	for i := 0; i < n; i++ {
		e := int64(1)
		if i == edited {
			e = 2 + v%4000
		}
		decls[i] = fmt.Sprintf("P%d(5000), Q%d(5000)", i, i)
		fmt.Fprintf(&body, "do k = 1, 40\n  P%d(k:k+19) = P%d(k:k+19) + Q%d(k+%d:k+%d)\nenddo\n",
			i, i, i, e, e+19)
	}
	return "real " + strings.Join(decls, ", ") + "\n" + body.String()
}

// BenchmarkIncrementalEdit — the compositional layer (E16): with a
// Cache, a one-line edit to a 16-component program re-solves only the
// edited region and serves the other 15 from the per-region content
// cache. ns/op times the 1-edit re-solve against a
// warm cache; the gate requires it ≥ 4× faster than a full cold
// re-solve of the same revision (both paths pay parse+analyze+build, so
// the ratio understates the solver-only saving; the RLP presolver cut
// the cold offsets phase ~2.5×, which narrowed this ratio from the
// 7–9× it gated at 5× against). Every revision is a
// never-before-seen variant: its edited region always misses, which is
// exactly the edit-stream shape (see cmd/alignc -editstream). The cold
// and edit sides are timed interleaved (minTimePair).
func BenchmarkIncrementalEdit(b *testing.B) {
	const comps = 16
	opts := DefaultOptions()

	rev := int64(0)
	next := func() string {
		rev++
		return incrementalEditSrc(comps, int(rev)%comps, rev)
	}

	// Warm: prime the shared cache with the base program, then solve a
	// fresh one-line revision per call. The first post-prime edit is
	// deterministic (the cache holds exactly the base entries): it must
	// hit all comps-1 untouched regions and miss the edited one.
	opts.Cache = NewCache(1024)
	if _, err := AlignSource(incrementalEditSrc(comps, -1, 0), opts); err != nil {
		b.Fatal(err)
	}
	first, err := AlignSource(next(), opts)
	if err != nil {
		b.Fatal(err)
	}
	if first.Align.CacheHit || first.Align.RegionHits != comps-1 {
		b.Fatalf("first edit after priming: CacheHit=%v RegionHits=%d, want false and %d",
			first.Align.CacheHit, first.Align.RegionHits, comps-1)
	}
	var hits, edits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := AlignSource(next(), opts)
		if err != nil {
			b.Fatal(err)
		}
		hits += int64(res.Align.RegionHits)
		edits++
	}
	b.StopTimer()
	// Cold (each revision solved from scratch into a fresh cache) and
	// warm edits, timed interleaved.
	cold, warm := minTimePair(b, 3, 2, func() error {
		o := opts
		o.Cache = NewCache(0)
		res, err := AlignSource(next(), o)
		if err == nil && res.Align.Regions != comps {
			err = fmt.Errorf("cold solve split into %d regions, want %d", res.Align.Regions, comps)
		}
		return err
	}, func() error {
		res, err := AlignSource(next(), opts)
		if err == nil {
			hits += int64(res.Align.RegionHits)
			edits++
		}
		return err
	})

	speedup := float64(cold) / float64(warm)
	b.ReportMetric(speedup, "edit-speedup")
	b.ReportMetric(float64(hits)/float64(edits*comps), "region-hit-rate")
	b.ReportMetric(cold.Seconds()*1e3/2, "cold-ms")
	b.ReportMetric(warm.Seconds()*1e3/2, "edit-ms")
	if speedup < 4 {
		b.Errorf("1-edit re-solve speedup %.2fx < 4x over full cold solve (cold %v, edit %v)",
			speedup, cold, warm)
	}
}
