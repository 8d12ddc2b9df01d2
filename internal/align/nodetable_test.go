package align

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/adg"
	"repro/internal/expr"
)

// readCorpus returns the programs of the shared corpus in
// testdata/corpus (the root package's determinismSources), by file
// name.
func readCorpus(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("../../testdata/corpus/*.dp")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %d files, %v", len(files), err)
	}
	srcs := map[string]string{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(data)
	}
	return srcs
}

// loadInts sets ax.ints to the coefficients of the axis's entry of
// offsets; slots no port owns read 0.
func loadInts(ax *axisSolver, offsets map[int][]expr.Affine) {
	lay := ax.lay
	clear(ax.ints)
	for _, p := range ax.g.Ports {
		a := offsets[p.ID][ax.axis]
		ax.ints[lay.slot(p.ID, -1)] = a.ConstPart()
		for _, li := range lay.portLivs[p.ID] {
			ax.ints[lay.slot(p.ID, li)] = a.Coef(lay.livs[li])
		}
	}
}

// TestNodeTableDifferential: the compiled node table and the
// independent expr.Affine oracle (oracleFeasible) agree on every answer
// of the corpus under the five strategies, replication on and off, on
// every axis, and on every unit move of the state-space search away
// from it. rank4's rounded answers break their transformer rows, so
// both verdicts are exercised. Unrolling's RLPs are two orders of
// magnitude larger and take 80% of the run, so the race-detector leg
// leaves them to the plain run and checks the other four strategies.
func TestNodeTableDifferential(t *testing.T) {
	strategies := []Strategy{StrategyFixed, StrategyUnroll, StrategySingle, StrategyZeroTrack, StrategyRecursive}
	if raceEnabled {
		strategies = slices.DeleteFunc(strategies, func(s Strategy) bool { return s == StrategyUnroll })
	}
	var checks, infeasible int
	for name, src := range readCorpus(t) {
		g := mustGraph(t, src)
		for _, s := range strategies {
			for _, repl := range []bool{false, true} {
				oopts := OffsetOptions{Strategy: s, M: 3, Parallelism: 1}
				res, err := Align(g, Options{Offset: oopts, Replication: repl})
				if err != nil {
					t.Fatalf("%s %v repl=%v: %v", name, s, repl, err)
				}
				solver := newOffsetSolver(g, res.AxisStride, oopts, false)
				for _, st := range solver.axes {
					ax := st.ax
					ax.offs = cloneOffsets(res.Offset.Offsets)
					loadInts(ax, ax.offs)
					base := slices.Clone(ax.ints)
					check := func(what string) {
						t.Helper()
						got, want := ax.table.holds(ax.ints), oracleFeasible(ax, ax.offs)
						if got != want {
							t.Errorf("%s %v repl=%v axis %d %s: table says %v, oracle %v",
								name, s, repl, ax.axis, what, got, want)
						}
						checks++
						if !want {
							infeasible++
						}
					}
					check("answer")
					var coeffs []int
					for _, n := range g.Nodes {
						coeffs = ax.lay.nodeCoefs(n, coeffs)
						for _, li := range coeffs {
							for _, d := range [2]int64{1, -1} {
								copy(ax.ints, base)
								ax.move(n, li, d)
								ax.store()
								check("move")
							}
						}
					}
				}
			}
		}
	}
	if infeasible == 0 || infeasible == checks {
		t.Fatalf("%d of %d checks infeasible: one verdict never exercised", infeasible, checks)
	}
	t.Logf("%d checks agree, %d infeasible", checks, infeasible)
}

// TestNodeTableAllocs: checking a labeling against the table and
// making a unit move allocate nothing.
func TestNodeTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := mustGraph(t, fig1)
	as, err := AxisStride(g)
	if err != nil {
		t.Fatal(err)
	}
	ax := newOffsetSolver(g, as, OffsetOptions{}, false).axes[0].ax
	n := g.Nodes[len(g.Nodes)/2]
	if a := testing.AllocsPerRun(100, func() {
		ax.table.holds(ax.ints)
		ax.move(n, -1, 1)
	}); a != 0 {
		t.Errorf("table check and move: %v allocs/op, want 0", a)
	}
}

// TestNodeTableMoves pins the unit move of a transformer's loop
// variable k: the inner side gains the offset k, and the outer side
// (the loop-back's out port, which sees the next iteration) follows it
// evaluated at the loop boundary: lo on entry, the last iterate on
// exit, k + step around the loop-back.
func TestNodeTableMoves(t *testing.T) {
	g := mustGraph(t, fig1)
	as, err := AxisStride(g)
	if err != nil {
		t.Fatal(err)
	}
	ax := newOffsetSolver(g, as, OffsetOptions{}, false).axes[0].ax
	ax.offs = newOffsetResult(g).Offsets
	kinds := 0
	for _, n := range g.Nodes {
		if n.Kind != adg.KindXform {
			continue
		}
		x := n.Xform
		k := expr.Var(x.LIV)
		want := [2]expr.Affine{k, k} // in, out
		switch x.Kind {
		case adg.XformEntry:
			want[0] = x.Lo
		case adg.XformExit:
			want[1] = lastIterate(x)
		case adg.XformLoopBack:
			want[1] = k.Add(x.Step)
		}
		clear(ax.ints)
		ax.move(n, ax.lay.liv(x.LIV), 1)
		ax.store()
		for j, p := range [2]*adg.Port{n.In[0], n.Out[0]} {
			if got := ax.offs[p.ID][0]; !got.Equal(want[j]) {
				t.Errorf("%v %q port %d: moved to %v, want %v", x.Kind, n.Label, p.ID, got, want[j])
			}
		}
		kinds |= 1 << x.Kind
	}
	if kinds != 7 {
		t.Fatalf("fig1 lacks a transformer kind (mask %b)", kinds)
	}
}
