package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/build"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/lp"
)

// Integration tests of the public API: source text in, alignments and
// costs out.

func TestAlignSourceFig1(t *testing.T) {
	res, err := AlignSource(`
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Total() != 0 {
		t.Errorf("Figure 1 cost = %d, want 0", res.Cost.Total())
	}
	rep := res.Report()
	for _, frag := range []string{"ADG:", "exact cost:", "alignments:"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}

func TestAlignSourceParseError(t *testing.T) {
	if _, err := AlignSource("real A(\n", DefaultOptions()); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := AlignSource("real A(10)\nA = B\n", DefaultOptions()); err == nil {
		t.Error("undeclared array accepted")
	}
}

func TestAllStrategiesViaOptions(t *testing.T) {
	src := `
real A(20), B(40)
do k = 1, 8
  A(5:14) = A(5:14) + B(k:k+9)
enddo
`
	for _, s := range []align.Strategy{align.StrategyFixed, align.StrategySingle,
		align.StrategyZeroTrack, align.StrategyRecursive, align.StrategyUnroll} {
		res, err := AlignSource(src, Options{Strategy: s, Subranges: 3})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Cost.Total() < 0 {
			t.Errorf("%v: negative cost", s)
		}
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	src := `
real T(100), B(100,200)
do k = 1, 200
  T = cos(T)
  B = B + spread(T, 2, 200)
enddo
`
	with, err := AlignSource(src, Options{Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := AlignSource(src, Options{Replication: false})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4's shape: with labeling, one broadcast at loop entry (100
	// elements); without, a broadcast every iteration (100 × 200).
	if with.Cost.Broadcast >= without.Cost.Broadcast {
		t.Errorf("broadcast with labeling (%d) not less than without (%d)",
			with.Cost.Broadcast, without.Cost.Broadcast)
	}
	if without.Cost.BroadcastEvents < 200 {
		t.Errorf("without labeling, broadcast events = %d, want >= 200 (per iteration)",
			without.Cost.BroadcastEvents)
	}
	if with.Cost.BroadcastEvents > 2 {
		t.Errorf("with labeling, broadcast events = %d, want <= 2 (loop entry)",
			with.Cost.BroadcastEvents)
	}
}

func TestCostReport(t *testing.T) {
	res, err := AlignSource("real A(10), B(10)\nA = A + B\n", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_ = res.CostReport(5) // must not panic on a zero-cost program
}

// TestLPEffortAccumulatesAcrossRounds pins the effort accounting of the
// §6 replication iteration: the result must describe the WHOLE
// iteration — the expensive cold round-0 solves AND the warm re-solves
// — not just the final round. (A regression here once reported
// "0 cold solves" in every benchmark snapshot, because each warm round
// overwrote the accumulated stats.)
func TestLPEffortAccumulatesAcrossRounds(t *testing.T) {
	// Pin the monolithic warm path: with presolve on, a warm round whose
	// block costs are unchanged reuses the cached block solutions and
	// legitimately records zero warm solves.
	opts := DefaultOptions().alignOptions()
	opts.Offset.Presolve = lp.PresolveOff
	res, err := alignSourceLeased(context.Background(), nil, `
real A(100,100), V(200)
do k = 1, 100
  A(k,1:100) = A(k,1:100) + V(k:k+99)
enddo
`, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Align.Offset.Stats
	if st.Solves == 0 {
		t.Errorf("cold solves vanished from the accumulated stats: %+v", st)
	}
	if st.WarmSolves == 0 {
		t.Errorf("warm solves missing from the accumulated stats: %+v", st)
	}
	if st.Pivots == 0 {
		t.Errorf("no pivots recorded: %+v", st)
	}
	rep := res.Report()
	if !strings.Contains(rep, "LP effort:") {
		t.Fatalf("report missing LP effort line:\n%s", rep)
	}
	if strings.Contains(rep, "LP effort: 0 cold") {
		t.Errorf("report shows zero cold solves:\n%s", rep)
	}
}

// TestOffsetEngineDeterminism pins the determinism contract of the
// two-tier offset LP engine (see internal/align/cache.go):
//
//   - within one engine mode, Report() is byte-identical (timing lines
//     aside) at parallelism 1, 2, and 8, and the LP-effort counters
//     don't depend on parallelism either;
//   - the network fast path is invisible: with the flow path enabled
//     and disabled the report agrees byte for byte (only the effort
//     counters move — net solves become simplex solves);
//   - the forced dense tableau reaches the same approximate objective,
//     LP sizes and solve counts as the production engine. Its alignment may
//     legitimately differ on degenerate RLPs (a different optimal
//     vertex), which is why cacheKey includes the engine toggles.
func TestOffsetEngineDeterminism(t *testing.T) {
	// shift2d is straight-line, so the default mode answers every axis
	// on the network fast path; rank4Deep is the rank4-dp workload whose
	// RLPs auto-select the sparse core.
	workloads := map[string]string{
		"shift2d": `
real A(100,100), B(100,100), C(100,100)
A(1:98,1:98) = B(3:100,2:99) + C(2:99,3:100)
C(1:98,1:98) = A(2:99,2:99) * 2
B(1:98,1:98) = A(1:98,1:98) + C(1:98,1:98)
`,
		"rank4-dp": axisHeavySrc,
	}
	modes := []struct {
		name string
		mod  func(*align.Options)
	}{
		{"auto+net", func(o *align.Options) {}},
		{"auto-nonet", func(o *align.Options) { o.Offset.NoNetPath = true }},
		{"dense", func(o *align.Options) {
			o.Offset.Engine = lp.EngineDense
			o.Offset.NoNetPath = true
		}},
	}
	// stripTimings drops the two wall-clock report lines; everything
	// else (alignments, costs, LP sizes, solve counts by family) must
	// be byte-identical across parallelism, and — with the LP effort
	// line also dropped — across engines.
	stripLines := func(s string, prefixes ...string) string {
		var b strings.Builder
		for _, line := range strings.Split(s, "\n") {
			drop := false
			for _, p := range prefixes {
				if strings.HasPrefix(line, p) {
					drop = true
				}
			}
			if !drop {
				b.WriteString(line)
				b.WriteString("\n")
			}
		}
		return b.String()
	}
	for wname, src := range workloads {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := lang.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		var netOn string  // effort line stripped; net on/off agree exactly
		var lpLine string // "offset LP:" line; all engines agree
		var lpLineMode string
		for _, mode := range modes {
			var withinMode, firstPar string // timings stripped, all par agree
			var effortKey, firstKey string
			for _, par := range []int{1, 2, 8} {
				g, err := build.Build(info)
				if err != nil {
					t.Fatal(err)
				}
				aopts := DefaultOptions().alignOptions()
				aopts.AxisStride.Parallelism = par
				aopts.Offset.Parallelism = par
				mode.mod(&aopts)
				ar, err := align.Align(g, aopts)
				if err != nil {
					t.Fatalf("%s/%s/par=%d: %v", wname, mode.name, par, err)
				}
				res := &Result{Program: prog, Info: info, Graph: g, Align: ar}
				res.Cost = cost.Exact(g, ar.Assignment)
				rep := stripLines(res.Report(), "phase times:")
				st := ar.Offset.Stats
				key := fmt.Sprintf("solves=%d warm=%d net=%d sparse=%d pivots=%d refactors=%d augments=%d",
					st.Solves, st.WarmSolves, st.NetSolves, st.SparseSolves,
					st.Pivots, st.Refactors, st.Augments)
				// The effort line carries phase wall times, so compare
				// the counters via the key and the rest via the report.
				// The presolve line is effort too: which tier solves an
				// RLP decides whether the presolver ever runs.
				stripped := stripLines(rep, "LP effort:", "LP presolve:")
				if withinMode == "" {
					withinMode, effortKey, firstPar = stripped, key, fmt.Sprint(par)
				} else {
					if stripped != withinMode {
						t.Errorf("%s/%s: report differs between par=%s and par=%d:\n--- par=%s\n%s\n--- par=%d\n%s",
							wname, mode.name, firstPar, par, firstPar, withinMode, par, stripped)
					}
					if key != effortKey {
						t.Errorf("%s/%s: LP effort differs between par=%s and par=%d: %s vs %s",
							wname, mode.name, firstPar, par, effortKey, key)
					}
				}
				firstKey = key
				// The default mode must actually exercise the tier this
				// workload is built for.
				if mode.name == "auto+net" && par == 1 {
					if wname == "shift2d" && (st.NetSolves == 0 || st.Solves+st.WarmSolves > 0) {
						t.Errorf("shift2d default mode ran the simplex (%s); want all solves on the flow path", key)
					}
					if wname == "rank4-dp" && st.SparseSolves == 0 {
						t.Errorf("rank4-dp default mode never used the sparse core (%s)", key)
					}
				}
				if mode.name == "dense" && (st.NetSolves != 0 || st.SparseSolves != 0) {
					t.Errorf("%s forced-dense mode used a fast tier (%s)", wname, key)
				}
			}
			_ = firstKey
			switch mode.name {
			case "auto+net":
				netOn = withinMode
			case "auto-nonet":
				if withinMode != netOn {
					t.Errorf("%s: fast path on/off changes the report:\n--- net on\n%s\n--- net off\n%s",
						wname, netOn, withinMode)
				}
			}
			var line string
			for _, l := range strings.Split(withinMode, "\n") {
				if strings.HasPrefix(l, "offset LP:") {
					// The line ends in the exact − approx gap, which
					// follows the alignment and so may differ too.
					line, _, _ = strings.Cut(l, ", exact - approx")
				}
			}
			if line == "" {
				t.Fatalf("%s/%s: report has no offset LP line", wname, mode.name)
			}
			if lpLine == "" {
				lpLine, lpLineMode = line, mode.name
			} else if line != lpLine {
				t.Errorf("%s: LP size/objective line differs between engines %s and %s:\n%s\n%s",
					wname, lpLineMode, mode.name, lpLine, line)
			}
		}
	}
}
