package repro

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/build"
	"repro/internal/lang"
	"repro/internal/lp"
)

// The per-template-axis offset problems solve on a worker pool and merge
// in axis order, so the pipeline must produce byte-identical alignments
// for every Parallelism setting. determinismSources maps each program of
// testdata/corpus, by file name, to its source: the example programs, a
// rank-4 workload that actually exercises the multi-axis fan-out, and
// two programs that reach the network flow path:
//   - shift2d, a LIV-free 2D shift program: every per-axis offset RLP is
//     network-shaped, so the flow path answers all of them without
//     running any simplex;
//   - mixed, a loop whose ports carry LIV coefficients (the T/U group:
//     its θ rows couple (c0, ck) pairs, which no network model can
//     express) beside a straight-line shift group (A/B/C) sharing no
//     arrays with it. Whole-problem NetworkForm fails on the mobile
//     rows, so the monolithic engine makes zero net solves; the
//     presolver splits each axis into two blocks and answers the
//     straight-line block on the flow path (pinned by
//     TestPresolveDeterminism).
//
// The internal packages' tests read the same files.
var determinismSources = readCorpus()

func readCorpus() map[string]string {
	files, err := filepath.Glob("testdata/corpus/*.dp")
	if err != nil || len(files) == 0 {
		panic(fmt.Sprintf("testdata/corpus: %d files, %v", len(files), err))
	}
	srcs := map[string]string{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			panic(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(f), ".dp")] = string(data)
	}
	return srcs
}

// TestParallelismDeterminism checks that sequential (Parallelism=1) and
// parallel (Parallelism=8) pipelines produce byte-identical alignment
// assignments and equal exact costs, with and without replication
// labeling (the latter exercises the warm-started §6 re-solves).
func TestParallelismDeterminism(t *testing.T) {
	for name, src := range determinismSources {
		for _, repl := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/repl=%v", name, repl), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Replication = repl
				opts.Parallelism = 1
				seq, err := AlignSource(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Parallelism = 8
				par, err := AlignSource(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				if s, p := seq.Align.Offset.Exact, par.Align.Offset.Exact; s != p {
					t.Errorf("exact offset cost differs: sequential %d, parallel %d", s, p)
				}
				if s, p := seq.Assignment().String(), par.Assignment().String(); s != p {
					t.Errorf("assignments differ between Parallelism=1 and 8:\n--- sequential\n%s\n--- parallel\n%s", s, p)
				}
				if s, p := seq.Cost.Total(), par.Cost.Total(); s != p {
					t.Errorf("total cost differs: sequential %d, parallel %d", s, p)
				}
				if s, p := normalizeReport(seq.Report()), normalizeReport(par.Report()); s != p {
					t.Errorf("reports differ between Parallelism=1 and 8 (wall-time lines excluded):\n--- sequential\n%s\n--- parallel\n%s", s, p)
				}
			})
		}
	}
}

// normalizeReport strips the wall-time content from a Report: the
// "phase times:" and "front-end times:" lines and the phase1/phase2
// durations of the LP effort line. Everything else — alignments, costs,
// DP and LP effort counters — must be byte-identical across parallelism
// levels.
func normalizeReport(s string) string {
	lines := strings.Split(s, "\n")
	out := lines[:0]
	for _, line := range lines {
		if strings.HasPrefix(line, "phase times:") ||
			strings.HasPrefix(line, "front-end times:") {
			continue
		}
		if strings.HasPrefix(line, "LP effort:") {
			if i := strings.Index(line, ", phase1 "); i >= 0 {
				line = line[:i]
			}
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// normalizeBatchReport additionally strips the "pipeline cache: hit"
// and "source memo: hit" lines: in a batch with duplicate inputs, which
// copy is the singleflight leader (no hit line) and which are followers
// (hit) is a scheduling accident — everything else must still be
// byte-identical.
func normalizeBatchReport(s string) string {
	lines := strings.Split(normalizeReport(s), "\n")
	out := lines[:0]
	for _, line := range lines {
		if strings.HasPrefix(line, "pipeline cache:") ||
			strings.HasPrefix(line, "source memo:") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestBatchDeterminism pins the batch engine's output stability: the
// alignments, exact costs, and normalized Report text of AlignBatch are
// byte-identical across worker counts 1, 2, and 8 and across input
// permutations, and a duplicate-heavy batch returns the same per-program
// output while executing the pipeline exactly once per distinct region.
func TestBatchDeterminism(t *testing.T) {
	names := make([]string, 0, len(determinismSources))
	for name := range determinismSources {
		names = append(names, name)
	}
	sort.Strings(names)
	srcs := make([]string, len(names))
	for i, name := range names {
		srcs[i] = determinismSources[name]
	}
	opts := DefaultOptions()

	normalized := func(t *testing.T, results []BatchResult) []string {
		t.Helper()
		out := make([]string, len(results))
		for i, br := range results {
			if br.Err != nil {
				t.Fatalf("slot %d failed: %v", i, br.Err)
			}
			out[i] = normalizeBatchReport(br.Result.Report())
		}
		return out
	}

	base := normalized(t, AlignBatch(srcs, opts, BatchOptions{Workers: 1}))

	for _, workers := range []int{2, 8} {
		got := normalized(t, AlignBatch(srcs, opts, BatchOptions{Workers: workers}))
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("workers=%d: %s report differs from workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s",
					workers, names[i], base[i], workers, got[i])
			}
		}
	}

	// Shuffled input order: slot i must still hold the result of input i.
	perm := rand.New(rand.NewSource(7)).Perm(len(srcs))
	shuffled := make([]string, len(srcs))
	for i, j := range perm {
		shuffled[i] = srcs[j]
	}
	got := normalized(t, AlignBatch(shuffled, opts, BatchOptions{Workers: 8}))
	for i, j := range perm {
		if got[i] != base[j] {
			t.Errorf("shuffled batch: %s report differs from in-order run", names[j])
		}
	}

	t.Run("duplicates", func(t *testing.T) {
		const copies = 4
		dup := make([]string, 0, copies*len(srcs))
		for r := 0; r < copies; r++ {
			dup = append(dup, srcs...)
		}
		o := opts
		o.Cache = NewCache(len(dup))
		results := AlignBatch(dup, o, BatchOptions{Workers: 8})
		got := normalized(t, results)
		for i, rep := range got {
			if rep != base[i%len(srcs)] {
				t.Errorf("duplicate copy of %s differs from its unique run", names[i%len(srcs)])
			}
		}
		// The cache holds one entry per region, and no two corpus
		// programs share a component, so the pipeline runs once per
		// region of the distinct programs (mixed splits into two).
		regions := 0
		for _, br := range results[:len(srcs)] {
			regions += br.Result.Align.Regions
		}
		if regions != len(srcs)+1 {
			t.Errorf("corpus programs have %d regions, want %d (every program connected but mixed)", regions, len(srcs)+1)
		}
		computes, _ := o.Cache.FlightStats()
		if computes != int64(regions) {
			t.Errorf("duplicate batch executed the pipeline %d times, want exactly %d (one per distinct region)",
				computes, regions)
		}
	})
}

// normalizeEffortReport additionally strips the solver effort lines
// ("LP effort:" and "LP presolve:") and the "pipeline cache:" line:
// presolve on and off legitimately spend different pivot and solve
// counts on the way to the same alignment, so a cross-toggle comparison
// keeps only the semantic output — alignments, costs, replication
// labels.
func normalizeEffortReport(s string) string {
	lines := strings.Split(normalizeReport(s), "\n")
	out := lines[:0]
	for _, line := range lines {
		if strings.HasPrefix(line, "LP effort:") ||
			strings.HasPrefix(line, "LP presolve:") ||
			strings.HasPrefix(line, "pipeline cache:") ||
			strings.HasPrefix(line, "source memo:") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestPresolveDeterminism pins the presolver's output contract along
// two axes. Within one setting of the toggle, everything — including
// the effort and presolve counters — is byte-identical across
// Parallelism 1/2/8, with and without a cache: presolve statistics are
// deterministic, never scheduling accidents. Across the toggle, the
// single-LP-round pipeline (no replication) produces byte-identical
// effort-normalized reports, and the replicating pipeline produces
// identical exact and total costs: the §6 warm re-solves may land on
// different (equally optimal) degenerate vertices monolithically than
// block-wise, which is exactly why the toggle is part of the pipeline
// cache key (TestCacheKeyPresolveToggle). The mixed program also pins
// the partial-network case on its whole-graph offsets phase: the
// monolithic engine makes no net solves, while presolve routes the
// straight-line blocks to the flow path at the same exact cost.
func TestPresolveDeterminism(t *testing.T) {
	t.Run("mixed-net-solves", func(t *testing.T) {
		g := build.MustBuild(lang.MustAnalyze(lang.MustParse(determinismSources["mixed"])))
		as, err := align.AxisStride(g)
		if err != nil {
			t.Fatal(err)
		}
		repl := align.NoReplication(g)
		solve := func(mode lp.PresolveMode) *align.OffsetResult {
			res, err := align.Offsets(g, as, repl, align.OffsetOptions{
				Strategy: align.StrategyFixed, M: 3, Presolve: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		off, on := solve(lp.PresolveOff), solve(lp.PresolveAuto)
		if off.Exact != on.Exact {
			t.Errorf("exact cost differs across the presolve toggle: off=%d on=%d", off.Exact, on.Exact)
		}
		if off.Stats.NetSolves != 0 || on.Stats.NetSolves == 0 {
			t.Errorf("net solves off=%d on=%d, want 0 → >0", off.Stats.NetSolves, on.Stats.NetSolves)
		}
	})

	for name, src := range determinismSources {
		t.Run(name, func(t *testing.T) {
			for _, repl := range []bool{false, true} {
				var want string // cross-toggle baseline (repl=false only)
				var wantExact, wantTotal int64
				first := true
				for _, noPresolve := range []bool{false, true} {
					var wantFull string // within-toggle baseline
					for _, cached := range []bool{false, true} {
						for _, par := range []int{1, 2, 8} {
							opts := DefaultOptions()
							opts.Replication = repl
							opts.Parallelism = par
							if cached {
								opts.Cache = NewCache(8)
							}
							aopts := opts.alignOptions()
							if noPresolve {
								aopts.Offset.Presolve = lp.PresolveOff
							}
							res, err := alignSourceLeased(context.Background(), nil, src, aopts, 0)
							if err != nil {
								t.Fatal(err)
							}
							full := normalizeBatchReport(res.Report())
							if wantFull == "" {
								wantFull = full
							} else if full != wantFull {
								t.Errorf("repl=%v presolve=%v: cached=%v par=%d report differs within the toggle:\n--- baseline\n%s\n--- got\n%s",
									repl, !noPresolve, cached, par, wantFull, full)
							}
							norm := normalizeEffortReport(res.Report())
							exact, total := int64(res.Align.Offset.Exact), res.Cost.Total()
							if first {
								want, wantExact, wantTotal, first = norm, exact, total, false
								continue
							}
							if exact != wantExact || total != wantTotal {
								t.Errorf("repl=%v presolve=%v cached=%v par=%d: costs exact=%d total=%d differ from baseline exact=%d total=%d",
									repl, !noPresolve, cached, par, exact, total, wantExact, wantTotal)
							}
							if !repl && norm != want {
								t.Errorf("repl=false presolve=%v cached=%v par=%d: normalized report differs across the toggle:\n--- baseline\n%s\n--- got\n%s",
									!noPresolve, cached, par, want, norm)
							}
						}
					}
				}
			}
		})
	}
}

// TestAxisStrideDeterminism pins the §3 phase in isolation: the
// multi-start DP must choose identical labelings, costs, and effort
// counters at every Parallelism setting (the worker pool only reorders
// wall-clock execution of the starts, never the seed-order reduction).
func TestAxisStrideDeterminism(t *testing.T) {
	for name, src := range determinismSources {
		t.Run(name, func(t *testing.T) {
			info, err := lang.Analyze(lang.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			g, err := build.Build(info)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := align.AxisStrideOpts(g, align.AxisStrideOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 8} {
				got, err := align.AxisStrideOpts(g, align.AxisStrideOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != seq.Cost {
					t.Errorf("par=%d: cost %d != sequential cost %d", par, got.Cost, seq.Cost)
				}
				if got.Stats != seq.Stats {
					t.Errorf("par=%d: DP stats %+v != sequential %+v", par, got.Stats, seq.Stats)
				}
				if len(got.Labels) != len(seq.Labels) {
					t.Fatalf("par=%d: %d labels != %d", par, len(got.Labels), len(seq.Labels))
				}
				for id, l := range seq.Labels {
					if !got.Labels[id].Equal(l) {
						t.Errorf("par=%d: port %d label %s != sequential %s", par, id, got.Labels[id], l)
					}
				}
			}
		})
	}
}
