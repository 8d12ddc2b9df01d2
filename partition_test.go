package repro

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cost"
)

// componentSrc emits one self-contained computation over arrays whose
// names carry the suffix i, so any number of components compose into
// one program with pairwise disjoint ADG regions. v varies the
// constants in the body: two components with different v have different
// region content keys (the "edit" knob of the incremental benchmarks).
func componentSrc(i int, v int64, kind int) (decls, body string) {
	switch kind % 4 {
	case 0: // straight-line sections
		lo := 2 + v%10
		return fmt.Sprintf("A%d(100), B%d(100)", i, i),
			fmt.Sprintf("A%d(1:40) = A%d(1:40) + B%d(%d:%d)\n", i, i, i, lo, lo+39)
	case 1: // loop with mobile sections
		e := 1 + v%5
		return fmt.Sprintf("C%d(120), D%d(120)", i, i),
			fmt.Sprintf("do k = 1, 40\n  C%d(k:k+19) = C%d(k:k+19) + D%d(k+%d:k+%d)\nenddo\n", i, i, i, e, e+19)
	case 2: // transpose pair
		return fmt.Sprintf("M%d(12,16), N%d(16,12)", i, i),
			fmt.Sprintf("M%d = M%d + transpose(N%d)\nM%d = M%d * %d\n", i, i, i, i, i, 2+v%7)
	default: // spread broadcast
		return fmt.Sprintf("T%d(40), S%d(40,30)", i, i),
			fmt.Sprintf("T%d = cos(T%d)\nS%d = S%d + spread(T%d, 2, 30)\n", i, i, i, i, i)
	}
}

// multiComponentSrc composes k independent components into one program.
// All declarations go on the single leading "real" statement the
// language requires.
func multiComponentSrc(k int, pick func(i int) (v int64, kind int)) string {
	decls := make([]string, k)
	var body strings.Builder
	for i := 0; i < k; i++ {
		v, kind := pick(i)
		d, b := componentSrc(i, v, kind)
		decls[i] = d
		body.WriteString(b)
	}
	return "real " + strings.Join(decls, ", ") + "\n" + body.String()
}

// TestPartitionDeterminism is the acceptance gate of the compositional
// layer: reports are byte-identical (wall-time lines excluded, as in
// every determinism test) with and without a cache, at Parallelism 1,
// 2, and 8, cold and warm — the decomposition is structural, and the
// per-region cache only changes what is recomputed.
func TestPartitionDeterminism(t *testing.T) {
	sources := map[string]string{
		"two": multiComponentSrc(2, func(i int) (int64, int) { return int64(i), i }),
		"ten": multiComponentSrc(10, func(i int) (int64, int) { return int64(3 * i), i }),
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			var base string
			for _, cached := range []bool{false, true} {
				for _, par := range []int{1, 2, 8} {
					opts := DefaultOptions()
					opts.Parallelism = par
					if cached {
						opts.Cache = NewCache(64)
					}
					cold, err := AlignSource(src, opts)
					if err != nil {
						t.Fatalf("cached=%v par=%d: %v", cached, par, err)
					}
					if name == "ten" && cold.Align.Regions < 8 {
						t.Fatalf("composed program split into %d regions, want >= 8", cold.Align.Regions)
					}
					rep := normalizeBatchReport(cold.Report())
					if base == "" {
						base = rep
					} else if rep != base {
						t.Errorf("cached=%v par=%d: report differs from cached=false par=1:\n--- base\n%s\n--- got\n%s",
							cached, par, base, rep)
					}
					// Warm repeat: with a cache, a hit — normally from the
					// source memo tier in front of the pipeline, or from
					// the region entries when the memo is bypassed — must
					// render the same normalized report as the cold solve.
					warm, err := AlignSource(src, opts)
					if err != nil {
						t.Fatalf("cached=%v par=%d warm: %v", cached, par, err)
					}
					if cached && !warm.MemoHit && !warm.Align.CacheHit {
						t.Errorf("par=%d: warm repeat missed both cache tiers", par)
					}
					if rep := normalizeBatchReport(warm.Report()); rep != base {
						t.Errorf("cached=%v par=%d: warm report differs:\n--- base\n%s\n--- warm\n%s",
							cached, par, base, rep)
					}
				}
			}
		})
	}
}

// TestPartitionTestdataEquivalence runs every corpus program with and
// without a cache: the testdata programs are connected (single-region),
// so this pins that the cached region path leaves the monolithic
// answer byte-for-byte alone.
func TestPartitionTestdataEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "batch", "*.dp"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src := string(raw)
			var base string
			for _, cached := range []bool{false, true} {
				opts := DefaultOptions()
				opts.Parallelism = 8
				if cached {
					opts.Cache = NewCache(16)
				}
				res, err := AlignSource(src, opts)
				if err != nil {
					t.Fatalf("cached=%v: %v", cached, err)
				}
				rep := normalizeBatchReport(res.Report())
				if base == "" {
					base = rep
				} else if rep != base {
					t.Errorf("report differs with a cache:\n--- uncached\n%s\n--- cached\n%s", base, rep)
				}
			}
		})
	}
}

// TestPartitionPropertyCompositions is the randomized half of the
// property suite: seeded random multi-component compositions solve
// byte-identically (normalized) with and without a cache at
// parallelism 1, 2, and 8.
func TestPartitionPropertyCompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		k := 2 + rng.Intn(5)
		src := multiComponentSrc(k, func(int) (int64, int) {
			return int64(rng.Intn(32)), rng.Intn(4)
		})
		var base string
		for _, cached := range []bool{false, true} {
			for _, par := range []int{1, 2, 8} {
				opts := DefaultOptions()
				opts.Parallelism = par
				if cached {
					opts.Cache = NewCache(64)
				}
				res, err := AlignSource(src, opts)
				if err != nil {
					t.Fatalf("trial %d cached=%v par=%d: %v\nprogram:\n%s", trial, cached, par, err, src)
				}
				rep := normalizeBatchReport(res.Report())
				if base == "" {
					base = rep
				} else if rep != base {
					t.Fatalf("trial %d cached=%v par=%d: report diverged\nprogram:\n%s\n--- base\n%s\n--- got\n%s",
						trial, cached, par, src, base, rep)
				}
			}
		}
	}
}

// TestRegionCostMatchesExact checks the cost a decomposed solve
// reports — the sum of its regions' costs, cached with each region —
// against cost.Exact over the whole program, through a stream of
// one-component edits against one cache, so most regions are served
// from the cache.
func TestRegionCostMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const k = 6
	vs := make([]int64, k)
	kinds := make([]int, k)
	for i := range vs {
		vs[i], kinds[i] = int64(rng.Intn(32)), i%4
	}
	opts := DefaultOptions()
	opts.Cache = NewCache(256)
	hits, costly := 0, 0
	for edit := 0; edit < 12; edit++ {
		if edit > 0 {
			vs[rng.Intn(k)] = int64(rng.Intn(32))
		}
		src := multiComponentSrc(k, func(i int) (int64, int) { return vs[i], kinds[i] })
		res, err := AlignSource(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := cost.Exact(res.Graph, res.Assignment()); res.Cost != want {
			t.Fatalf("edit %d: reported cost %v, cost.Exact %v\nprogram:\n%s", edit, res.Cost, want, src)
		}
		hits += res.Align.RegionHits
		if res.Cost.Total() > 0 {
			costly++
		}
	}
	if hits == 0 || costly == 0 {
		t.Fatalf("stream exercised %d region hits and %d costly programs; want both > 0", hits, costly)
	}
}
