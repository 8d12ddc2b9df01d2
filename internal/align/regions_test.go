package align

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adg"
)

// twoComp is a program whose ADG splits into two independent
// components: the {x,y} vector computation and the {m,n} matrix pair.
const twoComp = `
real X(60), Y(60), M(12,16), N(16,12)
x(1:20) = x(1:20) + y(3:22)
m = m + transpose(n)
`

// twoCompSwapped is the same two computations with declaration and
// statement order swapped: an isomorphic renumbering of the regions.
const twoCompSwapped = `
real M(12,16), N(16,12), X(60), Y(60)
m = m + transpose(n)
x(1:20) = x(1:20) + y(3:22)
`

// regionKeys partitions g and returns the per-region content keys, as
// alignRegions keys them.
func regionKeys(t *testing.T, g *adg.Graph, opts Options) map[SourceKey]bool {
	t.Helper()
	part := adg.PartitionGraph(g)
	keys := make(map[SourceKey]bool, len(part.Regions))
	for _, r := range part.Regions {
		keys[cacheKey(r.Graph, opts)] = true
	}
	return keys
}

// TestRegionKeyRelabelInvariance: permuting the order in which a
// program's independent components appear renumbers every node, port,
// and edge globally, but the extracted regions renumber densely from
// zero — so the set of region content keys is unchanged. This is what
// lets an edited program reuse the cache entries of its untouched
// components no matter where the edit shifted their global IDs.
func TestRegionKeyRelabelInvariance(t *testing.T) {
	opts := Options{Replication: true}
	a := regionKeys(t, mustGraph(t, twoComp), opts)
	b := regionKeys(t, mustGraph(t, twoCompSwapped), opts)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("region key counts = %d and %d, want 2 and 2", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("region key %.12s… of the original program missing from the permuted one", k)
		}
	}

	// Keys of the two whole graphs differ (their serialization sees the
	// permuted IDs), which is exactly why the cache keys regions rather
	// than programs.
	if cacheKey(mustGraph(t, twoComp), opts) == cacheKey(mustGraph(t, twoCompSwapped), opts) {
		t.Error("whole-program keys unexpectedly equal for permuted programs")
	}
}

// TestRegionCacheIncremental: solving a program that shares components
// with an earlier solve hits the per-region cache for every untouched
// component and re-solves only the edited one — and the result is
// identical to an uncached solve of the same program.
func TestRegionCacheIncremental(t *testing.T) {
	edited := `
real X(60), Y(60), M(12,16), N(16,12)
x(1:20) = x(1:20) + y(4:23)
m = m + transpose(n)
`
	base := Options{Replication: true}

	cold := base
	cold.Cache = NewCache(16)
	first, err := Align(mustGraph(t, twoComp), cold)
	if err != nil {
		t.Fatal(err)
	}
	if first.Regions != 2 || first.RegionHits != 0 {
		t.Fatalf("cold solve: Regions=%d RegionHits=%d, want 2 and 0", first.Regions, first.RegionHits)
	}

	warm, err := Align(mustGraph(t, edited), cold)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Regions != 2 || warm.RegionHits != 1 {
		t.Errorf("edited solve: Regions=%d RegionHits=%d, want 2 and 1 (the transpose component is untouched)",
			warm.Regions, warm.RegionHits)
	}
	if warm.CacheHit {
		t.Error("edited solve reported a cache hit with one region recomputed")
	}

	ref, err := Align(mustGraph(t, edited), base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.Assignment.String(), ref.Assignment.String(); got != want {
		t.Errorf("cached warm solve differs from uncached solve:\n--- cached\n%s\n--- uncached\n%s", got, want)
	}
	if warm.Offset.Exact != ref.Offset.Exact || warm.AxisStride.Cost != ref.AxisStride.Cost {
		t.Errorf("costs differ: cached (%d, %d) vs uncached (%d, %d)",
			warm.AxisStride.Cost, warm.Offset.Exact, ref.AxisStride.Cost, ref.Offset.Exact)
	}

	// A second identical solve hits both region entries: the result is
	// reassembled from the cache and reports a cache hit over the same
	// two regions.
	again, err := Align(mustGraph(t, edited), cold)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("repeat solve missed the cache")
	}
	if again.Regions != 2 {
		t.Errorf("repeat solve Regions=%d, want 2", again.Regions)
	}
}

// TestRegionEntrySharedWithStandalone: with a Cache and default
// options, every region of a solve is a cache entry, keyed exactly as
// the same component solved as a program of its own. Aligning twoComp
// caches its transpose component, so aligning that component alone
// with the same options is a hit that runs no solver.
func TestRegionEntrySharedWithStandalone(t *testing.T) {
	opts := Options{Replication: true, Cache: NewCache(16)}
	if _, err := Align(mustGraph(t, twoComp), opts); err != nil {
		t.Fatal(err)
	}
	computes, _ := opts.Cache.FlightStats()
	alone, err := Align(mustGraph(t, "real M(12,16), N(16,12)\nm = m + transpose(n)\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !alone.CacheHit || alone.Regions != 1 || alone.RegionHits != 1 {
		t.Errorf("standalone component: CacheHit=%v Regions=%d RegionHits=%d, want a hit on its one region",
			alone.CacheHit, alone.Regions, alone.RegionHits)
	}
	if after, _ := opts.Cache.FlightStats(); after != computes {
		t.Errorf("standalone component ran the pipeline %d more times, want 0", after-computes)
	}
}

// TestCacheCounterIdentity pins the documented counter bookkeeping of
// both tiers (Counters/FlightStats, SourceCounters): every completed
// lookup counts in exactly one of {hits, shared, misses}, and misses
// equals computes — a singleflight waiter is shared, not a miss (the
// double-count this identity regression-tests).
func TestCacheCounterIdentity(t *testing.T) {
	for _, leg := range tierLegs {
		t.Run(leg.name, func(t *testing.T) {
			c := NewCache(8)
			want := &Result{}
			var calls atomic.Int64
			const (
				keys    = 3
				callers = 16
			)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					_, _, err := leg.do(c, context.Background(), shardKey(i%keys, "counter-key"), func() (*Result, error) {
						calls.Add(1)
						time.Sleep(10 * time.Millisecond) // pile the waiters up
						return want, nil
					})
					if err != nil {
						t.Errorf("caller %d: %v", i, err)
					}
				}(i)
			}
			close(start)
			wg.Wait()
			// A second wave hits the now-complete entries on the fast
			// path.
			for i := 0; i < keys; i++ {
				if _, _, err := leg.do(c, context.Background(), shardKey(i, "counter-key"), func() (*Result, error) {
					t.Errorf("key %d recomputed after completion", i)
					return want, nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			hits, misses, shared, computes := leg.counters(c)
			if misses != computes {
				t.Errorf("misses (%d) != computes (%d): a non-leader was counted as a miss", misses, computes)
			}
			if computes != calls.Load() {
				t.Errorf("computes (%d) != actual compute calls (%d)", computes, calls.Load())
			}
			if total := hits + shared + misses; total != callers+keys {
				t.Errorf("hits (%d) + shared (%d) + misses (%d) = %d, want %d completed lookups",
					hits, shared, misses, total, callers+keys)
			}
			if hits < keys {
				t.Errorf("hits = %d, want at least the %d fast-path hits of the second wave", hits, keys)
			}
		})
	}
}

// TestRegionHitsReassembleFromCache: re-aligning a multi-component
// program whose components appear in a different order hits every
// region. The hits are reassembled straight from the cached region
// results: the result reports a cache hit, the answer equals an
// uncached solve, hits add no phase time, and the cache entries they
// were read from are left as they were — a standalone solve of each
// component served from the same cache still prints the assignment of
// a cold solve.
func TestRegionHitsReassembleFromCache(t *testing.T) {
	// Every component is rank 2, so each one alone has the template
	// rank of the whole program and keys exactly as its region does.
	comps := []struct{ decl, body string }{
		{"X(60,8), Y(60,8)", "x(1:20,1:8) = x(1:20,1:8) + y(3:22,1:8)\n"},
		{"M(12,16), N(16,12)", "m = m + transpose(n)\n"},
		{"U(80,4), F(80,4)", "do k = 1, 40\n  u(k:k+39,1:4) = u(k:k+39,1:4) + f(k:k+39,1:4)\n  f(k:k+39,1:4) = f(k:k+39,1:4) * 2\nenddo\n"},
		{"A(30,30), V(60)", "do k = 1, 30\n  a(k,1:30) = a(k,1:30) + v(k:k+29)\nenddo\n"},
	}
	program := func(order ...int) string {
		decls := make([]string, len(order))
		body := ""
		for j, i := range order {
			decls[j] = comps[i].decl
			body += comps[i].body
		}
		return "real " + strings.Join(decls, ", ") + "\n" + body
	}
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			base := Options{Replication: true}
			base.AxisStride.Parallelism = par
			base.Offset.Parallelism = par
			cached := base
			cached.Cache = NewCache(32)

			if _, err := Align(mustGraph(t, program(0, 1, 2, 3)), cached); err != nil {
				t.Fatal(err)
			}
			reordered := program(3, 1, 0, 2)
			got, err := Align(mustGraph(t, reordered), cached)
			if err != nil {
				t.Fatal(err)
			}
			if !got.CacheHit {
				t.Error("an all-hit reassembly does not report CacheHit")
			}
			if got.Regions != len(comps) || got.RegionHits != got.Regions {
				t.Errorf("Regions=%d RegionHits=%d, want %d and %d", got.Regions, got.RegionHits, len(comps), len(comps))
			}
			if got.Times != (PhaseTimes{}) {
				t.Errorf("all-hit reassembly reports phase times %+v, want zero", got.Times)
			}
			ref, err := Align(mustGraph(t, reordered), base)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got.Assignment.String(), ref.Assignment.String(); g != w {
				t.Errorf("reassembled hits differ from an uncached solve:\n--- hits\n%s\n--- uncached\n%s", g, w)
			}
			if got.Offset.Stats.Pivots != ref.Offset.Stats.Pivots || got.AxisStride.Stats != ref.AxisStride.Stats {
				t.Errorf("effort counters of the hits (pivots %d, DP %+v) differ from the uncached solve (pivots %d, DP %+v)",
					got.Offset.Stats.Pivots, got.AxisStride.Stats, ref.Offset.Stats.Pivots, ref.AxisStride.Stats)
			}

			// A component solved alone is one region with the same key, so
			// it is served by the region entry the reassembly read.
			standalone := base
			standalone.Cache = cached.Cache
			for i := range comps {
				src := program(i)
				hit, err := Align(mustGraph(t, src), standalone)
				if err != nil {
					t.Fatal(err)
				}
				if !hit.CacheHit {
					t.Errorf("component %d: standalone solve missed the region entry", i)
				}
				cold, err := Align(mustGraph(t, src), base)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := hit.Assignment.String(), cold.Assignment.String(); g != w {
					t.Errorf("component %d: cached region entry changed:\n--- cached\n%s\n--- cold\n%s", i, g, w)
				}
			}
		})
	}
}
