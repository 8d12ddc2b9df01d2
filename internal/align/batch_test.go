package align

import (
	"context"
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adg"
	"repro/internal/lp"
)

// TestCacheKeyPresolveToggle pins the presolve toggle into the content
// key: presolve on and off can land on different degenerate vertices of
// the same optimal face, so a cached result must never be served across
// the toggle.
func TestCacheKeyPresolveToggle(t *testing.T) {
	g := mustGraph(t, fig1)
	on := Options{}
	off := Options{}
	off.Offset.Presolve = lp.PresolveOff
	if cacheKey(g, on) == cacheKey(g, off) {
		t.Error("cache keys equal across the Presolve toggle")
	}
}

// TestCacheKeyDefaults pins the option fingerprint both tiers share to
// defaulted values: settings that solve identically share one key in
// the pipeline tier and in the source tier, settings outside the key
// (parallelism, the LP budget) never split it, and a setting that
// changes the answer does.
func TestCacheKeyDefaults(t *testing.T) {
	g := mustGraph(t, fig1)
	with := func(f func(*Options)) Options {
		o := Options{Replication: true}
		f(&o)
		return o
	}
	for _, tc := range []struct {
		name  string
		a, b  Options
		equal bool
	}{
		{"M 0 vs 3", with(func(o *Options) { o.Offset.M = 0 }), with(func(o *Options) { o.Offset.M = 3 }), true},
		{"Restarts 0 vs 2", with(func(o *Options) { o.AxisStride.Restarts = 0 }), with(func(o *Options) { o.AxisStride.Restarts = 2 }), true},
		{"Restarts -1 vs -7", with(func(o *Options) { o.AxisStride.Restarts = -1 }), with(func(o *Options) { o.AxisStride.Restarts = -7 }), true},
		{"MaxRefine 0 vs 6", with(func(o *Options) { o.Offset.MaxRefine = 0 }), with(func(o *Options) { o.Offset.MaxRefine = 6 }), true},
		{"UnrollCap 0 vs 4096", with(func(o *Options) { o.Offset.UnrollCap = 0 }), with(func(o *Options) { o.Offset.UnrollCap = 4096 }), true},
		{"ReplicationRounds 0 vs 2", with(func(o *Options) { o.ReplicationRounds = 0 }), with(func(o *Options) { o.ReplicationRounds = 2 }), true},
		{"Parallelism 1 vs 8", with(func(o *Options) { o.Offset.Parallelism, o.AxisStride.Parallelism = 1, 1 }), with(func(o *Options) { o.Offset.Parallelism, o.AxisStride.Parallelism = 8, 8 }), true},
		{"MaxLPIter 0 vs 500", with(func(o *Options) { o.MaxLPIter = 0 }), with(func(o *Options) { o.MaxLPIter = 500 }), true},
		{"M 3 vs 5", with(func(o *Options) { o.Offset.M = 3 }), with(func(o *Options) { o.Offset.M = 5 }), false},
	} {
		srcA, okA := SourceKeyOf(fig1, tc.a)
		srcB, okB := SourceKeyOf(fig1, tc.b)
		if !okA || !okB {
			t.Fatal("fig1 does not lex")
		}
		if got := cacheKey(g, tc.a) == cacheKey(g, tc.b); got != tc.equal {
			t.Errorf("%s: pipeline keys equal = %v, want %v", tc.name, got, tc.equal)
		}
		if got := srcA == srcB; got != tc.equal {
			t.Errorf("%s: source keys equal = %v, want %v", tc.name, got, tc.equal)
		}
	}
}

// TestCacheGetZeroAlloc pins the batch engine's hot path: a warm-cache
// hit — shard select, map lookup, LRU move-to-front, atomic counter —
// performs zero allocations, so a steady stream of repeat compiles
// costs only the key hash.
func TestCacheGetZeroAlloc(t *testing.T) {
	g := mustGraph(t, fig1)
	c := NewCache(8)
	opts := Options{Cache: c}
	if _, err := Align(g, opts); err != nil {
		t.Fatal(err)
	}
	key := cacheKey(g, opts)
	if _, ok := c.pipe.get(key); !ok {
		t.Fatal("warm cache missed its own key")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.pipe.get(key); !ok {
			t.Fatal("hit path missed")
		}
	})
	if allocs != 0 {
		t.Errorf("cache hit path allocates %.1f objects per Get, want 0", allocs)
	}
}

// shardKey returns a key that lands in the given shard: the digest of
// name with its first byte, the shard selector, set to shard.
func shardKey(shard int, name string) SourceKey {
	k := SourceKey(sha256.Sum256([]byte(name)))
	k[0] = byte(shard)
	return k
}

// tierLeg drives one cache tier through its public entry points, so
// the tier tests run one scenario on both instantiations: the pipeline
// tier through do, the source tier through SourceGet and then, on a
// miss, SourceDo — the sequence the front end uses.
type tierLeg struct {
	name string
	do   func(c *Cache, ctx context.Context, k SourceKey, compute func() (*Result, error)) (*Result, bool, error)
	get  func(c *Cache, k SourceKey) *Result
	len  func(c *Cache) int
	// counters returns hits, misses, shared, computes.
	counters func(c *Cache) (int64, int64, int64, int64)
}

var tierLegs = []tierLeg{
	{
		name: "pipeline",
		do: func(c *Cache, ctx context.Context, k SourceKey, compute func() (*Result, error)) (*Result, bool, error) {
			return c.pipe.do(ctx, k, compute)
		},
		get: func(c *Cache, k SourceKey) *Result {
			res, _ := c.pipe.get(k)
			return res
		},
		len: (*Cache).Len,
		counters: func(c *Cache) (int64, int64, int64, int64) {
			hits, misses := c.Counters()
			computes, shared := c.FlightStats()
			return hits, misses, shared, computes
		},
	},
	{
		name: "source",
		do: func(c *Cache, ctx context.Context, k SourceKey, compute func() (*Result, error)) (*Result, bool, error) {
			if v, ok := c.SourceGet(k); ok {
				return v.(*Result), false, nil
			}
			v, owned, err := c.SourceDo(ctx, k, func() (any, error) { return compute() })
			res, _ := v.(*Result)
			return res, owned, err
		},
		get: func(c *Cache, k SourceKey) *Result {
			v, _ := c.SourceGet(k)
			res, _ := v.(*Result)
			return res
		},
		len:      (*Cache).SourceLen,
		counters: (*Cache).SourceCounters,
	},
}

// TestCacheShardingAndEviction checks that keys spread over every shard
// by their first byte, that the capacity bound is global (keys hashing
// into one shard never evict while the cache has room — a per-shard
// quota once recomputed duplicate batch programs, see
// TestBatchDeterminism/duplicates), and that eviction at capacity is
// LRU within the inserting shard, stealing from another shard only
// when the inserting shard has nothing else to give.
func TestCacheShardingAndEviction(t *testing.T) {
	c := NewCache(cacheShards) // one entry per shard
	res := &Result{}
	for i := 0; i < cacheShards; i++ {
		c.pipe.put(shardKey(i, "key"), res)
	}
	if got := c.Len(); got != cacheShards {
		t.Fatalf("distinct-shard keys: Len = %d, want %d", got, cacheShards)
	}
	for i := range c.pipe.shards {
		if n := c.pipe.shards[i].order.Len(); n != 1 {
			t.Errorf("shard %d holds %d entries, want 1", i, n)
		}
	}
	has := func(k SourceKey) bool {
		_, ok := c.pipe.get(k)
		return ok
	}

	// Global bound: a cache with room keeps same-shard keys even when
	// they all hash into one shard.
	first, second, third := shardKey(0, "first"), shardKey(0, "second"), shardKey(0, "third")
	c = NewCache(2 * cacheShards)
	c.pipe.put(first, res)
	c.pipe.put(second, res)
	c.pipe.put(third, res)
	if c.Len() != 3 {
		t.Fatalf("below capacity, Len = %d after three same-shard puts, want 3", c.Len())
	}
	for i, k := range []SourceKey{first, second, third} {
		if !has(k) {
			t.Errorf("same-shard key %d evicted below capacity", i)
		}
	}

	// At capacity, eviction is LRU within the inserting key's shard:
	// NewCache(2) keeps two active shards; the shard-0 keys share one.
	c = NewCache(2)
	c.pipe.put(first, res)
	c.pipe.put(second, res)
	if !has(first) { // touch: now second is LRU
		t.Fatal("first missing before eviction")
	}
	c.pipe.put(third, res)
	if !has(first) {
		t.Error("recently used entry was evicted")
	}
	if has(second) {
		t.Error("least recently used entry survived eviction")
	}
	if !has(third) {
		t.Error("new entry missing after eviction")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d after eviction, want capacity 2", c.Len())
	}

	// A full cache whose new key lands in an empty shard steals the LRU
	// of a non-empty shard instead of exceeding the bound.
	steal := shardKey(1, "steal")
	c.pipe.put(steal, res)
	if c.Len() != 2 {
		t.Errorf("Len = %d after cross-shard steal, want 2", c.Len())
	}
	if !has(steal) {
		t.Error("fresh entry missing after cross-shard steal")
	}
	if !has(third) {
		t.Error("most recently used entry of the donor shard was stolen")
	}
	if has(first) {
		t.Error("donor shard LRU survived the steal")
	}
}

// TestCacheSingleflight checks the miss-collapse contract of both
// tiers: concurrent callers of one key run compute exactly once and
// share the result, and failed computes are not cached (the next caller
// retries).
func TestCacheSingleflight(t *testing.T) {
	for _, leg := range tierLegs {
		t.Run(leg.name, func(t *testing.T) {
			c := NewCache(8)
			const callers = 8
			var (
				started = make(chan struct{})
				calls   atomic.Int64
				wg      sync.WaitGroup
				results [callers]*Result
			)
			want := &Result{}
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-started
					res, _, err := leg.do(c, context.Background(), shardKey(0, "deadbeef"), func() (*Result, error) {
						calls.Add(1)
						time.Sleep(20 * time.Millisecond) // let the others pile up
						return want, nil
					})
					if err != nil {
						t.Errorf("caller %d: %v", i, err)
					}
					results[i] = res
				}(i)
			}
			close(started)
			wg.Wait()
			if n := calls.Load(); n != 1 {
				t.Errorf("compute ran %d times for one key, want 1", n)
			}
			hits, _, shared, computes := leg.counters(c)
			if computes != 1 {
				t.Errorf("computes = %d, want 1", computes)
			}
			// Every non-leader was served without computing: either it
			// joined the flight or arrived after completion and hit.
			if shared+hits != callers-1 {
				t.Errorf("shared (%d) + hits (%d) = %d, want %d", shared, hits, shared+hits, callers-1)
			}
			for i, res := range results {
				if res != want {
					t.Errorf("caller %d got a different result", i)
				}
			}

			// Errors are not cached: both calls compute.
			boom := errors.New("boom")
			for i := 0; i < 2; i++ {
				_, _, err := leg.do(c, context.Background(), shardKey(1, "facade"), func() (*Result, error) {
					calls.Add(1)
					return nil, boom
				})
				if !errors.Is(err, boom) {
					t.Fatalf("call %d: err = %v, want boom", i, err)
				}
			}
			if n := calls.Load(); n != 3 {
				t.Errorf("failed compute memoized: %d total calls, want 3", n)
			}
		})
	}
}

// TestAlignSingleflight runs the real pipeline concurrently on
// structurally identical graphs sharing one cache: exactly one solve
// runs, every caller's result is bound to its own graph, and leader and
// followers agree on the alignment.
func TestAlignSingleflight(t *testing.T) {
	const callers = 6
	c := NewCache(8)
	opts := Options{Cache: c}
	graphs := make([]*adg.Graph, callers)
	for i := range graphs {
		graphs[i] = mustGraph(t, fig1)
	}
	var wg sync.WaitGroup
	results := make([]*Result, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = Align(graphs[i], opts)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	computes, _ := c.FlightStats()
	if computes != 1 {
		t.Errorf("identical concurrent solves ran the pipeline %d times, want 1", computes)
	}
	leaders := 0
	for i, res := range results {
		if res.Graph != graphs[i] {
			t.Errorf("caller %d: result bound to a foreign graph", i)
		}
		if !res.CacheHit {
			leaders++
		}
		if got, want := res.Assignment.String(), results[0].Assignment.String(); got != want {
			t.Errorf("caller %d: assignment differs from caller 0", i)
		}
		if res.Offset.Exact != results[0].Offset.Exact {
			t.Errorf("caller %d: exact cost %d != %d", i, res.Offset.Exact, results[0].Offset.Exact)
		}
	}
	if leaders != 1 {
		t.Errorf("%d results report CacheHit=false, want exactly the leader", leaders)
	}
}

// TestSchedulerLeasing pins the budget arithmetic and the concurrency
// ceiling: leases divide the budget exactly, and Map never runs more
// than budget workers' worth of jobs at once.
func TestSchedulerLeasing(t *testing.T) {
	s := NewScheduler(8)
	for _, tc := range []struct{ n, lease int }{
		{1, 8}, {2, 4}, {3, 2}, {4, 2}, {5, 1}, {8, 1}, {64, 1},
	} {
		if got := s.lease(tc.n); got != tc.lease {
			t.Errorf("budget 8, %d jobs: lease = %d, want %d", tc.n, got, tc.lease)
		}
	}

	const budget = 4
	s = NewScheduler(budget)
	var cur, peak atomic.Int64
	order := make([]int, 16)
	s.Map(len(order), func(i, lease int) {
		if lease != 1 {
			t.Errorf("job %d: lease = %d, want 1 (batch wider than budget)", i, lease)
		}
		if n := cur.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(time.Millisecond)
		order[i] = i * i
		cur.Add(-1)
	})
	if p := peak.Load(); p > budget {
		t.Errorf("Map ran %d jobs concurrently, budget is %d", p, budget)
	}
	for i, v := range order {
		if v != i*i {
			t.Errorf("slot %d = %d, want %d (results must land at their own index)", i, v, i*i)
		}
	}
}

// TestAlignBatchOrderAndErrors checks slot discipline: results arrive
// in input order and a batch is all-slots-populated even when graphs
// repeat (dedup must not leave follower slots nil).
func TestAlignBatchOrderAndErrors(t *testing.T) {
	srcs := []string{fig1, fig1, fig1, fig1}
	graphs := make([]*adg.Graph, len(srcs))
	for i, src := range srcs {
		graphs[i] = mustGraph(t, src)
	}
	cache := NewCache(len(graphs))
	results, errs := AlignBatch(graphs, Options{Cache: cache}, BatchOptions{Workers: 2})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if results[i] == nil {
			t.Fatalf("slot %d: nil result", i)
		}
		if results[i].Graph != graphs[i] {
			t.Errorf("slot %d bound to a foreign graph", i)
		}
	}
	computes, _ := cache.FlightStats()
	if computes != 1 {
		t.Errorf("4 identical programs ran the pipeline %d times, want 1", computes)
	}
}

// TestScratchPoolReuse checks that pooled scratch state round-trips:
// a released intern table comes back reset, and a nil pool hands out
// fresh state instead of panicking (the pipeline runs pool-less outside
// the batch engine).
func TestScratchPoolReuse(t *testing.T) {
	var sp scratchPool
	tab := sp.getIntern()
	tab.intern(identityLabel(2))
	if tab.size() != 1 {
		t.Fatalf("size = %d after intern, want 1", tab.size())
	}
	sp.putIntern(tab)
	got := sp.getIntern()
	if got != tab {
		t.Skip("sync.Pool dropped the entry (GC ran); nothing to assert")
	}
	if got.size() != 0 {
		t.Errorf("pooled table not reset: size = %d", got.size())
	}

	var nilPool *scratchPool
	if nilPool.getIntern() == nil {
		t.Error("nil pool returned nil intern table")
	}
	if nilPool.getArena() == nil {
		t.Error("nil pool returned nil arena")
	}
	nilPool.putIntern(nil)
	nilPool.putArena(nil)
}
