package align

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/adg"
	"repro/internal/expr"
)

// Cache is a bounded, content-addressed memo of completed pipeline
// results. The key is a cryptographic hash of a canonical serialization
// of the ADG plus every option that affects the computed alignment, so a
// hit guarantees the cached result is the one the pipeline would
// recompute — repeated compiles of an unchanged program are O(hash).
// Parallelism settings are deliberately excluded from the key: the
// solvers produce identical results at every parallelism level, so runs
// that differ only in worker count share entries.
//
// The cache is built for many concurrent callers (the batch engine and
// long-running drivers): entries live in a power-of-two number of LRU
// shards selected by the first byte of the SHA-256 key, each shard
// behind its own mutex, so lookups on different keys rarely contend.
// Hit/miss counters are atomic and never serialize the hot path.
//
// Misses have singleflight semantics: concurrent callers that miss on
// the same content key run the §3–§6 pipeline once — one leader
// computes, the rest wait and share the completed result (rehydrated
// onto their own graphs). FlightStats reports how many pipeline
// executions ran and how many were collapsed.
//
// The capacity bound is global, not per shard: a put evicts only once
// the whole cache holds capacity results (the cache never holds more),
// and the victim is the least recently used entry of the inserting
// key's own shard — or, when that shard has nothing else to give, of
// another non-empty shard. Splitting the capacity into fixed per-shard
// quotas instead would evict far below capacity whenever several hot
// keys hash into one shard (with 6 distinct programs in a 24-entry
// cache, three keys sharing a 2-entry shard forced recomputes — caught
// by TestBatchDeterminism/duplicates).
type Cache struct {
	shards   [cacheShards]cacheShard
	nshards  int          // active shards (min(cacheShards, capacity))
	capacity int          // global entry bound across all shards
	size     atomic.Int64 // current entries across all shards

	hits      atomic.Int64
	misses    atomic.Int64
	contended atomic.Int64 // shard-lock acquisitions that had to wait

	flightMu sync.Mutex
	flights  map[string]*flightCall
	computes atomic.Int64 // pipeline executions (singleflight leaders)
	shared   atomic.Int64 // waiters served by another caller's execution

	// src is the source-keyed memo tier layered in front of the whole
	// pipeline by AlignSource-style front ends; see srcmemo.go.
	src srcState
}

// cacheShards is the number of LRU shards (a power of two, indexed by
// the first hex digit of the SHA-256 key).
const cacheShards = 16

// cacheShard is one independently locked LRU.
type cacheShard struct {
	mu      sync.Mutex
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key → element holding *cacheEntry
}

type cacheEntry struct {
	key string
	res *Result
}

// flightCall is one in-flight pipeline execution; waiters block on done
// (or their own context) and read res/err after the channel closes. The
// channel — rather than a WaitGroup — lets a waiter whose context dies
// abandon the flight without disturbing the leader.
type flightCall struct {
	done chan struct{}
	res  *Result
	err  error
}

// DefaultCacheCap is the entry capacity used when NewCache is given a
// non-positive capacity.
const DefaultCacheCap = 64

// NewCache returns an empty cache holding at most capacity results
// (DefaultCacheCap if capacity <= 0). The bound is strict and global:
// eviction starts only when the cache as a whole is full, never
// because one shard is unlucky in the key hash, and a capacity below
// the shard count shrinks the number of active shards so the cache
// never spreads thinner than one entry per shard.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	nshards := cacheShards
	if capacity < nshards {
		nshards = capacity
	}
	c := &Cache{nshards: nshards, capacity: capacity}
	for i := 0; i < nshards; i++ {
		c.shards[i].order = list.New()
		c.shards[i].entries = make(map[string]*list.Element)
	}
	c.initSource()
	return c
}

// shardFor selects the shard from the key's first hex digit (the high
// nibble of the SHA-256), folded into the active shard count. Non-hex
// first bytes (not produced by cacheKey, but tolerated for direct
// get/put use in tests) fold by low bits.
func (c *Cache) shardFor(key string) *cacheShard {
	if len(key) == 0 {
		return &c.shards[0]
	}
	b := key[0]
	switch {
	case b >= '0' && b <= '9':
		b -= '0'
	case b >= 'a' && b <= 'f':
		b -= 'a' - 10
	default:
		b &= cacheShards - 1
	}
	return &c.shards[int(b)%c.nshards]
}

// lock acquires the shard mutex, counting acquisitions that had to wait
// (the contention signal alignc's batch summary, /v1/stats and the
// alignd_cache_contention_total metric report).
func (s *cacheShard) lock(c *Cache) {
	if !s.mu.TryLock() {
		c.contended.Add(1)
		s.mu.Lock()
	}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	n := 0
	for i := 0; i < c.nshards; i++ {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Counters returns the cumulative hit and miss counts of cache
// lookups. A hit is a lookup served from a completed cached entry — the
// fast path of do, its post-flight re-check, or a direct get. A miss is
// a lookup that made the caller compute: for do, exactly the lookups
// that became singleflight leaders (so misses == computes when every
// lookup goes through do). Waiters served by another caller's in-flight
// execution are counted in FlightStats as shared — neither hit nor miss
// — so every completed do call lands in exactly one bucket:
//
//	hits + shared + misses == completed do() calls
//
// (a waiter that abandons a flight on cancellation counts nowhere).
func (c *Cache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// FlightStats returns how many pipeline executions the cache admitted
// (computes: singleflight leaders, i.e. distinct solves actually run —
// always equal to the miss count of Counters for do-only usage) and how
// many callers were served by waiting on another caller's in-flight
// execution instead of solving themselves (shared; these callers appear
// in neither the hit nor the miss count — see Counters).
func (c *Cache) FlightStats() (computes, shared int64) {
	return c.computes.Load(), c.shared.Load()
}

// Contention returns how many shard-lock acquisitions had to wait for
// another goroutine (a cheap proxy for cache lock contention).
func (c *Cache) Contention() int64 { return c.contended.Load() }

// Shards returns the number of active independently locked LRU shards.
func (c *Cache) Shards() int { return c.nshards }

// get returns the cached result for key (marking it most recently used)
// or nil, updating the hit/miss counters. The hit path performs no
// allocation (asserted by TestCacheGetZeroAlloc).
func (c *Cache) get(key string) *Result {
	s := c.shardFor(key)
	s.lock(c)
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	s.order.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	s.mu.Unlock()
	c.hits.Add(1)
	return res
}

// peek is get without touching the hit/miss counters: do's fast path
// and its singleflight re-check use it, counting explicitly at the
// lookup's terminal outcome, so a single logical lookup is never
// double-counted (a shared waiter is not a miss, a re-check hit is not
// a miss — it is a hit).
func (c *Cache) peek(key string) *Result {
	s := c.shardFor(key)
	s.lock(c)
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*cacheEntry).res
	}
	return nil
}

// put stores a result under key. The capacity bound is global: nothing
// is evicted while the cache holds fewer than capacity entries, and
// once it is full the victim is the LRU entry of the inserting key's
// own shard — or, when that shard holds nothing but the fresh entry,
// the LRU of another non-empty shard (stolen with TryLock so two
// concurrent stealers can never deadlock on each other's shards).
func (c *Cache) put(key string, res *Result) {
	s := c.shardFor(key)
	s.lock(c)
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[key] = s.order.PushFront(&cacheEntry{key: key, res: res})
	if s.order.Len() > 1 && int(c.size.Load()) >= c.capacity {
		// Cache full and this shard has an older entry: evict locally
		// under the lock already held. The swap leaves size unchanged.
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.entries, back.Value.(*cacheEntry).key)
		s.mu.Unlock()
		return
	}
	n := c.size.Add(1)
	s.mu.Unlock()
	if int(n) <= c.capacity {
		return
	}
	// Over capacity and the inserting shard had nothing else to evict:
	// steal the LRU of a non-empty shard. No lock is held here, so the
	// TryLock sweep cannot deadlock; a fully contended or momentarily
	// all-empty sweep (another put racing its own eviction) retries.
	for {
		for i := 0; i < c.nshards; i++ {
			v := &c.shards[i]
			if !v.mu.TryLock() {
				continue
			}
			if v.order.Len() > 1 || (v.order.Len() == 1 && v != s) {
				back := v.order.Back()
				v.order.Remove(back)
				delete(v.entries, back.Value.(*cacheEntry).key)
				c.size.Add(-1)
				v.mu.Unlock()
				return
			}
			v.mu.Unlock()
		}
		runtime.Gosched()
	}
}

// do returns the result for key, computing it at most once across
// concurrent callers: a fast-path lookup, then singleflight on miss.
// owned reports that the returned result was computed by this caller
// and is already bound to its graph; when false the result belongs to
// the cache (or to another caller's solve) and must be rehydrated.
// Errors are not cached: every waiter of a failed flight receives the
// error, and the next caller retries.
//
// A waiter whose ctx dies abandons the flight and returns ctx.Err()
// immediately; the leader's solve is unaffected and its result still
// lands in the cache for later callers. Flight cleanup runs in a defer,
// so a compute that panics still wakes every waiter (with an error
// carrying the panic value) and leaves the flight table clean before
// the panic propagates to the leader's own recovery boundary — no
// future caller of the key can block on a dead flight.
func (c *Cache) do(ctx context.Context, key string, compute func() (*Result, error)) (res *Result, owned bool, err error) {
	// Counter discipline (see Counters): the fast path must not count a
	// miss yet — this caller may still be served without computing, as a
	// flight waiter or by the post-flight re-check. Only the three
	// terminal outcomes count: served from the cache (hit), served by
	// another caller's execution (shared), or computed here (miss).
	if hit := c.peek(key); hit != nil {
		c.hits.Add(1)
		return hit, false, nil
	}
	c.flightMu.Lock()
	if c.flights == nil {
		c.flights = make(map[string]*flightCall)
	}
	if call, ok := c.flights[key]; ok {
		c.flightMu.Unlock()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-call.done:
			c.shared.Add(1)
			return call.res, false, call.err
		case <-done:
			return nil, false, ctx.Err()
		}
	}
	// No flight in progress: re-check the cache before becoming the
	// leader. A previous leader may have completed inside the window
	// between this caller's fast-path miss and the flight-lock
	// acquisition; since completion publishes to the cache before
	// removing the flight entry, an absent flight guarantees a finished
	// compute is already visible here — without this re-check a fast
	// solve (the network path) races duplicate executions into being.
	if hit := c.peek(key); hit != nil {
		c.flightMu.Unlock()
		c.hits.Add(1)
		return hit, false, nil
	}
	call := &flightCall{done: make(chan struct{})}
	c.flights[key] = call
	c.flightMu.Unlock()

	c.misses.Add(1)
	c.computes.Add(1)
	completed := false
	defer func() {
		if !completed {
			// compute panicked: record it for the waiters; the panic
			// itself keeps unwinding past this defer to the leader's
			// per-slot recover.
			call.res, call.err = nil, fmt.Errorf("align: solve panicked for key %.12s…", key)
		}
		if call.err == nil {
			c.put(key, call.res)
		}
		c.flightMu.Lock()
		delete(c.flights, key)
		c.flightMu.Unlock()
		close(call.done)
	}()
	call.res, call.err = compute()
	completed = true
	return call.res, true, call.err
}

// keyWriter is a pooled incremental hasher: serialization bytes are
// appended to a reusable buffer with strconv (no fmt boxing) and fed to
// the SHA-256 block function whenever the buffer fills, so keying a
// graph hashes while it walks instead of materializing the canonical
// byte slice. The only steady-state allocation of a key computation is
// the returned hex string.
type keyWriter struct {
	h   hash.Hash
	buf []byte
	sum [sha256.Size]byte
}

var keyWriterPool = sync.Pool{
	New: func() any {
		return &keyWriter{h: sha256.New(), buf: make([]byte, 0, 1024)}
	},
}

// flush feeds the buffered bytes to the hash once the buffer is near
// capacity (keeping writes block-sized) — call sites append at most a
// few dozen bytes between checks.
func (w *keyWriter) flushIfFull() {
	if len(w.buf) >= cap(w.buf)-64 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *keyWriter) str(s string) {
	// Length-prefixed so adjacent strings cannot alias each other's
	// serialization ("ab","c" vs "a","bc").
	w.buf = strconv.AppendInt(w.buf, int64(len(s)), 10)
	w.buf = append(w.buf, ':')
	if len(s) > cap(w.buf)-len(w.buf) {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
		w.h.Write([]byte(s))
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *keyWriter) int(v int64) {
	w.buf = strconv.AppendInt(w.buf, v, 10)
	w.buf = append(w.buf, ';')
	w.flushIfFull()
}

func (w *keyWriter) boolean(v bool) {
	if v {
		w.buf = append(w.buf, "1;"...)
	} else {
		w.buf = append(w.buf, "0;"...)
	}
	w.flushIfFull()
}

func (w *keyWriter) float(v float64) {
	w.buf = strconv.AppendFloat(w.buf, v, 'g', -1, 64)
	w.buf = append(w.buf, ';')
	w.flushIfFull()
}

func (w *keyWriter) affine(a expr.Affine) {
	w.buf = append(w.buf, 'a')
	w.buf = strconv.AppendInt(w.buf, a.ConstPart(), 10)
	a.EachTerm(func(t expr.Term) bool {
		w.buf = append(w.buf, '+')
		w.buf = strconv.AppendInt(w.buf, t.Coef, 10)
		w.buf = append(w.buf, t.Var...)
		return true
	})
	w.buf = append(w.buf, ';')
	w.flushIfFull()
}

// hexSum finishes the hash and returns the lowercase hex digest.
func (w *keyWriter) hexSum() string {
	if len(w.buf) > 0 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
	return hex.EncodeToString(w.h.Sum(w.sum[:0]))
}

// cacheKey derives the content address of one alignment problem: a
// SHA-256 over a canonical serialization of the graph (template rank;
// every node's kind, label, and kind-specific payload; every port's
// rank, extents, and iteration space; every edge's endpoints and control
// weight) and of the result-affecting options. Node, port, and edge IDs
// are dense construction-order indices, so structurally identical graphs
// serialize identically.
func cacheKey(g *adg.Graph, opts Options) string {
	w := keyWriterPool.Get().(*keyWriter)
	w.h.Reset()
	w.buf = w.buf[:0]
	w.buf = append(w.buf, "v2|tr"...)
	w.int(int64(g.TemplateRank))
	for _, n := range g.Nodes {
		w.buf = append(w.buf, 'n')
		w.int(int64(n.ID))
		w.int(int64(n.Kind))
		w.str(n.Label)
		w.int(int64(len(n.In)))
		w.int(int64(len(n.Out)))
		if n.Section != nil {
			for _, s := range n.Section.Subs {
				w.buf = append(w.buf, 's')
				w.boolean(s.IsRange)
				w.boolean(s.IsVector)
				w.affine(s.Lo)
				w.affine(s.Hi)
				w.affine(s.Step)
				w.affine(s.Index)
			}
		}
		w.buf = append(w.buf, "sp"...)
		w.int(int64(n.SpreadDim))
		w.affine(n.SpreadCopies)
		w.buf = append(w.buf, "rd"...)
		w.int(int64(n.ReduceDim))
		w.boolean(n.ReadOnly)
		w.boolean(n.CondMerge)
		if n.Xform != nil {
			w.buf = append(w.buf, 'x')
			w.int(int64(n.Xform.Kind))
			w.str(n.Xform.LIV)
			w.affine(n.Xform.Lo)
			w.affine(n.Xform.Hi)
			w.affine(n.Xform.Step)
		}
	}
	for _, p := range g.Ports {
		w.buf = append(w.buf, 'p')
		w.int(int64(p.ID))
		w.int(int64(p.Rank))
		for _, e := range p.Extents {
			w.affine(e)
		}
		w.buf = append(w.buf, '|')
		for k, liv := range p.Space.LIVs {
			w.str(liv)
			w.affine(p.Space.Lo[k])
			w.affine(p.Space.Hi[k])
			w.affine(p.Space.Step[k])
		}
	}
	for _, e := range g.Edges {
		w.buf = append(w.buf, 'e')
		w.int(int64(e.ID))
		w.int(int64(e.Src.ID))
		w.int(int64(e.Dst.ID))
		w.float(e.Control)
	}
	// Result-affecting options only: parallelism is excluded on purpose
	// (the computed alignment is identical at every worker count —
	// TestOffsetEngineDeterminism pins this per engine mode). The LP
	// engine toggles ARE keyed: the network fast path must match the
	// engine it replaces byte for byte (same test), but a degenerate RLP
	// can have many optimal vertices and the dense and sparse simplex
	// cores may legitimately round different ones (equal approximate
	// objective, different alignments), so runs under different forced
	// engines must not share cache entries.
	// Partition is keyed even though the computed alignment is identical
	// either way: the toggle changes what a solve teaches the cache
	// (per-region entries and region-hit accounting), so runs under
	// different settings must not masquerade as each other's results.
	// Region subproblems are keyed with Partition=false, which makes a
	// region entry identical to the whole-program entry of the same
	// program solved standalone with partitioning off.
	// Presolve is keyed for the same reason as the engine toggles: the
	// block-split solve and the whole-problem solve agree on the
	// objective but a degenerate RLP can have many optimal vertices,
	// and the per-block engines may round a different one than the
	// monolithic simplex.
	// NoSourceMemo is NOT keyed, here or in the source-tier key: the
	// memo stores the same completed result the pipeline cache would
	// return for the same graph and options, so toggling it changes
	// only which tier answers, never the answer (pinned by the memo
	// on/off legs of TestMemoDeterminism).
	w.buf = append(w.buf, "o|"...)
	w.int(int64(opts.Offset.Strategy))
	w.int(int64(opts.Offset.M))
	w.int(int64(opts.Offset.MaxRefine))
	w.int(int64(opts.Offset.UnrollCap))
	w.boolean(opts.Offset.Static)
	w.boolean(opts.Replication)
	w.int(int64(opts.ReplicationRounds))
	w.int(int64(opts.AxisStride.Restarts))
	w.int(int64(opts.Offset.Engine))
	w.boolean(opts.Offset.NoNetPath)
	w.boolean(opts.Partition)
	w.int(int64(opts.Offset.Presolve))
	key := w.hexSum()
	keyWriterPool.Put(w)
	return key
}

// rehydrate rebinds a cached result to g, a graph whose canonical
// serialization matched the cached one: every node, port, and edge ID
// denotes the same structural element, so edge lists remap by ID and
// per-port tables copy over unchanged. Label, stride, and offset values
// (ASLabel, expr.Affine) are immutable and shared with the cached
// result; the containers are fresh so callers may extend them freely.
func (r *Result) rehydrate(g *adg.Graph) *Result {
	as := &AxisStrideResult{
		Labels: make(map[int]ASLabel, len(r.AxisStride.Labels)),
		Cost:   r.AxisStride.Cost,
		Stats:  r.AxisStride.Stats,
	}
	for id, l := range r.AxisStride.Labels {
		as.Labels[id] = l
	}
	for _, e := range r.AxisStride.GeneralEdges {
		as.GeneralEdges = append(as.GeneralEdges, g.Edges[e.ID])
	}
	repl := &ReplResult{
		PortRepl:  make(map[int][]bool, len(r.Repl.PortRepl)),
		PerAxis:   append([]int64{}, r.Repl.PerAxis...),
		Broadcast: r.Repl.Broadcast,
		CutEdges:  make([][]*adg.Edge, len(r.Repl.CutEdges)),
	}
	for id, v := range r.Repl.PortRepl {
		repl.PortRepl[id] = append([]bool{}, v...)
	}
	for t, cut := range r.Repl.CutEdges {
		for _, e := range cut {
			repl.CutEdges[t] = append(repl.CutEdges[t], g.Edges[e.ID])
		}
	}
	off := &OffsetResult{
		Offsets:       make(map[int][]expr.Affine, len(r.Offset.Offsets)),
		Approx:        r.Offset.Approx,
		Exact:         r.Offset.Exact,
		LPVariables:   r.Offset.LPVariables,
		LPConstraints: r.Offset.LPConstraints,
		Solves:        r.Offset.Solves,
		Stats:         r.Offset.Stats,
	}
	for id, v := range r.Offset.Offsets {
		off.Offsets[id] = append([]expr.Affine{}, v...)
	}
	out := &Result{
		Graph:      g,
		AxisStride: as,
		Repl:       repl,
		Offset:     off,
		CacheHit:   true,
		Regions:    r.Regions,
		RegionHits: r.RegionHits,
	}
	out.Assignment = out.BuildAssignment()
	return out
}
