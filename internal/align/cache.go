package align

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/adg"
	"repro/internal/expr"
	"repro/internal/lang"
)

// Cache is a bounded, content-addressed memo of completed results in
// two tiers, each an instance of one implementation (tier):
//
//   - the pipeline tier maps cacheKey — a SHA-256 over a canonical
//     serialization of one region's graph (a weakly connected component
//     of the ADG) plus every option that affects the computed
//     alignment — to the pipeline's *Result for that region;
//   - the source tier (srcmemo.go) maps SourceKeyOf — the normalized
//     token stream of a program plus the same option fingerprint — to
//     the front end's completed result, in front of the whole pipeline.
//
// A hit guarantees the cached result is the one the pipeline would
// recompute, so repeated compiles of an unchanged program are O(hash).
// Parallelism settings are deliberately excluded from both keys: the
// solvers produce identical results at every parallelism level, so
// runs that differ only in worker count share entries.
//
// Each tier has its own entry budget (the capacity given to NewCache),
// so memo entries never evict pipeline entries or vice versa.
type Cache struct {
	pipe tier[*Result]
	src  tier[any]
}

// cacheShards is the number of LRU shards per tier (a power of two,
// indexed by the first byte of the SHA-256 key).
const cacheShards = 16

// DefaultCacheCap is the entry capacity used when NewCache is given a
// non-positive capacity.
const DefaultCacheCap = 64

// NewCache returns an empty cache holding at most capacity results per
// tier (DefaultCacheCap if capacity <= 0). The bound is strict and
// global: eviction starts only when the tier as a whole is full, never
// because one shard is unlucky in the key hash, and a capacity below
// the shard count shrinks the number of active shards so a tier never
// spreads thinner than one entry per shard.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	c := &Cache{}
	c.pipe.init(capacity)
	c.src.init(capacity)
	return c
}

// Len returns the number of cached pipeline results (one per distinct
// region).
func (c *Cache) Len() int { return c.pipe.len() }

// Counters returns the cumulative hit and miss counts of pipeline
// lookups. A hit is a lookup served from a completed cached entry — the
// fast path of do or its post-flight re-check. A miss is a lookup that
// made the caller compute: exactly the lookups that became singleflight
// leaders, so misses == computes. Waiters served by another caller's
// in-flight execution are counted in FlightStats as shared — neither
// hit nor miss — so every completed do call lands in exactly one
// bucket:
//
//	hits + shared + misses == completed do() calls
//
// (a waiter that abandons a flight on cancellation counts nowhere).
func (c *Cache) Counters() (hits, misses int64) {
	return c.pipe.hits.Load(), c.pipe.computes.Load()
}

// FlightStats returns how many pipeline executions the cache admitted
// (computes: singleflight leaders, i.e. distinct solves actually run —
// always equal to the miss count of Counters) and how many callers were
// served by waiting on another caller's in-flight execution instead of
// solving themselves (shared; these callers appear in neither the hit
// nor the miss count — see Counters).
func (c *Cache) FlightStats() (computes, shared int64) {
	return c.pipe.computes.Load(), c.pipe.shared.Load()
}

// Contention returns how many shard-lock acquisitions, in either tier,
// had to wait for another goroutine (a cheap proxy for cache lock
// contention).
func (c *Cache) Contention() int64 {
	return c.pipe.contended.Load() + c.src.contended.Load()
}

// tier is one sharded, bounded LRU with singleflight misses, keyed by a
// SHA-256 digest. Entries live in up to cacheShards LRU shards selected
// by the key's first byte, each behind its own mutex, so lookups on
// different keys rarely contend; the counters are atomic and never
// serialize the hot path.
//
// The capacity bound is global, not per shard: a put evicts only once
// the whole tier holds capacity entries (it never holds more), and the
// victim is the least recently used entry of the inserting key's own
// shard — or, when that shard has nothing else to give, of another
// non-empty shard. Splitting the capacity into fixed per-shard quotas
// instead would evict far below capacity whenever several hot keys hash
// into one shard (with 6 distinct programs in a 24-entry cache, three
// keys sharing a 2-entry shard forced recomputes — caught by
// TestBatchDeterminism/duplicates).
//
// Misses have singleflight semantics (see do): concurrent callers that
// miss on the same key compute once — one leader computes, the rest
// wait and share the completed value.
type tier[V any] struct {
	shards   [cacheShards]tierShard
	nshards  int          // active shards (min(cacheShards, capacity))
	capacity int          // global entry bound across all shards
	size     atomic.Int64 // current entries across all shards

	hits      atomic.Int64
	computes  atomic.Int64 // singleflight leaders (the misses)
	shared    atomic.Int64 // waiters served by another caller's compute
	contended atomic.Int64 // shard-lock acquisitions that had to wait

	flightMu sync.Mutex
	flights  map[SourceKey]*flight[V]
}

// tierShard is one independently locked LRU.
type tierShard struct {
	mu      sync.Mutex
	order   *list.List                  // front = most recently used
	entries map[SourceKey]*list.Element // key → element holding *tierEntry[V]
}

type tierEntry[V any] struct {
	key SourceKey
	val V
}

// flight is one in-flight computation; waiters block on done (or their
// own context) and read val/err after the channel closes. The channel —
// rather than a WaitGroup — lets a waiter whose context dies abandon the
// flight without disturbing the leader.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func (t *tier[V]) init(capacity int) {
	t.capacity = capacity
	t.nshards = min(cacheShards, capacity)
	for i := 0; i < t.nshards; i++ {
		t.shards[i].order = list.New()
		t.shards[i].entries = make(map[SourceKey]*list.Element)
	}
	t.flights = make(map[SourceKey]*flight[V])
}

func (t *tier[V]) shardFor(k SourceKey) *tierShard {
	return &t.shards[int(k[0])%t.nshards]
}

// lock acquires the shard mutex, counting acquisitions that had to wait
// (the contention signal alignc's batch summary, /v1/stats and the
// alignd_cache_contention_total metric report).
func (t *tier[V]) lock(s *tierShard) {
	if !s.mu.TryLock() {
		t.contended.Add(1)
		s.mu.Lock()
	}
}

func (t *tier[V]) len() int {
	n := 0
	for i := 0; i < t.nshards; i++ {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// get returns the value stored under k, marking it most recently used
// and counting a hit. A miss is not counted: only do's leaders are
// misses. The hit path performs no allocation (asserted by
// TestCacheGetZeroAlloc).
func (t *tier[V]) get(k SourceKey) (V, bool) {
	v, ok := t.peek(k)
	if ok {
		t.hits.Add(1)
	}
	return v, ok
}

// peek is get without touching the counters: do's fast path and its
// singleflight re-check use it, counting explicitly at the lookup's
// terminal outcome, so a single logical lookup is never double-counted.
func (t *tier[V]) peek(k SourceKey) (v V, ok bool) {
	s := t.shardFor(k)
	t.lock(s)
	if el, hit := s.entries[k]; hit {
		s.order.MoveToFront(el)
		v, ok = el.Value.(*tierEntry[V]).val, true
	}
	s.mu.Unlock()
	return v, ok
}

// put stores v under k. Nothing is evicted while the tier holds fewer
// than capacity entries; once it is full the victim is the LRU entry of
// the inserting key's own shard — or, when that shard holds nothing but
// the fresh entry, the LRU of another non-empty shard (stolen with
// TryLock so two concurrent stealers can never deadlock on each other's
// shards).
func (t *tier[V]) put(k SourceKey, v V) {
	s := t.shardFor(k)
	t.lock(s)
	if el, ok := s.entries[k]; ok {
		el.Value.(*tierEntry[V]).val = v
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[k] = s.order.PushFront(&tierEntry[V]{key: k, val: v})
	if s.order.Len() > 1 && int(t.size.Load()) >= t.capacity {
		// Tier full and this shard has an older entry: evict locally
		// under the lock already held. The swap leaves size unchanged.
		t.evict(s)
		s.mu.Unlock()
		return
	}
	n := t.size.Add(1)
	s.mu.Unlock()
	if int(n) <= t.capacity {
		return
	}
	// Over capacity and the inserting shard had nothing else to evict:
	// steal the LRU of a non-empty shard. No lock is held here, so the
	// TryLock sweep cannot deadlock; a fully contended or momentarily
	// all-empty sweep (another put racing its own eviction) retries.
	for {
		for i := 0; i < t.nshards; i++ {
			v := &t.shards[i]
			if !v.mu.TryLock() {
				continue
			}
			if v.order.Len() > 1 || (v.order.Len() == 1 && v != s) {
				t.evict(v)
				t.size.Add(-1)
				v.mu.Unlock()
				return
			}
			v.mu.Unlock()
		}
		runtime.Gosched()
	}
}

// evict drops the LRU entry of s; the caller holds s.mu.
func (t *tier[V]) evict(s *tierShard) {
	back := s.order.Back()
	s.order.Remove(back)
	delete(s.entries, back.Value.(*tierEntry[V]).key)
}

// do returns the value for k, computing it at most once across
// concurrent callers: a fast-path lookup, then singleflight on miss.
// owned reports that compute ran in this call; when false the value was
// served from the tier or by another caller's in-flight computation.
// Errors are not cached: every waiter of a failed flight receives the
// error, and the next caller retries.
//
// A waiter whose ctx dies abandons the flight and returns ctx.Err()
// immediately; the leader's compute is unaffected and its value still
// lands in the tier for later callers. Flight cleanup runs in a defer,
// so a compute that panics still wakes every waiter (with an error
// carrying the key) and leaves the flight table clean before the panic
// propagates to the leader's own recovery boundary — no future caller
// of the key can block on a dead flight.
func (t *tier[V]) do(ctx context.Context, k SourceKey, compute func() (V, error)) (v V, owned bool, err error) {
	// Counter discipline (see Cache.Counters): the fast path must not
	// count a miss yet — this caller may still be served without
	// computing, as a flight waiter or by the post-flight re-check. Only
	// the three terminal outcomes count: served from the tier (hit),
	// served by another caller's execution (shared), or computed here
	// (miss).
	if hit, ok := t.get(k); ok {
		return hit, false, nil
	}
	t.flightMu.Lock()
	if call, ok := t.flights[k]; ok {
		t.flightMu.Unlock()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-call.done:
			t.shared.Add(1)
			return call.val, false, call.err
		case <-done:
			return v, false, ctx.Err()
		}
	}
	// No flight in progress: re-check the tier before becoming the
	// leader. A previous leader may have completed inside the window
	// between this caller's fast-path miss and the flight-lock
	// acquisition; since completion publishes to the tier before
	// removing the flight entry, an absent flight guarantees a finished
	// compute is already visible here — without this re-check a fast
	// solve (the network path) races duplicate executions into being.
	if hit, ok := t.get(k); ok {
		t.flightMu.Unlock()
		return hit, false, nil
	}
	call := &flight[V]{done: make(chan struct{})}
	t.flights[k] = call
	t.flightMu.Unlock()

	t.computes.Add(1)
	completed := false
	defer func() {
		if !completed {
			// compute panicked: record it for the waiters; the panic
			// itself keeps unwinding past this defer to the leader's
			// per-slot recover.
			// The message slices a copy: slicing k itself would move k
			// to the heap on every call, hits included.
			var zero V
			head := k
			call.val, call.err = zero, fmt.Errorf("align: compute panicked for cache key %x…", head[:6])
		}
		if call.err == nil {
			t.put(k, call.val)
		}
		t.flightMu.Lock()
		delete(t.flights, k)
		t.flightMu.Unlock()
		close(call.done)
	}()
	call.val, call.err = compute()
	completed = true
	return call.val, true, call.err
}

// keyWriter is the pooled incremental hasher behind both tiers' keys:
// serialization bytes are appended to a reusable buffer with strconv
// (no fmt boxing) and fed to the SHA-256 block function whenever the
// buffer fills, so keying a graph hashes while it walks instead of
// materializing the canonical byte slice, and keying a source reuses
// the pooled token buffer. A key computation allocates nothing in
// steady state.
type keyWriter struct {
	h    hash.Hash
	buf  []byte
	toks []lang.Token // SourceKeyOf's lexer buffer
	sum  SourceKey    // digest scratch (keeps the key off the heap)
}

var keyWriterPool = sync.Pool{
	New: func() any {
		return &keyWriter{h: sha256.New(), buf: make([]byte, 0, 2048)}
	},
}

// newKeyWriter returns a reset pooled writer; release it with
// keyWriterPool.Put once the key is taken.
func newKeyWriter() *keyWriter {
	w := keyWriterPool.Get().(*keyWriter)
	w.h.Reset()
	w.buf = w.buf[:0]
	return w
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

// key finishes the hash into a key; the writer is spent afterwards.
func (w *keyWriter) key() SourceKey {
	w.h.Write(w.buf)
	w.h.Sum(w.sum[:0])
	return w.sum
}

// options writes the fingerprint of the result-affecting options, the
// one option list both keys share. Values are hashed after defaulting
// (OffsetOptions.withDefaults, AxisStrideOptions.withDefaults, and the
// ReplicationRounds default AlignContext applies), so settings that
// solve identically — Subranges 0 and 3, Restarts 0 and 2, Restarts -1
// and -7 — share entries.
//
// Parallelism is excluded on purpose (the computed alignment is
// identical at every worker count — TestOffsetEngineDeterminism pins
// this per engine mode), and so is MaxLPIter (a budget: it decides
// whether a solve fails, never which answer it returns). The LP engine
// toggles ARE keyed: the network fast path must match the engine it
// replaces byte for byte (same test), but a degenerate RLP can have
// many optimal vertices and the dense and sparse simplex cores may
// legitimately round different ones (equal approximate objective,
// different alignments), so runs under different forced engines must
// not share cache entries. Presolve is keyed for the same reason: the
// block-split solve and the whole-problem solve agree on the objective,
// but the per-block engines may round a different optimal vertex than
// the monolithic simplex.
func (w *keyWriter) options(opts Options) {
	off := opts.Offset.withDefaults()
	rounds := opts.ReplicationRounds
	if rounds <= 0 {
		rounds = 2
	}
	w.buf = append(w.buf, "o|"...)
	w.int(int64(off.Strategy))
	w.int(int64(off.M))
	w.int(int64(off.MaxRefine))
	w.int(int64(off.UnrollCap))
	w.boolean(off.Static)
	w.boolean(opts.Replication)
	w.int(int64(rounds))
	w.int(int64(opts.AxisStride.withDefaults().Restarts))
	w.int(int64(off.Engine))
	w.boolean(off.NoNetPath)
	w.int(int64(off.Presolve))
}

// cacheKey derives the content address of one alignment problem: a
// SHA-256 over a canonical serialization of the graph (template rank;
// every node's kind, label, and kind-specific payload; every port's
// rank, extents, and iteration space; every edge's endpoints and control
// weight) and of the result-affecting options. Node, port, and edge IDs
// are dense construction-order indices, so structurally identical graphs
// serialize identically.
func cacheKey(g *adg.Graph, opts Options) SourceKey {
	w := newKeyWriter()
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
	w.options(opts)
	key := w.key()
	keyWriterPool.Put(w)
	return key
}
