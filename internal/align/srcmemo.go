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

	"repro/internal/lang"
)

// This file implements the source-keyed memo tier that sits in front of
// the whole pipeline: a sharded LRU mapping the normalized source bytes
// of a program — its token stream, which canonicalizes comments,
// whitespace, letter case, and newline runs away — plus the
// result-affecting options to the completed front-end result. A hit
// skips lex, parse, sema, ADG construction, canonical serialization,
// and the pipeline-cache SHA-256 entirely; a miss falls through to the
// normal pipeline (populating both tiers on the way out) with the same
// singleflight semantics Cache.do gives the pipeline tier.
//
// Values are stored as `any` so the tier can hold the driver-level
// result type (repro.Result) without an import cycle; the tier never
// inspects the value.

// SourceKey is the content address of one (normalized source, options)
// pair: a SHA-256 over the token stream and the option fingerprint.
// The fixed-size array form keeps lookups allocation-free.
type SourceKey [sha256.Size]byte

// srcShard is one independently locked LRU of the source tier.
type srcShard struct {
	mu      sync.Mutex
	order   *list.List
	entries map[SourceKey]*list.Element
}

type srcEntry struct {
	key SourceKey
	val any
}

// srcFlight is one in-flight front-end computation (see flightCall).
type srcFlight struct {
	done chan struct{}
	val  any
	err  error
}

// srcState is the source tier's state embedded in Cache.
type srcState struct {
	shards [cacheShards]srcShard
	size   atomic.Int64

	hits     atomic.Int64
	misses   atomic.Int64
	shared   atomic.Int64
	computes atomic.Int64

	flightMu sync.Mutex
	flights  map[SourceKey]*srcFlight
}

func (c *Cache) initSource() {
	for i := 0; i < c.nshards; i++ {
		c.src.shards[i].order = list.New()
		c.src.shards[i].entries = make(map[SourceKey]*list.Element)
	}
}

func (c *Cache) srcShardFor(k SourceKey) *srcShard {
	return &c.src.shards[int(k[0])%c.nshards]
}

// SourceCounters returns the source tier's cumulative lookup counts,
// with the same discipline as Counters/FlightStats for the pipeline
// tier: every completed SourceGet-miss-then-SourceDo sequence (or
// SourceGet hit) lands in exactly one of hits, shared, or misses, and
// misses == computes.
func (c *Cache) SourceCounters() (hits, misses, shared, computes int64) {
	return c.src.hits.Load(), c.src.misses.Load(), c.src.shared.Load(), c.src.computes.Load()
}

// SourceGet returns the memoized value for k, marking it most recently
// used and counting a hit. A miss is not counted — the caller is
// expected to continue into SourceDo, which counts the lookup's
// terminal outcome. The hit path performs no allocation.
func (c *Cache) SourceGet(k SourceKey) (any, bool) {
	s := c.srcShardFor(k)
	s.lock(c)
	el, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.order.MoveToFront(el)
	v := el.Value.(*srcEntry).val
	s.mu.Unlock()
	c.src.hits.Add(1)
	return v, true
}

// lock mirrors cacheShard.lock, counting waits in the shared
// contention counter.
func (s *srcShard) lock(c *Cache) {
	if !s.mu.TryLock() {
		c.contended.Add(1)
		s.mu.Lock()
	}
}

// srcPeek is SourceGet without counters.
func (c *Cache) srcPeek(k SourceKey) (any, bool) {
	s := c.srcShardFor(k)
	s.lock(c)
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*srcEntry).val, true
	}
	return nil, false
}

// srcPut stores v under k with the same strict global capacity bound as
// the pipeline tier's put: evict locally when the inserting shard has an
// older entry, otherwise steal the LRU of another non-empty shard. The
// source tier has its own entry budget (equal to the cache capacity) so
// memo entries never evict pipeline entries or vice versa.
func (c *Cache) srcPut(k SourceKey, v any) {
	s := c.srcShardFor(k)
	s.lock(c)
	if el, ok := s.entries[k]; ok {
		el.Value.(*srcEntry).val = v
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[k] = s.order.PushFront(&srcEntry{key: k, val: v})
	if s.order.Len() > 1 && int(c.src.size.Load()) >= c.capacity {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.entries, back.Value.(*srcEntry).key)
		s.mu.Unlock()
		return
	}
	n := c.src.size.Add(1)
	s.mu.Unlock()
	if int(n) <= c.capacity {
		return
	}
	for {
		for i := 0; i < c.nshards; i++ {
			v := &c.src.shards[i]
			if !v.mu.TryLock() {
				continue
			}
			if v.order.Len() > 1 || (v.order.Len() == 1 && v != s) {
				back := v.order.Back()
				v.order.Remove(back)
				delete(v.entries, back.Value.(*srcEntry).key)
				c.src.size.Add(-1)
				v.mu.Unlock()
				return
			}
			v.mu.Unlock()
		}
		runtime.Gosched()
	}
}

// SourceLen returns the number of memoized source entries.
func (c *Cache) SourceLen() int {
	n := 0
	for i := 0; i < c.nshards; i++ {
		s := &c.src.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// SourceDo returns the memoized value for k, computing it at most once
// across concurrent callers — the source-tier twin of Cache.do. owned
// reports that compute ran in this call; when false the value was
// served by the memo or by another caller's in-flight computation (a
// memo hit from the caller's point of view). Errors are not memoized.
func (c *Cache) SourceDo(ctx context.Context, k SourceKey, compute func() (any, error)) (v any, owned bool, err error) {
	if hit, ok := c.srcPeek(k); ok {
		c.src.hits.Add(1)
		return hit, false, nil
	}
	c.src.flightMu.Lock()
	if c.src.flights == nil {
		c.src.flights = make(map[SourceKey]*srcFlight)
	}
	if call, ok := c.src.flights[k]; ok {
		c.src.flightMu.Unlock()
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-call.done:
			c.src.shared.Add(1)
			return call.val, false, call.err
		case <-done:
			return nil, false, ctx.Err()
		}
	}
	// Re-check before leading: completion publishes to the memo before
	// removing the flight, so an absent flight guarantees a finished
	// computation is already visible (see the same window in do).
	if hit, ok := c.srcPeek(k); ok {
		c.src.flightMu.Unlock()
		c.src.hits.Add(1)
		return hit, false, nil
	}
	call := &srcFlight{done: make(chan struct{})}
	c.src.flights[k] = call
	c.src.flightMu.Unlock()

	c.src.misses.Add(1)
	c.src.computes.Add(1)
	completed := false
	defer func() {
		if !completed {
			call.val, call.err = nil, fmt.Errorf("align: front end panicked for source key %x…", k[:6])
		}
		if call.err == nil {
			c.srcPut(k, call.val)
		}
		c.src.flightMu.Lock()
		delete(c.src.flights, k)
		c.src.flightMu.Unlock()
		close(call.done)
	}()
	call.val, call.err = compute()
	completed = true
	return call.val, true, call.err
}

// srcKeyState is the pooled scratch of a source-key computation: a
// reusable token buffer, an append buffer, and a long-lived SHA-256
// state, so keying a repeat source allocates nothing in steady state.
type srcKeyState struct {
	h    hash.Hash
	toks []lang.Token
	buf  []byte
}

var srcKeyPool = sync.Pool{
	New: func() any {
		return &srcKeyState{h: sha256.New(), buf: make([]byte, 0, 2048)}
	},
}

// SourceKeyOf computes the memo key of (src, opts): a SHA-256 over the
// token stream — the normalization — and the same result-affecting
// option fields cacheKey fingerprints (with ReplicationRounds defaulted
// exactly as AlignContext defaults it, so explicit-2 and unset share a
// key). ok is false when src does not lex; the caller then falls
// through to the full front end, which reports the error with its
// position.
func SourceKeyOf(src string, opts Options) (k SourceKey, ok bool) {
	st := srcKeyPool.Get().(*srcKeyState)
	toks, err := lang.LexInto(src, st.toks[:0])
	st.toks = toks
	if err != nil {
		srcKeyPool.Put(st)
		return k, false
	}
	st.h.Reset()
	b := append(st.buf[:0], "sm1|"...)
	for _, t := range toks {
		b = append(b, byte(t.Kind))
		b = append(b, t.Text...)
		b = append(b, 0)
		if len(b) >= cap(b)-64 {
			st.h.Write(b)
			b = b[:0]
		}
	}
	rounds := opts.ReplicationRounds
	if rounds <= 0 {
		rounds = 2
	}
	b = append(b, "o|"...)
	b = strconv.AppendInt(b, int64(opts.Offset.Strategy), 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(opts.Offset.M), 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(opts.Offset.MaxRefine), 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(opts.Offset.UnrollCap), 10)
	b = append(b, ';')
	b = appendBool(b, opts.Offset.Static)
	b = appendBool(b, opts.Replication)
	b = strconv.AppendInt(b, int64(rounds), 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(opts.AxisStride.Restarts), 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(opts.Offset.Engine), 10)
	b = append(b, ';')
	b = appendBool(b, opts.Offset.NoNetPath)
	b = appendBool(b, opts.Partition)
	b = strconv.AppendInt(b, int64(opts.Offset.Presolve), 10)
	b = append(b, ';')
	st.h.Write(b)
	st.buf = b[:0]
	st.h.Sum(k[:0])
	srcKeyPool.Put(st)
	return k, true
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "1;"...)
	}
	return append(b, "0;"...)
}
