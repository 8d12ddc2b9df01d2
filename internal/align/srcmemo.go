package align

import (
	"context"
	"crypto/sha256"

	"repro/internal/lang"
)

// This file is the source-keyed memo tier that sits in front of the
// whole pipeline: Cache's second tier, mapping the normalized source
// bytes of a program — its token stream, which canonicalizes comments,
// whitespace, letter case, and newline runs away — plus the
// result-affecting options to the completed front-end result. A hit
// skips lex, parse, sema, ADG construction, canonical serialization,
// and the pipeline-cache SHA-256 entirely; a miss falls through to the
// normal pipeline (populating both tiers on the way out) with the same
// singleflight semantics the pipeline tier has — both are instances of
// tier.
//
// Values are stored as `any` so the tier can hold the driver-level
// result type (repro.Result) without an import cycle; the tier never
// inspects the value.

// SourceKey is the content address of a cache entry in either tier: a
// SHA-256 over a canonical serialization (the ADG for the pipeline
// tier, the token stream for the source tier) and the option
// fingerprint. The fixed-size array form keeps lookups allocation-free.
type SourceKey [sha256.Size]byte

// SourceCounters returns the source tier's cumulative lookup counts,
// with the same discipline as Counters/FlightStats for the pipeline
// tier: every completed SourceGet-miss-then-SourceDo sequence (or
// SourceGet hit) lands in exactly one of hits, shared, or misses, and
// misses == computes.
func (c *Cache) SourceCounters() (hits, misses, shared, computes int64) {
	computes = c.src.computes.Load()
	return c.src.hits.Load(), computes, c.src.shared.Load(), computes
}

// SourceGet returns the memoized value for k, marking it most recently
// used and counting a hit. A miss is not counted — the caller is
// expected to continue into SourceDo, which counts the lookup's
// terminal outcome. The hit path performs no allocation.
func (c *Cache) SourceGet(k SourceKey) (any, bool) { return c.src.get(k) }

// SourceLen returns the number of memoized source entries.
func (c *Cache) SourceLen() int { return c.src.len() }

// SourceDo returns the memoized value for k, computing it at most once
// across concurrent callers (tier.do). owned reports that compute ran
// in this call; when false the value was served by the memo or by
// another caller's in-flight computation (a memo hit from the caller's
// point of view). Errors are not memoized.
func (c *Cache) SourceDo(ctx context.Context, k SourceKey, compute func() (any, error)) (v any, owned bool, err error) {
	return c.src.do(ctx, k, compute)
}

// SourceKeyOf computes the memo key of (src, opts): a SHA-256 over the
// token stream — the normalization — and the option fingerprint
// cacheKey also writes (keyWriter.options). ok is false when src does
// not lex; the caller then falls through to the full front end, which
// reports the error with its position.
func SourceKeyOf(src string, opts Options) (k SourceKey, ok bool) {
	w := newKeyWriter()
	defer keyWriterPool.Put(w)
	toks, err := lang.LexInto(src, w.toks[:0])
	w.toks = toks
	if err != nil {
		return k, false
	}
	w.buf = append(w.buf, "sm1|"...)
	for _, t := range toks {
		w.buf = append(w.buf, byte(t.Kind))
		w.buf = append(w.buf, t.Text...)
		w.buf = append(w.buf, 0)
		w.flushIfFull()
	}
	w.options(opts)
	return w.key(), true
}
