package gridmon

import (
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// The facade's opt-in result cache, modeled on the paper's GIIS cache:
// the single biggest performance lever its experiments found (>10x
// information-server throughput with data in cache, Figures 5–6). A hit
// serves the answer of an earlier identical query without
// touching any engine; entries live for the configured TTL and are
// invalidated wholesale whenever the grid's state advances (Advance or
// Advertise), so a cached answer is never older than both the TTL and
// the last monitoring round.

// cacheKey identifies one cacheable query: the full request shape, with
// Attrs joined order-sensitively (projections with different orders are
// different requests to the engines) and counted, so that no attrs (keep
// every field) and one empty name (keep none) are different keys. The
// join is undone by the count only while no name holds the separator:
// see cacheable. The role is the caller's normalized one, so an empty
// Role and an explicit information-server Role — identical requests to
// the engines — share an entry. A served list's join is its table's.
type cacheKey struct {
	system System
	role   Role
	host   string
	expr   string
	attrs  string
	nattrs int
}

func keyFor(q Query, role Role) cacheKey {
	return cacheKey{
		system: q.System,
		role:   role,
		host:   q.Host,
		expr:   q.Expr,
		attrs:  requests.joined(q.Attrs),
		nattrs: len(q.Attrs),
	}
}

// cacheable reports whether q's key identifies it alone: an attribute
// name holding a NUL would join to the key of two names, so such a query
// bypasses the cache.
func cacheable(q Query) bool {
	for _, a := range q.Attrs {
		if strings.IndexByte(a, 0) >= 0 {
			return false
		}
	}
	return true
}

// cacheEntry is one cached answer: the record section it was rendered
// as, an exact-size copy the entry owns, which a hit appends to its reply
// as it is.
type cacheEntry struct {
	gen     uint64
	expires time.Time
	answer  core.Answer
	work    Work
}

// queryCache is the facade's TTL result cache. Invalidation bumps a
// generation counter instead of clearing the map, so it is O(1) under
// the facade's write lock; a stale entry never answers and is replaced
// by the next store on its key. It keeps at most maxCacheEntries answers
// and maxCacheBytes of record sections (boundedMap).
type queryCache struct {
	ttl     time.Duration
	gen     atomic.Uint64
	entries boundedMap[cacheKey, *cacheEntry]
}

// The cache's bounds: a long-lived server seeing many distinct query
// shapes (per-client filters, rotating hosts) must not retain an answer
// per shape forever.
const (
	maxCacheEntries = 1024
	maxCacheBytes   = 64 << 20
)

func newQueryCache(ttl time.Duration) *queryCache {
	return &queryCache{ttl: ttl, entries: newBoundedMap(maxCacheEntries, maxCacheBytes, maxCacheBytes,
		func(_ cacheKey, e *cacheEntry) int { return len(e.answer.Enc) })}
}

// lookup returns the live cached answer for key, if any. An entry
// answers a lookup only if the lookup's start, now, is strictly after
// the start of the query that stored it (expires − ttl) and not after
// expires: a query that began before or with the one that computed an
// answer never reads that answer, however the two interleave.
func (c *queryCache) lookup(key cacheKey, now time.Time) (*cacheEntry, bool) {
	e, _ := c.entries.get(key)
	if e == nil || e.gen != c.gen.Load() || now.After(e.expires) || !now.After(e.expires.Add(-c.ttl)) {
		return nil, false
	}
	return e, true
}

// store caches an answer computed while generation gen was current (the
// caller reads gen under the facade's read lock, so a concurrent
// Advance cannot slip between the engine query and the stamp — an entry
// stored after an invalidation carries the old gen and is dead on
// arrival rather than serving pre-Advance data as fresh). It returns the
// entry.
func (c *queryCache) store(key cacheKey, gen uint64, now time.Time, answer core.Answer, work Work) *cacheEntry {
	e := &cacheEntry{
		gen:     gen,
		expires: now.Add(c.ttl),
		answer:  answer,
		work:    work,
	}
	c.entries.put(key, e)
	return e
}

// invalidate drops every cached answer (generation bump; O(1)).
func (c *queryCache) invalidate() {
	c.gen.Add(1)
}
