package gridmon

import "sync"

// boundedMap is the one rule behind the root package's recall tables
// (exprMemo, requests, queryCache, answerRecords). Its owner gives it an
// entry bound, a byte bound, the largest entry it keeps and what an
// entry counts. An entry over the largest is never kept. A store that
// would take the map past either bound first empties it with clear,
// which keeps its buckets, so a working set larger than the map costs a
// miss per use and no regrowth. A store to a held key replaces it.
// Lookups take the read lock and stores the write lock, a leaf.
type boundedMap[K comparable, V any] struct {
	maxEntries, maxBytes, maxValue int
	size                           func(K, V) int

	mu    sync.RWMutex
	m     map[K]V // guarded by mu
	bytes int     // what m's entries count; guarded by mu
}

func newBoundedMap[K comparable, V any](maxEntries, maxBytes, maxValue int, size func(K, V) int) boundedMap[K, V] {
	return boundedMap[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, maxValue: maxValue, size: size}
}

// keyLen counts an entry as the bytes of its key.
func keyLen[V any](k string, _ V) int { return len(k) }

// get returns the value t holds under k.
func (t *boundedMap[K, V]) get(k K) (V, bool) {
	t.mu.RLock()
	v, ok := t.m[k]
	t.mu.RUnlock()
	return v, ok
}

// put stores v under k by the rule above.
func (t *boundedMap[K, V]) put(k K, v V) {
	size := t.size(k, v)
	if size > t.maxValue {
		return
	}
	t.mu.Lock()
	if old, ok := t.m[k]; ok {
		t.bytes -= t.size(k, old)
		delete(t.m, k)
	}
	t.room(1, size)
	t.m[k] = v
	t.mu.Unlock()
}

// room readies t, by the rule above, for a store of up to n entries that
// count size together, and counts them; only a start-over takes back
// what such a store counted. Callers hold mu.
func (t *boundedMap[K, V]) room(n, size int) {
	if t.m == nil {
		t.m = make(map[K]V)
	} else if len(t.m)+n > t.maxEntries || t.bytes+size > t.maxBytes {
		clear(t.m)
		t.bytes = 0
	}
	t.bytes += size
}

// lookup is get for the string key b spells; it copies nothing.
func lookup[V any](t *boundedMap[string, V], b []byte) (V, bool) {
	t.mu.RLock()
	v, ok := t.m[string(b)]
	t.mu.RUnlock()
	return v, ok
}

// intern returns string(b): t's copy when it holds one, else a new copy,
// which t keeps.
func intern(t *boundedMap[string, string], b []byte) string {
	if s, ok := lookup(t, b); ok {
		return s
	}
	s := string(b)
	t.put(s, s)
	return s
}
