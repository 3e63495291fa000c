package gridmon

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// startOver makes t's next store of a non-empty entry start it over.
func startOver[K comparable, V any](t *boundedMap[K, V]) {
	t.mu.Lock()
	t.bytes = t.maxBytes
	t.mu.Unlock()
}

// checkBounded fails unless t is within its bounds and counts exactly
// what its entries count.
func checkBounded[K comparable, V any](t *testing.T, m *boundedMap[K, V]) {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	held := 0
	for k, v := range m.m {
		held += m.size(k, v)
	}
	if len(m.m) > m.maxEntries || m.bytes > m.maxBytes || held != m.bytes {
		t.Fatalf("the map holds %d entries of %d bytes (counted %d); bounds %d and %d",
			len(m.m), held, m.bytes, m.maxEntries, m.maxBytes)
	}
}

// TestBoundedMapBounds: ten times more stores than the map has room for,
// of values up to the largest it keeps, leave it within both bounds,
// each store held until the next start-over; a value over the largest
// is never kept and empties nothing; a store to a held key replaces it.
func TestBoundedMapBounds(t *testing.T) {
	m := newBoundedMap(16, 256, 64, func(_ string, v string) int { return len(v) })
	starts := 0
	for i := 0; i < 10*16; i++ {
		k := fmt.Sprint(i)
		before := len(m.m)
		m.put(k, strings.Repeat("v", 1+i%64))
		if len(m.m) <= before {
			starts++
		}
		if v, ok := m.get(k); !ok || len(v) != 1+i%64 {
			t.Fatalf("store %d is not held: %q, %v", i, v, ok)
		}
		checkBounded(t, &m)
	}
	if starts < 10 {
		t.Fatalf("the map started over %d times in ten times its bounds", starts)
	}

	held := len(m.m)
	m.put("huge", strings.Repeat("v", 65))
	if _, ok := m.get("huge"); ok || len(m.m) != held {
		t.Fatalf("a value over the largest was kept (%v), or emptied the map (%d entries, had %d)", ok, len(m.m), held)
	}

	m.put("k", "longer")
	m.put("k", "v")
	if v, _ := m.get("k"); v != "v" {
		t.Fatalf("a replaced key reads %q", v)
	}
	checkBounded(t, &m)
}

// TestBoundedMapStartOverKeepsBuckets: a start-over clears the map and
// keeps its buckets, so storing a working set larger than the map,
// round after round, allocates nothing, and neither does a hit through
// a key's bytes.
func TestBoundedMapStartOverKeepsBuckets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := newBoundedMap(100, 1<<20, 64, keyLen[string])
	keys := make([]string, 250)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%d", i)
		m.put(keys[i], keys[i])
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, k := range keys {
			m.put(k, k)
		}
	}); n != 0 {
		t.Errorf("a round of %d stores over a %d-entry map costs %.0f allocs, want 0", len(keys), 100, n)
	}
	b := []byte(keys[len(keys)-1])
	if n := testing.AllocsPerRun(100, func() { _ = intern(&m, b) }); n != 0 {
		t.Errorf("a hit through a key's bytes costs %.0f allocs, want 0", n)
	}
}

// TestBoundedMapConcurrent: goroutines get, put and overflow one map;
// every hit is the value stored under its key, and the map ends within
// its bounds. make stress runs it under the race detector.
func TestBoundedMapConcurrent(t *testing.T) {
	const workers, rounds = 8, 2000
	m := newBoundedMap(64, 2048, 64, keyLen[string])
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("%d%s", (r*workers+w)%300, strings.Repeat("k", r%40))
				if got := intern(&m, []byte(k)); got != k {
					t.Errorf("interned %q as %q", k, got)
					return
				}
				if v, ok := m.get(k); ok && v != k {
					t.Errorf("%q holds %q", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkBounded(t, &m)
}

// TestQueryCacheStaysBounded: ten times more distinct cacheable queries
// than the cache has entries leave it within its entry and byte bounds,
// and every answer, a miss, a hit or one asked again after the cache
// started over, is what an uncached grid answers.
func TestQueryCacheStaysBounded(t *testing.T) {
	ctx := context.Background()
	cached, plain := newTestGrid(t, WithQueryCache(time.Hour)), newTestGrid(t)
	queries := make([]Query, 10*maxCacheEntries)
	wants := make([]string, len(queries))
	for i := range queries {
		queries[i] = Query{System: Hawkeye, Role: RoleAggregateServer,
			Expr: fmt.Sprintf("TARGET.CpuLoad >= %d || %d < 0", i%100, i)}
		if i%2 == 1 {
			queries[i] = Query{System: MDS, Role: RoleAggregateServer,
				Expr: fmt.Sprintf("(|(objectclass=MdsCpu)(cn=%d))", i), Attrs: []string{"Mds-Cpu-Free-1minX100"}}
		}
		rs, err := plain.Query(ctx, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = recordsJSON(t, rs.Records)
	}
	ask := func(i int) {
		t.Helper()
		rs, err := cached.Query(ctx, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := recordsJSON(t, rs.Records); got != wants[i] {
			t.Fatalf("query %d (%+v) answered %s, uncached %s", i, rs.Work, got, wants[i])
		}
	}
	starts, peak := 0, 0
	for i := range queries {
		before := len(cached.cache.entries.m)
		ask(i)
		if len(cached.cache.entries.m) <= before {
			starts++
		}
		ask(i)     // a hit
		ask(i / 2) // a hit, or a miss once the cache has started over
		checkBounded(t, &cached.cache.entries)
		peak = max(peak, cached.cache.entries.bytes)
	}
	if starts == 0 {
		t.Fatal("the cache never started over")
	}
	if st := cached.Stats(); st.CacheHits < int64(len(queries)) {
		t.Fatalf("%d hits in %d queries asked twice in a row", st.CacheHits, len(queries))
	}
	t.Logf("the cache started over %d times, holding at most %d bytes", starts, peak)
}
