package gridmon

import (
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

// This file is the -race gate for the concurrent serving layer: queries
// across all three systems run in parallel with each other and with the
// Advance pump, and every result must be byte-identical to an answer a
// fully serialized grid produces. A torn read — half a result from one
// monitoring round, half from another, or a half-refreshed producer —
// would yield a record set no serialized execution can produce, so the
// snapshot-set membership check below catches it without any knowledge
// of lock internals.

// atomicClock is a settable grid clock safe to step from the pump while
// queries read it.
type atomicClock struct{ bits atomic.Uint64 }

func (c *atomicClock) Set(t float64)      { c.bits.Store(math.Float64bits(t)) }
func (c *atomicClock) Now() float64       { return math.Float64frombits(c.bits.Load()) }
func (c *atomicClock) Fn() func() float64 { return c.Now }

// stressQueries is the read-only query mix the stress tests and the
// parallel benchmark share: every system, both per-host and aggregate
// shapes, indexed and scanning expressions. The projected MDS shapes
// decode the GRIS's and GIIS's stored entries after the lock is
// released, and the Hawkeye constraint with a real literal parses while
// the pump advances the pool.
func stressQueries() []Query {
	return []Query{
		{System: MDS, Host: "lucky3", Expr: "(objectclass=MdsCpu)"},
		{System: MDS, Host: "lucky4", Expr: "(objectclass=MdsCpu)", Attrs: []string{"Mds-Cpu-Free-1minX100", "MDS-CPU-FREE-5MINX100"}},
		{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsHost)"},
		{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)", Attrs: []string{"mds-cpu-free-1minx100", "Mds-Host-hn"}},
		{System: MDS, Role: RoleDirectoryServer},
		{System: RGMA, Host: "lucky4"},
		{System: RGMA, Expr: "SELECT host, metric, value FROM siteinfo WHERE value >= 50"},
		{System: RGMA, Role: RoleDirectoryServer},
		{System: RGMA, Role: RoleAggregateServer},
		{System: Hawkeye, Host: "lucky3"},
		{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.CpuLoad >= 0"},
		{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.MemFreeMB >= 100.5 && TARGET.CpuLoad < 90.25"},
	}
}

func recordsJSON(t testing.TB, recs []Record) string {
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newStressGrid(t testing.TB, clock func() float64, opts ...Option) *Grid {
	t.Helper()
	all := append([]Option{
		WithHosts("lucky3", "lucky4", "lucky7"),
		WithClock(clock),
	}, opts...)
	g, err := New(all...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// oracleSnapshots runs the whole monitoring timeline 0..rounds on a
// fully serialized grid and records, per query shape, every answer any
// instant can produce. A concurrent grid's answers must all be members.
func oracleSnapshots(t *testing.T, rounds int, opts ...Option) []map[string]bool {
	queries := stressQueries()
	var now float64
	oracle := newStressGrid(t, func() float64 { return now }, opts...)
	valid := make([]map[string]bool, len(queries))
	for i := range valid {
		valid[i] = make(map[string]bool)
	}
	ctx := context.Background()
	for r := 0; r <= rounds; r++ {
		now = float64(r)
		if r > 0 {
			if err := oracle.Advance(now); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range queries {
			rs, err := oracle.Query(ctx, q)
			if err != nil {
				t.Fatalf("oracle query %d at t=%v: %v", i, now, err)
			}
			valid[i][recordsJSON(t, rs.Records)] = true
		}
	}
	return valid
}

// TestConcurrentQueryWithAdvanceOracle mixes concurrent queries over all
// three systems with a concurrent Advance pump and asserts every result
// is one a serialized execution produces (no torn reads). Run it with
// -race: it is the stress gate for the read-locked facade and the
// engines' double-checked read paths.
func TestConcurrentQueryWithAdvanceOracle(t *testing.T) {
	testConcurrentOracle(t)
}

// TestConcurrentCachedQueryWithAdvanceOracle is the same gate with the
// GIIS-style query cache enabled: hits must also only ever serve answers
// a serialized execution produces (invalidation on Advance included).
func TestConcurrentCachedQueryWithAdvanceOracle(t *testing.T) {
	testConcurrentOracle(t, WithQueryCache(time.Minute))
}

func testConcurrentOracle(t *testing.T, opts ...Option) {
	const rounds = 25
	const workers = 8
	const perWorker = 40
	valid := oracleSnapshots(t, rounds, opts...)
	queries := stressQueries()

	var clock atomicClock
	grid := newStressGrid(t, clock.Fn(), opts...)
	ctx := context.Background()
	var wg sync.WaitGroup
	type bad struct {
		qi  int
		got string
	}
	var mu sync.Mutex
	var failures []bad
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(i+w)%len(queries)]
				rs, err := grid.Query(ctx, q)
				if err != nil {
					t.Errorf("worker %d query %+v: %v", w, q, err)
					return
				}
				got := recordsJSON(t, rs.Records)
				if !valid[(i+w)%len(queries)][got] {
					mu.Lock()
					failures = append(failures, bad{qi: (i + w) % len(queries), got: got})
					mu.Unlock()
					return
				}
			}
		}()
	}
	// The pump: one monitoring round per instant, concurrent with the
	// readers above. It keeps pumping (the clock clamps to the oracle's
	// last round) until every worker finished, so single-core schedulers
	// still interleave writes with the reads.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	r := 0
	for pumping := true; pumping; {
		select {
		case <-done:
			pumping = false
		default:
			if r < rounds {
				r++
			}
			clock.Set(float64(r))
			if err := grid.Advance(float64(r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range failures {
		t.Errorf("query %d returned a record set no serialized execution produces:\n%.200s...",
			f.qi, f.got)
	}
}

// TestConcurrentQueryBitIdenticalToSerial pins the parallel read path to
// the serialized baseline exactly: with no writes in flight, each query
// answered concurrently must be byte-identical to the same query
// answered serially.
func TestConcurrentQueryBitIdenticalToSerial(t *testing.T) {
	queries := stressQueries()
	var clock atomicClock
	clock.Set(5)
	grid := newStressGrid(t, clock.Fn())
	ctx := context.Background()

	// Serialized baseline.
	want := make([]string, len(queries))
	for i, q := range queries {
		rs, err := grid.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = recordsJSON(t, rs.Records)
	}

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qi := (i + w) % len(queries)
				rs, err := grid.Query(ctx, queries[qi])
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got := recordsJSON(t, rs.Records); got != want[qi] {
					t.Errorf("worker %d query %d: concurrent result differs from serialized baseline", w, qi)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestQueryCacheSemantics exercises the GIIS-style result cache: a miss
// then hits with identical records, per-query Work counters, stats
// accounting, TTL honoring the grid's wall clock, and wholesale
// invalidation on Advance and Advertise.
func TestQueryCacheSemantics(t *testing.T) {
	var clock atomicClock
	grid := newStressGrid(t, clock.Fn(), WithQueryCache(time.Minute))
	ctx := context.Background()
	q := Query{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)"}

	first, err := grid.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Work.CacheMisses != 1 || first.Work.CacheHits != 0 {
		t.Fatalf("first query: want CacheMisses=1 CacheHits=0, got %+v", first.Work)
	}
	if first.Work.RecordsVisited == 0 {
		t.Fatalf("first query should have done engine work, got %+v", first.Work)
	}

	second, err := grid.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if second.Work.CacheHits != 1 || second.Work.CacheMisses != 0 {
		t.Fatalf("second query: want CacheHits=1 CacheMisses=0, got %+v", second.Work)
	}
	if second.Work.RecordsVisited != 0 || second.Work.CollectorInvocations != 0 {
		t.Fatalf("cache hit must report no engine work, got %+v", second.Work)
	}
	if recordsJSON(t, second.Records) != recordsJSON(t, first.Records) {
		t.Fatal("cache hit returned different records")
	}
	if second.Work.RecordsReturned != first.Work.RecordsReturned ||
		second.Work.ResponseBytes != first.Work.ResponseBytes {
		t.Fatalf("cache hit response accounting differs: %+v vs %+v", second.Work, first.Work)
	}

	// Advance invalidates: the next identical query misses again.
	clock.Set(1)
	if err := grid.Advance(1); err != nil {
		t.Fatal(err)
	}
	third, err := grid.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if third.Work.CacheMisses != 1 {
		t.Fatalf("post-Advance query: want a miss, got %+v", third.Work)
	}

	// Advertise invalidates too (this re-read is a hit first, proving the
	// post-Advance store took).
	if _, err := grid.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := grid.Advertise(1); err != nil {
		t.Fatal(err)
	}
	fourth, err := grid.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Work.CacheMisses != 1 {
		t.Fatalf("post-Advertise query: want a miss, got %+v", fourth.Work)
	}

	// A different projection is a different cache key.
	projected, err := grid.Query(ctx, Query{System: MDS, Role: RoleAggregateServer,
		Expr: "(objectclass=MdsCpu)", Attrs: []string{"Mds-Cpu-Free-1minX100"}})
	if err != nil {
		t.Fatal(err)
	}
	if projected.Work.CacheMisses != 1 {
		t.Fatalf("projected query must not hit the unprojected entry, got %+v", projected.Work)
	}

	if st := grid.Stats(); st.CacheHits != 2 || st.CacheMisses != 4 {
		t.Fatalf("Stats: want CacheHits=2 CacheMisses=4, got %+v", st)
	}

	// Without the option there is no cache, so nothing is counted.
	plain := newStressGrid(t, clock.Fn())
	if _, err := plain.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if st := plain.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("Stats without WithQueryCache: want no cache counts, got %+v", st)
	}
}

// TestQueryCacheRecordsAreTheCallers holds a cached in-process answer to
// ResultSet's contract: its Records slice is the caller's to sort. A
// caller reverses one hit's records; the next hit, and the next miss
// after an Advance, still come back in engine order, which an uncached
// twin of the grid answers.
func TestQueryCacheRecordsAreTheCallers(t *testing.T) {
	cached, plain := newTestGrid(t, WithQueryCache(time.Hour)), newTestGrid(t)
	ctx := context.Background()
	q := Query{System: RGMA, Expr: "SELECT * FROM siteinfo"}
	query := func(g *Grid) *ResultSet {
		t.Helper()
		rs, err := g.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	for round, now := range []float64{1, 2} {
		want := recordsJSON(t, query(plain).Records)
		if miss := query(cached); miss.Work.CacheMisses != 1 || recordsJSON(t, miss.Records) != want {
			t.Fatalf("round %d: the miss (%+v) is not the engine's answer", round, miss.Work)
		}
		hit := query(cached)
		if hit.Work.CacheHits != 1 || len(hit.Records) < 2 {
			t.Fatalf("round %d: want a hit of two records or more, got %d records, %+v", round, len(hit.Records), hit.Work)
		}
		slices.SortFunc(hit.Records, func(a, b Record) int { return strings.Compare(b.Key, a.Key) })
		if next := query(cached); recordsJSON(t, next.Records) != want {
			t.Fatalf("round %d: the hit after a caller sorted its own comes back in another order: first key %q",
				round, next.Records[0].Key)
		}
		for _, g := range []*Grid{cached, plain} {
			if err := g.Advance(now + 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestQueryCacheTTLExpiry pins the time dimension: an entry older than
// the TTL is a miss even with no intervening writes.
func TestQueryCacheTTLExpiry(t *testing.T) {
	var clock atomicClock
	grid := newStressGrid(t, clock.Fn(), WithQueryCache(time.Nanosecond))
	ctx := context.Background()
	q := Query{System: Hawkeye, Role: RoleAggregateServer}
	if _, err := grid.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	rs, err := grid.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Work.CacheHits != 0 || rs.Work.CacheMisses != 1 {
		t.Fatalf("entry past TTL must miss, got %+v", rs.Work)
	}
}

// TestQueryCacheLookupWindow pins which lookups an entry answers: only
// those starting strictly after the storing query started and no later
// than its expiry. A query that began before (or with) the one that
// stored an answer must not read it, however the two interleave.
func TestQueryCacheLookupWindow(t *testing.T) {
	const ttl = time.Second
	stored := time.Now()
	key := keyFor(Query{System: MDS, Expr: "(objectclass=MdsCpu)"}, RoleInformationServer)
	for _, tc := range []struct {
		name   string
		lookup time.Time
		hit    bool
	}{
		{"at the storing start", stored, false},
		{"inside the window", stored.Add(ttl / 2), true},
		{"at expiry", stored.Add(ttl), true},
		{"past expiry", stored.Add(ttl + time.Nanosecond), false},
		{"started before the storing query", stored.Add(-time.Nanosecond), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newQueryCache(ttl)
			want := c.store(key, c.gen.Load(), stored, core.Answer{}, Work{})
			e, ok := c.lookup(key, tc.lookup)
			if ok != tc.hit || (ok && e != want) {
				t.Fatalf("lookup hit=%v (entry %p), want hit=%v (entry %p)", ok, e, tc.hit, want)
			}
		})
	}
}

// TestQueryCacheRemote confirms the cache counters travel the wire: a
// remote client querying a cache-enabled grid twice sees the miss then
// the hit in the ResultSet's Work, with identical records.
func TestQueryCacheRemote(t *testing.T) {
	var clock atomicClock
	grid := newStressGrid(t, clock.Fn(), WithQueryCache(time.Minute))
	srv := NewTransportServer()
	grid.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx := context.Background()
	q := Query{System: RGMA, Expr: "SELECT * FROM siteinfo"}
	first, err := remote.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := remote.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Work.CacheMisses != 1 || second.Work.CacheHits != 1 {
		t.Fatalf("remote cache accounting: first %+v second %+v", first.Work, second.Work)
	}
	if recordsJSON(t, first.Records) != recordsJSON(t, second.Records) {
		t.Fatal("remote cache hit returned different records")
	}
}

// TestConcurrentRemoteQueryWithAdvance drives the full live stack — TCP
// clients against a served grid with the Advance pump running — under
// -race, the shape gridmon-load and gridmon-live's -advance loop
// exercise: the pump is the facade's writer, grid.query its readers.
func TestConcurrentRemoteQueryWithAdvance(t *testing.T) {
	leakcheck.Check(t)
	var clock atomicClock
	grid := newStressGrid(t, clock.Fn())
	srv := NewTransportServer()
	grid.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const users = 4
	const perUser = 25
	queries := stressQueries()
	ctx := context.Background()
	done := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		for r := 1; ; r++ {
			select {
			case <-done:
				return
			default:
			}
			clock.Set(float64(r))
			if err := grid.Advance(float64(r)); err != nil {
				t.Errorf("advance: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			remote, err := Dial(addr)
			if err != nil {
				t.Errorf("user %d: %v", u, err)
				return
			}
			defer remote.Close()
			for i := 0; i < perUser; i++ {
				q := queries[(i+u)%len(queries)]
				if _, err := remote.Query(ctx, q); err != nil {
					t.Errorf("user %d query %+v: %v", u, q, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	pumpWG.Wait()
}
