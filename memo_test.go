package gridmon

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// forgetMemo empties g's expression memo, so its next query parses as a
// fresh grid's would.
func forgetMemo(g *Grid) {
	g.memo.mu.Lock()
	clear(g.memo.m)
	g.memo.bytes = 0
	g.memo.mu.Unlock()
}

// memoEntries is how many parsed expressions g's memo holds.
func memoEntries(g *Grid) int {
	g.memo.mu.RLock()
	defer g.memo.mu.RUnlock()
	return len(g.memo.m)
}

// memoKeyFor returns the stored key of sys's expr, if the memo holds it.
func memoKeyFor(g *Grid, sys System, expr string) (memoKey, bool) {
	g.memo.mu.RLock()
	defer g.memo.mu.RUnlock()
	for k := range g.memo.m {
		if k.system == sys && k.expr == expr {
			return k, true
		}
	}
	return memoKey{}, false
}

// memoDump is everything a query answered but its timing: the records
// as JSON and the Work, or the error's code and text.
func memoDump(t testing.TB, rs *ResultSet, err error) string {
	if err != nil {
		return fmt.Sprintf("error %s: %s", CodeOf(err), err)
	}
	return fmt.Sprintf("%s %+v", recordsJSON(t, rs.Records), rs.Work)
}

// fuzzCorpus reads the checked-in seed corpus of one fuzz target: one
// string per file, in the "go test fuzz v1" format.
func fuzzCorpus(t testing.TB, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus in %s: %v", dir, err)
	}
	var out []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[1])
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, s)
	}
	return out
}

// memoQueries is the differential's query list: every alloc-budget
// cell, the stress mix, and each dialect's fuzz seed corpus (plus a few
// accepted and refused expressions of each, and one past the length cap)
// on every role that parses it.
func memoQueries(t testing.TB) []Query {
	var qs []Query
	for _, c := range allocBudgetCells {
		qs = append(qs, c.q)
	}
	qs = append(qs, stressQueries()...)
	long := strings.Repeat(" ", maxMemoExpr)
	ldapExprs := append(fuzzCorpus(t, "internal/ldap/testdata/fuzz/FuzzLDAPFilter"),
		"(objectclass=MdsCpu)", "(|(Mds-Host-hn=lucky3)(Mds-Cpu-Free-1minX100>=50))", "(a=(b)", "(&)",
		"(objectclass=MdsHost)"+long)
	sqlExprs := append(fuzzCorpus(t, "internal/relational/testdata/fuzz/FuzzSQLParse"),
		"SELECT host, value FROM SiteInfo WHERE value >= 50 ORDER BY value DESC LIMIT 4",
		"SELECT nosuch FROM siteinfo", "SELECT * FROM nosuch", "DELETE FROM siteinfo", "SELECT * FROM",
		"SELECT * FROM siteinfo"+long)
	adExprs := append(fuzzCorpus(t, "internal/classad/testdata/fuzz/FuzzClassAdParse"),
		`TARGET.OpSys == "LINUX" && TARGET.CpuLoad > 50`, "TARGET.CpuLoad", "a + ) @", "1e999",
		"TARGET.CpuLoad >= 0"+long)
	// Each expression without its last byte too: texts that share all
	// but their end, so a memo keyed by less than the whole text answers
	// one with the other's parse.
	for _, exprs := range []*[]string{&ldapExprs, &sqlExprs, &adExprs} {
		for _, e := range *exprs {
			if len(e) > 1 {
				*exprs = append(*exprs, e[:len(e)-1])
			}
		}
	}
	for _, e := range ldapExprs {
		qs = append(qs,
			Query{System: MDS, Host: "lucky4", Expr: e},
			Query{System: MDS, Role: RoleAggregateServer, Expr: e, Attrs: []string{"Mds-Host-hn"}})
	}
	for _, e := range sqlExprs {
		qs = append(qs,
			Query{System: RGMA, Host: "lucky4", Expr: e},
			Query{System: RGMA, Host: "nosuch", Expr: e},
			Query{System: RGMA, Expr: e},
			Query{System: RGMA, Role: RoleAggregateServer, Expr: e})
	}
	for _, e := range adExprs {
		qs = append(qs,
			Query{System: Hawkeye, Host: "lucky4", Expr: e},
			Query{System: Hawkeye, Role: RoleAggregateServer, Expr: e})
	}
	return qs
}

// TestQueryMemoWarmMatchesFresh holds the memo to a grid without one:
// two identical grids answer the same query sequence twice over, one
// keeping its memo and one emptying it before every query, and every
// answer — records, Work, error code and text — must be the same. The
// second pass is answered from a full memo.
func TestQueryMemoWarmMatchesFresh(t *testing.T) {
	queries := memoQueries(t)
	warm, fresh := newTestGrid(t), newTestGrid(t)
	ctx := context.Background()
	for pass := 1; pass <= 2; pass++ {
		for i, q := range queries {
			w, werr := warm.Query(ctx, q)
			forgetMemo(fresh)
			f, ferr := fresh.Query(ctx, q)
			if got, want := memoDump(t, w, werr), memoDump(t, f, ferr); got != want {
				t.Errorf("pass %d query %d %+.80v:\nwarm:  %.300s\nfresh: %.300s", pass, i, q, got, want)
			}
		}
		if pass == 1 && memoEntries(warm) == 0 {
			t.Fatal("the warm grid's memo is empty after the first pass")
		}
	}
}

// TestQueryMemoBounds: ten times the entry cap in distinct expressions
// never leave more than the cap stored; an expression past the length
// cap, and one that fails to parse, are answered but never stored.
func TestQueryMemoBounds(t *testing.T) {
	g := newTestGrid(t)
	ctx := context.Background()
	for i := 0; i < 10*maxMemoEntries; i++ {
		q := Query{System: Hawkeye, Role: RoleAggregateServer, Expr: fmt.Sprintf("TARGET.CpuLoad > -%d", i)}
		if _, err := g.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
		if n := memoEntries(g); n > maxMemoEntries {
			t.Fatalf("after %d distinct expressions the memo holds %d, cap %d", i+1, n, maxMemoEntries)
		}
	}
	long := "TARGET.CpuLoad >= 0" + strings.Repeat(" ", maxMemoExpr)
	bad := "TARGET.CpuLoad >"
	if _, err := g.Query(ctx, Query{System: Hawkeye, Role: RoleAggregateServer, Expr: long}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Query(ctx, Query{System: Hawkeye, Role: RoleAggregateServer, Expr: bad}); CodeOf(err) != ErrParse {
		t.Fatalf("%q: %v, want a parse error", bad, err)
	}
	for _, e := range []string{long, bad} {
		if _, ok := memoKeyFor(g, Hawkeye, e); ok {
			t.Errorf("the memo stored %.40q", e)
		}
	}
}

// TestQueryMemoKeyIsACopy: the memo keys an expression by a copy of its
// text, so a stored entry never keeps the request it came from alive.
func TestQueryMemoKeyIsACopy(t *testing.T) {
	g := newTestGrid(t)
	frame := []byte("xx(objectclass=MdsCpu)xx")
	q := Query{System: MDS, Host: "lucky3", Expr: string(frame[2 : len(frame)-2])}
	if _, err := g.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	k, ok := memoKeyFor(g, MDS, q.Expr)
	if !ok {
		t.Fatalf("the memo does not hold %q", q.Expr)
	}
	if unsafe.StringData(k.expr) == unsafe.StringData(q.Expr) {
		t.Error("the stored key shares the request's bytes")
	}
}

// TestConcurrentMemoWithAdvanceOracle runs the stress mix beside the
// Advance pump, each query followed by a distinct expression that
// selects exactly what it does, so repeated lookups, stores and
// wholesale drops of the memo all race with each other and with the
// pump. Every answer must be one the serialized oracle produces for the
// stress query.
func TestConcurrentMemoWithAdvanceOracle(t *testing.T) {
	const rounds = 25
	const workers = 8
	const perWorker = 2 * maxMemoEntries / workers // distinct expressions overflow the memo
	valid := oracleSnapshots(t, rounds)
	queries := stressQueries()
	// variant returns q with an expression no earlier query used that
	// selects the same records, or false when q has no expression.
	variant := func(q Query, n int) (Query, bool) {
		switch {
		case q.Expr == "":
			return q, false
		case q.System == MDS:
			q.Expr = fmt.Sprintf("(&%s(!(cn=x%d)))", q.Expr, n)
		case q.System == RGMA:
			q.Expr = fmt.Sprintf("%s AND host != 'x%d'", q.Expr, n)
		default:
			q.Expr = fmt.Sprintf(`%s && TARGET.Name != "x%d"`, q.Expr, n)
		}
		return q, true
	}

	var clock atomicClock
	grid := newStressGrid(t, clock.Fn())
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qi := (i + w) % len(queries)
				asked := []Query{queries[qi]}
				if v, ok := variant(queries[qi], w*perWorker+i); ok {
					asked = append(asked, v)
				}
				for _, q := range asked {
					rs, err := grid.Query(ctx, q)
					if err != nil {
						t.Errorf("worker %d query %+v: %v", w, q, err)
						return
					}
					if got := recordsJSON(t, rs.Records); !valid[qi][got] {
						t.Errorf("worker %d: %q returned a record set no serialized execution of %q produces:\n%.200s...",
							w, q.Expr, queries[qi].Expr, got)
						return
					}
				}
			}
		}(w)
	}
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
	if n := memoEntries(grid); n > maxMemoEntries {
		t.Errorf("the memo holds %d entries, cap %d", n, maxMemoEntries)
	}
}

// FuzzQueryMemo: any system, role and expression answers the same on a
// grid that has parsed it before as on one that has not. Two identical
// grids see the same queries, so their state moves in lockstep; one
// keeps its memo, the other forgets it before every query.
func FuzzQueryMemo(f *testing.F) {
	for _, seed := range []struct {
		sys  uint8
		role uint8
		expr string
	}{
		{0, 0, "(objectclass=MdsCpu)"},
		{0, 2, "(|(Mds-Host-hn=lucky3)(objectclass=MdsHost))"},
		{0, 1, "(a=(b)"},
		{1, 0, "SELECT host, value FROM siteinfo WHERE value >= 50"},
		{1, 3, "SELECT * FROM SiteInfo ORDER BY value DESC LIMIT 3"},
		{1, 2, "SELECT nosuch FROM siteinfo"},
		{1, 1, "siteinfo"},
		{2, 2, `TARGET.OpSys == "LINUX" && TARGET.CpuLoad > 50`},
		{2, 0, "TARGET.CpuLoad >"},
		{2, 3, "MY.x + target.Y * -3 % 2"},
	} {
		f.Add(seed.sys, seed.role, seed.expr)
	}
	grid := func() *Grid {
		g, err := New(WithHosts(testHosts...), fixedClock(1))
		if err != nil {
			f.Fatal(err)
		}
		return g
	}
	warm, fresh := grid(), grid()
	systems := []System{MDS, RGMA, Hawkeye}
	roles := []Role{RoleInformationServer, RoleDirectoryServer, RoleAggregateServer}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, sys, role uint8, expr string) {
		// role 3 is the mediated form: an information-server query with
		// no host.
		q := Query{System: systems[int(sys)%len(systems)], Role: roles[int(role)%len(roles)], Host: "lucky4", Expr: expr}
		if role%4 == 3 {
			q.Role, q.Host = RoleInformationServer, ""
		}
		for try := 0; try < 2; try++ {
			w, werr := warm.Query(ctx, q)
			forgetMemo(fresh)
			fr, ferr := fresh.Query(ctx, q)
			if got, want := memoDump(t, w, werr), memoDump(t, fr, ferr); got != want {
				t.Fatalf("ask %d of %+v:\nwarm:  %.300s\nfresh: %.300s", try+1, q, got, want)
			}
		}
	})
}

// TestConcurrentSharedPlansWithAdvance: eight goroutines ask one grid
// the same SQL, LDAP and ClassAd expressions, each on several roles, so
// from the first query on they share every memo entry and every
// prepared statement's plan, while the pump advances the grid. The pump
// wraps each round in a seqlock, which tells a query that ran wholly
// within one round, and such an answer's records must be exactly what
// the same query answers on a fresh grid at that round. (Its Work may
// differ: the composite and the caches refresh on the round's first
// query.) The grid's counters order its queries for the race detector,
// so the plan slot's publication is held to its protocol in
// internal/relational (TestPreparedPlanSharedConcurrently).
func TestConcurrentSharedPlansWithAdvance(t *testing.T) {
	const rounds = 12
	const workers = 8
	const perRound = 4 * workers // queries answered within each round before the next
	sql := "SELECT host, metric, value FROM siteinfo WHERE value >= 30 AND metric != 'metric-03' ORDER BY value DESC LIMIT 7"
	filter := "(|(&(objectclass=MdsCpu)(Mds-Cpu-Free-1minX100>=10))(Mds-Os-name=lin*))"
	constraint := `TARGET.OpSys == "linux" && TARGET.CpuLoad >= 0`
	queries := []Query{
		{System: RGMA, Host: "lucky4", Expr: sql},
		{System: RGMA, Expr: sql},
		{System: RGMA, Role: RoleAggregateServer, Expr: sql},
		{System: MDS, Host: "lucky3", Expr: filter},
		{System: MDS, Role: RoleAggregateServer, Expr: filter, Attrs: []string{"Mds-Cpu-Free-1minX100", "mds-os-name"}},
		{System: Hawkeye, Host: "lucky7", Expr: constraint},
		{System: Hawkeye, Role: RoleAggregateServer, Expr: constraint, Attrs: []string{"Name", "CpuLoad"}},
	}
	ctx := context.Background()
	dump := func(g *Grid, q Query) string {
		rs, err := g.Query(ctx, q)
		if err != nil {
			return fmt.Sprintf("error %s: %s", CodeOf(err), err)
		}
		return recordsJSON(t, rs.Records)
	}
	want := make([][]string, rounds+1) // want[r][i]: queries[i] on a fresh grid at round r
	for r := range want {
		now := float64(r)
		fresh := newStressGrid(t, func() float64 { return now })
		for a := 1; a <= r; a++ {
			if err := fresh.Advance(float64(a)); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			want[r] = append(want[r], dump(fresh, q))
		}
	}

	var clock atomicClock
	grid := newStressGrid(t, clock.Fn())
	var seq atomic.Uint64 // 2r while the grid is at round r, odd while the pump advances it
	var answered, checked atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			failed := false
			for i := w; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qi := i % len(queries)
				before := seq.Load()
				got := dump(grid, queries[qi])
				if before%2 == 0 && seq.Load() == before {
					checked.Add(1)
					if r := before / 2; got != want[r][qi] && !failed {
						failed = true // one report per worker; it keeps the pump going
						t.Errorf("worker %d, round %d: %+v answered\n%.300s\na fresh grid answers\n%.300s", w, r, queries[qi], got, want[r][qi])
					}
				}
				answered.Add(1)
			}
		}(w)
	}
	// Each round lets the workers answer perRound queries before the
	// next Advance, which then waits on queries still in flight.
	settle := func() {
		for from := answered.Load(); answered.Load()-from < perRound; {
			runtime.Gosched()
		}
	}
	for r := 1; r <= rounds; r++ {
		settle()
		seq.Add(1)
		clock.Set(float64(r))
		if err := grid.Advance(float64(r)); err != nil {
			t.Error(err)
		}
		seq.Add(1)
	}
	settle()
	close(done)
	wg.Wait()
	t.Logf("%d answers, %d of them within one round", answered.Load(), checked.Load())
	if n := checked.Load(); n < rounds {
		t.Errorf("only %d of %d answers ran within one round", n, answered.Load())
	}
}

// TestRequestStringsStayBounded: 100k requests with distinct Host, Expr
// and Attrs values each decode to what they encode, and leave the table
// within its entry and byte bounds, the bytes it counts being at least
// the text its maps hold; a value longer than maxMemoExpr is never
// stored.
func TestRequestStringsStayBounded(t *testing.T) {
	table := newRequestStrings()
	long := strings.Repeat("x", maxMemoExpr+1)
	held := func() (entries, bytes int) {
		for k := range table.strs.m {
			bytes += len(k)
		}
		for k := range table.lists.m {
			bytes += 2 * len(k) // the key, and the copy the names are cut from
		}
		return len(table.strs.m) + len(table.lists.m), bytes
	}
	starts := 0
	for i := 0; i < 100000; i++ {
		q := Query{System: MDS, Role: RoleAggregateServer, Host: fmt.Sprintf("host%06d", i),
			Expr: fmt.Sprintf("(cn=%06d)", i), Attrs: []string{fmt.Sprintf("attr%06d", i), "Mds-Host-hn"}}
		if i%1000 == 0 {
			q.Expr = long + q.Expr
		}
		before := len(table.strs.m)
		var got Query
		if err := table.decodeQuery(appendWireQuery(nil, q), &got); err != nil || !reflect.DeepEqual(got, q) {
			t.Fatalf("request %d decoded to %+v (err %v), want %+v", i, got, err, q)
		}
		if len(table.strs.m) < before {
			starts++
		}
		if i%997 == 0 || i == 99999 {
			entries, bytes := held()
			counted := table.strs.bytes + table.lists.bytes
			if entries > maxInternEntries || counted > maxInternBytes || bytes > counted {
				t.Fatalf("after %d requests the table holds %d values of %d bytes (counted %d); bounds %d and %d",
					i+1, entries, bytes, counted, maxInternEntries, maxInternBytes)
			}
			if _, ok := table.strs.m[q.Expr]; ok && len(q.Expr) > maxMemoExpr {
				t.Fatalf("request %d: a %d-byte Expr was stored", i, len(q.Expr))
			}
		}
	}
	if starts == 0 {
		t.Fatal("the table never started over")
	}
	t.Logf("the table started over %d times", starts)
}

// TestRequestStringsShareOwnedCopies: a repeated request resolves to the
// list the first one stored, and to strings that alias no frame, copying
// nothing, and a cache key for it takes the list's joined form from the
// table.
func TestRequestStringsShareOwnedCopies(t *testing.T) {
	table := newRequestStrings()
	q := Query{System: Hawkeye, Host: "lucky4", Expr: "TARGET.CpuLoad > 50", Attrs: []string{"Name", "CpuLoad", "OpSys"}}
	frame := appendWireQuery(nil, q)
	var first, second Query
	if err := table.decodeQuery(frame, &first); err != nil {
		t.Fatal(err)
	}
	clear(frame) // a pooled frame buffer reused for another request
	if !reflect.DeepEqual(first, q) {
		t.Fatalf("the first decode kept a view of its frame: %+v", first)
	}
	if err := table.decodeQuery(appendWireQuery(nil, q), &second); err != nil {
		t.Fatal(err)
	}
	if &second.Attrs[0] != &first.Attrs[0] {
		t.Fatalf("a repeated request did not resolve to the stored list")
	}
	joined := table.joined(second.Attrs)
	if joined != strings.Join(q.Attrs, "\x00") || table.strs.m[joined] == "" {
		t.Fatalf("the joined form %q is not the table's", joined)
	}
	if n := testing.AllocsPerRun(100, func() { table.decodeQuery(appendWireQuery(frame[:0], q), &second); _ = table.joined(second.Attrs) }); n != 0 && !raceEnabled {
		t.Errorf("a repeated request and its key cost %.0f allocs, want 0", n)
	}
}
