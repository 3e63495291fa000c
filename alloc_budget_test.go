package gridmon

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// allocBudgetCells is one representative query per (system, role) — the
// nine cells of the facade's query surface, plus the R-GMA information
// role's mediated query (no Host), a projected GRIS and GIIS query and a
// two-clause numeric Hawkeye constraint — with the allocations one
// in-process Grid.Query of it may cost: the measured count plus ~10%.
// Served, the same query costs nothing (TestServerQueryAllocBudget): the
// engines answer into scratch and the answer is rendered once as its
// reply bytes. In-process, Grid.Query decodes Records from those bytes —
// one copy of them, the slice and a map per record with fields — plus
// whatever the engine still builds per query (the GRIS and GIIS sizing
// their projections, a SELECT's result). So a budget breaks when a
// decoder goes back to one string per value, SizeBytes goes back to
// building the text it measures, or a lookup goes back to
// strings.ToLower.
//
// Measured with go1.24.0 linux/amd64 (swiss maps), three hosts, frozen
// clock; under GOEXPERIMENT=noswissmap every cell measures the same or
// lower (MDS information 5, MDS aggregate 75, Hawkeye information 5,
// Hawkeye aggregate 10 and 10). go.mod and CI pin Go 1.22, which is not
// in this image; re-measure on the toolchain you change to before
// trusting a cell that fails. How each count came down, change by
// change, is in CHANGES.md.
//
//	                                   records  fields  in-process  served
//	MDS      information                    1       9          7       0
//	MDS      directory                      6       6         15       0
//	MDS      aggregate                     36     162         81       0
//	R-GMA    information                    7      14         17       0
//	R-GMA    mediated                      23      46         49       0
//	R-GMA    directory                      9      27         21       0
//	R-GMA    aggregate                     45      90         93       0
//	Hawkeye  information                    1      23          7       0
//	Hawkeye  directory                      3       6          9       0
//	Hawkeye  aggregate                      3      69         15       0
//	MDS      information, 3 attrs           1       3          5       0
//	MDS      aggregate, 1 attr              3       3          9       0
//	Hawkeye  aggregate, 2 clauses           3      69         15       0
var allocBudgetCells = []allocBudgetCell{
	{Query{System: MDS, Role: RoleInformationServer, Host: "lucky4", Expr: "(objectclass=MdsCpu)"}, 8},
	{Query{System: MDS, Role: RoleDirectoryServer, Expr: "(objectclass=MdsHost)", Attrs: []string{"Mds-Host-hn"}}, 17},
	{Query{System: MDS, Role: RoleAggregateServer}, 89},
	{Query{System: RGMA, Role: RoleInformationServer, Host: "lucky4", Expr: "SELECT host, value FROM siteinfo WHERE value >= 50"}, 19},
	{Query{System: RGMA, Role: RoleInformationServer, Expr: "SELECT host, value FROM siteinfo WHERE value >= 50"}, 54},
	{Query{System: RGMA, Role: RoleDirectoryServer, Expr: "siteinfo"}, 23},
	{Query{System: RGMA, Role: RoleAggregateServer, Expr: "SELECT * FROM siteinfo", Attrs: []string{"host", "value"}}, 102},
	{Query{System: Hawkeye, Role: RoleInformationServer, Host: "lucky4"}, 8},
	{Query{System: Hawkeye, Role: RoleDirectoryServer, Attrs: []string{"Name", "CpuLoad"}}, 10},
	{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: `TARGET.OpSys == "LINUX"`}, 17},
	{Query{System: MDS, Role: RoleInformationServer, Host: "lucky4", Expr: "(objectclass=MdsCpu)",
		Attrs: []string{"Mds-Cpu-Free-1minX100", "Mds-Cpu-Free-5minX100", "Mds-Cpu-speedMHz"}}, 6},
	{Query{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)", Attrs: []string{"Mds-Cpu-Free-1minX100"}}, 10},
	{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.MemFreeMB >= 100.5 && TARGET.CpuLoad < 90.25"}, 17},
}

// allocBudgetCell is a query and the allocations one run of it may cost.
type allocBudgetCell struct {
	q      Query
	budget float64
}

// cellName names a cell by system and role, and host when it has one.
func cellName(q Query) string {
	if q.Host == "" {
		return fmt.Sprintf("%s/%s", q.System, q.Role)
	}
	return fmt.Sprintf("%s/%s@%s", q.System, q.Role, q.Host)
}

// checkAllocBudget runs every cell against source — once to warm the
// mediator, the pools and any cache, then measured — and fails the cells
// that allocate more than their budget.
func checkAllocBudget(t *testing.T, source Querier, cells []allocBudgetCell) {
	t.Helper()
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	ctx := context.Background()
	for _, cell := range cells {
		name := cellName(cell.q)
		rs, err := source.Query(ctx, cell.q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rs.Records) == 0 {
			t.Fatalf("%s: the representative query returned no records", name)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := source.Query(ctx, cell.q); err != nil {
				t.Fatal(err)
			}
		})
		fields := 0
		for _, rec := range rs.Records {
			fields += len(rec.Fields)
		}
		t.Logf("%-40s %3d records %4d fields %5.0f allocs/query (budget %.0f)", name, len(rs.Records), fields, allocs, cell.budget)
		if allocs > cell.budget {
			t.Errorf("%s: %.0f allocs/query, budget %.0f", name, allocs, cell.budget)
		}
	}
}

// TestQueryAllocBudget pins the per-query allocation count of every
// cell where go test can see it (the end-to-end number is bench/'s
// allocs_per_query).
func TestQueryAllocBudget(t *testing.T) {
	checkAllocBudget(t, newTestGrid(t), allocBudgetCells)
}

// remoteAllocBudgetCells is one representative query per system with the
// allocations one RemoteGrid.Query of it may cost over a loopback v3
// connection when the serving grid answers from its result cache — so
// the count is the wire's: framing, the cache lookup, and the client
// decoding the answer. Server and client share the process, so both
// sides are counted. Measured +10% on go1.24.0 linux/amd64, before →
// after the client cut its strings out of one copy of the frame. The
// third number is the server encoding its flat answer instead of a
// []Record; the fourth is the v3 hop allocating nothing in the
// transport (reused reply channels, per-connection call workers, the op
// looked up without a copy, frame lengths written and read without
// escaping), 8 fewer per call; the fifth is a served hit allocating
// nothing (TestServedCacheHitAllocs); the sixth is the client cutting a
// repeated answer from the copy of its text it already holds, 1 fewer;
// the last is the client reusing a repeated answer's decoded records
// (answerTexts): what is left is the ResultSet and its own []Record,
// whose field maps are the held ones, whatever the answer's size. Under
// GOEXPERIMENT=noswissmap the cells measure 74, 92 and 9 before the
// last step and 2, 2 and 2 after it.
//
//	MDS aggregate      36 records, 162 fields   441 →  91 →  90 →  82 → 81 → 80 → 2
//	R-GMA aggregate    45 records,  90 fields   335 → 105 → 104 →  96 → 93 → 92 → 2
//	Hawkeye aggregate   3 records,  69 fields   163 →  25 →  24 →  16 → 15 → 14 → 2
var remoteAllocBudgetCells = []allocBudgetCell{
	{Query{System: MDS, Role: RoleAggregateServer}, 2.2},
	{Query{System: RGMA, Role: RoleAggregateServer, Expr: "SELECT * FROM siteinfo", Attrs: []string{"host", "value"}}, 2.2},
	{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: `TARGET.OpSys == "LINUX"`}, 2.2},
}

// TestRemoteQueryAllocBudget is TestQueryAllocBudget's remote twin: it
// pins what the client half of a query allocates, which the in-process
// cells never see.
func TestRemoteQueryAllocBudget(t *testing.T) {
	remote := serveGrid(t, newTestGrid(t, WithQueryCache(time.Hour)))
	checkAllocBudget(t, remote, remoteAllocBudgetCells)
}

// servedAllocs is what one binary grid.query of q costs the server of g,
// after a warming call.
func servedAllocs(t *testing.T, g *Grid, q Query) float64 {
	t.Helper()
	serve := queryV3(g)
	ctx := context.Background()
	body := appendWireQuery(nil, q)
	var out []byte
	call := func() {
		b, err := serve(ctx, body, out[:0])
		if err != nil {
			t.Fatal(err)
		}
		out = b
	}
	call()
	return testing.AllocsPerRun(200, call)
}

// TestMediatedQueryScaling pins what each producer servlet a mediated
// R-GMA query reaches adds to the served query: one plan and one result
// serve every servlet, and the query runs on pooled row scratch (rows,
// matches, the top-k heap and the result's rows and values), so once
// that scratch has grown a grid of 16 hosts costs no more than one of 3
// (0, 0 and 0 allocations per extra servlet, budget 0.5 each). Before
// the scratch was pooled an extra servlet cost 0.46, 0.46 and 2.46 (topK
// allocated its heap and output per servlet); before one plan and one
// result served every servlet, 11.85, 7.85 and 10.85.
func TestMediatedQueryScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	hosts := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("node%02d", i+1)
		}
		return out
	}
	grid := func(n int) *Grid {
		g, err := New(WithHosts(hosts(n)...), WithRGMAProducers(3), fixedClock(1))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	small, large := grid(3), grid(16)
	for _, shape := range []struct {
		expr       string
		perServlet float64
	}{
		{"SELECT host, value FROM siteinfo WHERE value >= 50", 0.5},
		{"SELECT * FROM siteinfo", 0.5},
		{"SELECT host, metric, value FROM siteinfo ORDER BY value DESC LIMIT 3", 0.5},
	} {
		q := Query{System: RGMA, Role: RoleInformationServer, Expr: shape.expr}
		a3, a16 := servedAllocs(t, small, q), servedAllocs(t, large, q)
		per := (a16 - a3) / 13
		t.Logf("%-72s 3 hosts %4.0f, 16 hosts %4.0f: %5.2f allocs per extra servlet (budget %.1f)", shape.expr, a3, a16, per, shape.perServlet)
		if per > shape.perServlet {
			t.Errorf("%s: %.2f allocs per extra servlet, budget %.1f", shape.expr, per, shape.perServlet)
		}
	}
}

// TestServerQueryAllocBudget pins the server half of a remote query at
// no allocation for every cell, on an uncached grid: decoding the request
// (its strings resolved through the server's table), answering it (the
// engines searching, looking up and listing in scratch) and rendering
// the answer into a reused buffer (queryV3's body, without the transport
// around it). Before the engines answered into scratch and the answer
// was rendered once as reply bytes, the cells cost 3 4 8 / 2 3 2 3 / 2 3
// 3 / 4 4 3, the request's copy one of them in each.
func TestServerQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	g := newTestGrid(t)
	ctx := context.Background()
	for _, cell := range allocBudgetCells {
		name := cellName(cell.q)
		rs, err := g.Query(ctx, cell.q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		served := servedAllocs(t, g, cell.q)
		t.Logf("%-40s %3d records %5.0f allocs served", name, len(rs.Records), served)
		if served != 0 {
			t.Errorf("%s: %.0f allocs/query served, want 0", name, served)
		}
	}
}

// TestColdQueryAllocBudget pins the memo's miss path: the R-GMA
// information cell with a fresh expression on every run, so every query
// parses its SELECT and stores it. Measured with go1.24.0 linux/amd64,
// before → after the facade kept each expression parsed: 40 → 42, a copy
// of the text to key it by and the boxed statement, and the budget is
// the parent's count + 2. The warm cell's query costs 34 → 31. Since a
// prepared SELECT keeps its plan, a miss compiles the plan into the
// memo's entry, in the allocation that boxed the statement before, and a
// servlet's query no longer moves to the heap: 41, and the warm query
// 25. The budget stayed. Since a query renders into pooled scratch (its
// answer's spans and pairs, and the SELECT's rows and result): 33, and
// the warm query 17, so the budget is again that count + 2.
func TestColdQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	const runs = 200
	exprs := make([]string, runs+1) // AllocsPerRun calls once more to warm up
	for i := range exprs {
		exprs[i] = fmt.Sprintf("SELECT host, value FROM siteinfo WHERE value >= 50 AND host != 'cold%04d'", i)
	}
	g := newTestGrid(t)
	ctx := context.Background()
	q := Query{System: RGMA, Role: RoleInformationServer, Host: "lucky4", Expr: "SELECT host, value FROM siteinfo WHERE value >= 50"}
	want, err := g.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		q.Expr = exprs[next]
		next++
		rs, err := g.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Records) != len(want.Records) {
			t.Fatalf("%q: %d records, want %d", q.Expr, len(rs.Records), len(want.Records))
		}
	})
	const budget = 35
	t.Logf("%-40s %5.0f allocs/query (budget %d)", "R-GMA/Information Server@lucky4, cold", allocs, budget)
	if allocs > budget {
		t.Errorf("a query that misses the memo: %.0f allocs/query, budget %d", allocs, budget)
	}
}

// TestServedCacheHitAllocs pins a served cache hit at no allocation for
// a projection of no, one and three names: the request's strings resolve
// through the server's table, the cache key is built from them (a list
// of two or more names by the joined form the table keeps beside it),
// and the entry's bytes are copied into the reply.
func TestServedCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	g := newTestGrid(t, WithQueryCache(time.Hour))
	for _, attrs := range [][]string{
		nil,
		{"Mds-Cpu-Free-1minX100"},
		{"Mds-Cpu-Free-1minX100", "Mds-Cpu-Free-5minX100", "Mds-Cpu-speedMHz"},
	} {
		q := Query{System: MDS, Host: "lucky4", Expr: "(objectclass=MdsCpu)", Attrs: attrs}
		hits := g.Stats().CacheHits
		allocs := servedAllocs(t, g, q)
		if got := g.Stats().CacheHits - hits; got < 200 {
			t.Fatalf("attrs %q: %d of the measured queries hit the cache", attrs, got)
		}
		t.Logf("attrs %q: %.0f allocs per served hit", attrs, allocs)
		if allocs != 0 {
			t.Errorf("attrs %q: %.0f allocs per served hit, want 0", attrs, allocs)
		}
	}
}
