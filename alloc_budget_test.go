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
// What the engine side of a query allocates is dominated by how often it
// renders a value and folds a name, so a budget breaks when a decoder
// goes back to one string per value, SizeBytes goes back to building
// the text it measures, or a lookup goes back to strings.ToLower.
//
// Measured with go1.24.0 linux/amd64 (swiss maps), three hosts, frozen
// clock, before → after the decoders rendered each answer once. go.mod
// and CI pin Go 1.22, which is not in this image; its map implementation
// is the one GOEXPERIMENT=noswissmap selects, and under it every cell
// measures the same or lower (25 67 92 / 72 32 210 / 118 14 34), so the
// budgets hold there with at least the headroom they have here. Re-measure
// on the toolchain you change to before trusting a cell that fails.
// The R-GMA information and aggregate cells were re-pinned when the
// ProducerServlet stopped building a scratch table per query (the third
// number; noswissmap: the same), the Hawkeye information cell when the
// Agent stopped building and merging one ad per module (the third
// number; noswissmap: 10). Since the decoders produce a flat
// core.Answer and Grid.Query builds the maps from it, every cell costs
// two more than just before, the Answer's spans and pairs (the last
// number; R-GMA directory had drifted to 30 and is now 32; the budgets
// were not raised). The "served" column is the same query through the
// binary grid.query handler (serverAllocBudgets), which builds no map;
// noswissmap measures the same there, except Hawkeye information at 9.
// The mediated cell was added when one plan and one result began serving
// every producer servlet of a mediated query (before → after, in-process
// and served; noswissmap: the same). In that change a single servlet's
// query costs one allocation more, the list of answered rows the result
// is projected from, and the MDS cells were re-pinned, when an LDAP search
// began normalizing its base DN once, in one allocation (the last numbers;
// noswissmap: 11, 59, 84 in-process, the same served). The last three
// cells were added, and the MDS directory and Hawkeye aggregate cells
// re-pinned, when a GRIS or GIIS query part stopped copying the entries
// it projects and the ClassAd parser began lexing on demand (before →
// after; noswissmap: the same, except Hawkeye aggregate 29 and 28
// in-process). The R-GMA directory and mediated cells were re-pinned
// when the Registry stopped keeping its advertisements in a hash-indexed
// table and began answering a lookup into one slice (the last numbers,
// in-process and served; noswissmap: the same). The cells whose query
// parses an expression were re-pinned when the facade began keeping each
// expression parsed, so a repeated one is not parsed again, and the
// Manager stopped allocating a constraint wrapper and an empty ad per
// query (the last numbers, in-process and served; the R-GMA aggregate
// cell's "SELECT * FROM siteinfo" parses with no allocation, so it did
// not move; noswissmap: the same or lower). The cells whose query plans
// a SELECT or an LDAP filter, or compares ClassAd strings, were
// re-pinned when a prepared SELECT began keeping its plan, an LDAP
// filter began arriving normalized, a GRIS or GIIS began normalizing its
// search base once, and ClassAd strings began comparing without lowered
// copies (the last numbers, in-process and served; noswissmap: the same
// served, and in-process the same or lower: MDS information 8, MDS
// aggregate 83, Hawkeye aggregate 17). Every cell was re-pinned when a
// query began rendering into scratch reused from query to query: the
// answer's spans and pairs (a pooled Answer, in-process and served) and
// an R-GMA SELECT's rows, matches, top-k heap and result (a pooled
// relational.RowsQuery). That is two allocations fewer for every cell,
// and for the R-GMA SELECT cells the rows besides (the last numbers,
// in-process and served; noswissmap: served the same except Hawkeye
// information 7, in-process the same or lower: MDS information 6, MDS
// aggregate 81, Hawkeye information 10, Hawkeye aggregate 15 and 15).
// The Hawkeye cells were re-pinned when a direct Agent query began
// collecting into a pooled ad, reset with its room kept, and a Manager
// query began listing its matches in a pooled slice and unlocking
// without a closure (the last numbers, in-process and served).
//
//	                                                                       served
//	MDS      information     72 →  27 →  28 →  13 →  12 → 10 →  8        23 →  8 →  7 →  5 →  3
//	MDS      directory      192 →  67 →  68 →  59 →  21 → 20 → 18 → 16   56 → 47 →  9 →  8 →  6 → 4
//	MDS      aggregate     1184 →  98 →  99 →  90 →  89 →  87             20 → 11 → 10 →  8
//	R-GMA    information    113 →  72 →  33 →  34 →  35 → 31 → 25 → 17   19 → 20 → 16 → 10 →  2
//	R-GMA    mediated               102 →  79 →  69 →  66 →  60 → 50     55 → 32 → 22 → 19 → 13 → 3
//	R-GMA    directory       95 →  32 →  32 →  23 →  21                   13 →  4 →  2
//	R-GMA    aggregate      615 → 210 → 101 → 102 →  99 →  93             12 →  9 →  3
//	Hawkeye  information    482 → 122 →  14 →  16 →  14 →  7              11 →  9 →  2
//	Hawkeye  directory     1042 →  14 →  15 →  13 →   9                    9 →  7 →  3
//	Hawkeye  aggregate     1054 →  39 →  40 →  34 →  28 → 22 → 20 → 16   27 → 21 → 15 →  9 →  7 → 3
//	MDS      information, 3 attrs      25 →  11 →  10 →   8 →  6          23 →  9 →  8 →  6 →  4
//	MDS      aggregate, 1 attr         35 →  15 →  14 →  12 → 10          29 →  9 →  8 →  6 →  4
//	Hawkeye  aggregate, 2 clauses      48 →  33 →  22 →  20 →  16         35 → 20 →  9 →  7 →  3
var allocBudgetCells = []allocBudgetCell{
	{Query{System: MDS, Role: RoleInformationServer, Host: "lucky4", Expr: "(objectclass=MdsCpu)"}, 9},
	{Query{System: MDS, Role: RoleDirectoryServer, Expr: "(objectclass=MdsHost)", Attrs: []string{"Mds-Host-hn"}}, 18},
	{Query{System: MDS, Role: RoleAggregateServer}, 96},
	{Query{System: RGMA, Role: RoleInformationServer, Host: "lucky4", Expr: "SELECT host, value FROM siteinfo WHERE value >= 50"}, 19},
	{Query{System: RGMA, Role: RoleInformationServer, Expr: "SELECT host, value FROM siteinfo WHERE value >= 50"}, 55},
	{Query{System: RGMA, Role: RoleDirectoryServer, Expr: "siteinfo"}, 24},
	{Query{System: RGMA, Role: RoleAggregateServer, Expr: "SELECT * FROM siteinfo", Attrs: []string{"host", "value"}}, 103},
	{Query{System: Hawkeye, Role: RoleInformationServer, Host: "lucky4"}, 8},
	{Query{System: Hawkeye, Role: RoleDirectoryServer, Attrs: []string{"Name", "CpuLoad"}}, 10},
	{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: `TARGET.OpSys == "LINUX"`}, 18},
	{Query{System: MDS, Role: RoleInformationServer, Host: "lucky4", Expr: "(objectclass=MdsCpu)",
		Attrs: []string{"Mds-Cpu-Free-1minX100", "Mds-Cpu-Free-5minX100", "Mds-Cpu-speedMHz"}}, 7},
	{Query{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)", Attrs: []string{"Mds-Cpu-Free-1minX100"}}, 11},
	{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.MemFreeMB >= 100.5 && TARGET.CpuLoad < 90.25"}, 18},
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
// after the client cut its strings out of one copy of the frame; what is
// left is the field map of each record (two allocations for a small one)
// plus ~10 for the call. The third number is the server encoding its flat
// answer instead of a []Record; the last is the v3 hop allocating
// nothing in the transport (reused reply channels, per-connection call
// workers, the op looked up without a copy, frame lengths written and
// read without escaping), 8 fewer per call. Under GOEXPERIMENT=noswissmap
// the cells measure 76, 96 and 11 — the same or lower.
//
//	MDS aggregate      36 records, 162 fields   441 →  91 →  90 →  82
//	R-GMA aggregate    45 records,  90 fields   335 → 105 → 104 →  96
//	Hawkeye aggregate   3 records,  69 fields   163 →  25 →  24 →  16
var remoteAllocBudgetCells = []allocBudgetCell{
	{Query{System: MDS, Role: RoleAggregateServer}, 90},
	{Query{System: RGMA, Role: RoleAggregateServer, Expr: "SELECT * FROM siteinfo", Attrs: []string{"host", "value"}}, 106},
	{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: `TARGET.OpSys == "LINUX"`}, 18},
}

// TestRemoteQueryAllocBudget is TestQueryAllocBudget's remote twin: it
// pins what the client half of a query allocates, which the in-process
// cells never see.
func TestRemoteQueryAllocBudget(t *testing.T) {
	remote := serveGrid(t, newTestGrid(t, WithQueryCache(time.Hour)))
	checkAllocBudget(t, remote, remoteAllocBudgetCells)
}

// serverAllocBudgets is, per allocBudgetCells cell in the same order,
// what one binary grid.query costs the server on an uncached grid:
// decoding the request, answering it, and encoding the answer into a
// reused buffer (queryV3's body, without the transport around it).
var serverAllocBudgets = []float64{4, 5, 9, 3, 4, 3, 4, 3, 4, 4, 5, 5, 4}

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

// TestServerQueryAllocBudget pins the server half of a remote query. A
// Grid encodes its flat answer and builds no field map, so each cell
// must also cost at least one allocation per record less than the same
// query through Grid.Query, which builds one map per record.
func TestServerQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	if len(serverAllocBudgets) != len(allocBudgetCells) {
		t.Fatalf("%d server budgets for %d cells", len(serverAllocBudgets), len(allocBudgetCells))
	}
	g := newTestGrid(t)
	ctx := context.Background()
	for i, cell := range allocBudgetCells {
		name := cellName(cell.q)
		rs, err := g.Query(ctx, cell.q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		served := servedAllocs(t, g, cell.q)
		inProcess := testing.AllocsPerRun(200, func() {
			if _, err := g.Query(ctx, cell.q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%-40s %3d records %5.0f allocs served, %5.0f in-process (budget %.0f)",
			name, len(rs.Records), served, inProcess, serverAllocBudgets[i])
		if served > serverAllocBudgets[i] {
			t.Errorf("%s: %.0f allocs/query served, budget %.0f", name, served, serverAllocBudgets[i])
		}
		if served > inProcess-float64(len(rs.Records)) {
			t.Errorf("%s: %.0f allocs/query served, %.0f in-process: a map per record is back", name, served, inProcess)
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
