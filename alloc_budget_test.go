package gridmon

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// allocBudgetCells is one representative query per (system, role) — the
// nine cells of the facade's query surface — with the allocations one
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
//
//	                                                             served
//	MDS      information     72 →  27 →  28                        23
//	MDS      directory      192 →  67 →  68                        56
//	MDS      aggregate     1184 →  98 →  99                        20
//	R-GMA    information    113 →  72 →  33 →  34                  19
//	R-GMA    directory       95 →  32 →  32                        13
//	R-GMA    aggregate      615 → 210 → 101 → 102                  12
//	Hawkeye  information    482 → 122 →  14 →  16                  11
//	Hawkeye  directory     1042 →  14 →  15                         9
//	Hawkeye  aggregate     1054 →  39 →  40                        27
var allocBudgetCells = []allocBudgetCell{
	{Query{System: MDS, Role: RoleInformationServer, Host: "lucky4", Expr: "(objectclass=MdsCpu)"}, 30},
	{Query{System: MDS, Role: RoleDirectoryServer, Expr: "(objectclass=MdsHost)", Attrs: []string{"Mds-Host-hn"}}, 74},
	{Query{System: MDS, Role: RoleAggregateServer}, 108},
	{Query{System: RGMA, Role: RoleInformationServer, Host: "lucky4", Expr: "SELECT host, value FROM siteinfo WHERE value >= 50"}, 36},
	{Query{System: RGMA, Role: RoleDirectoryServer, Expr: "siteinfo"}, 36},
	{Query{System: RGMA, Role: RoleAggregateServer, Expr: "SELECT * FROM siteinfo", Attrs: []string{"host", "value"}}, 111},
	{Query{System: Hawkeye, Role: RoleInformationServer, Host: "lucky4"}, 16},
	{Query{System: Hawkeye, Role: RoleDirectoryServer, Attrs: []string{"Name", "CpuLoad"}}, 16},
	{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: `TARGET.OpSys == "LINUX"`}, 43},
}

// allocBudgetCell is a query and the allocations one run of it may cost.
type allocBudgetCell struct {
	q      Query
	budget float64
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
		name := fmt.Sprintf("%s/%s", cell.q.System, cell.q.Role)
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
// plus ~15 for the call. The last number is the server encoding its flat
// answer instead of a []Record. Under GOEXPERIMENT=noswissmap the cells
// measure 84, 104 and 19 — the same or lower.
//
//	MDS aggregate      36 records, 162 fields   441 →  91 →  90
//	R-GMA aggregate    45 records,  90 fields   335 → 105 → 104
//	Hawkeye aggregate   3 records,  69 fields   163 →  25 →  24
var remoteAllocBudgetCells = []allocBudgetCell{
	{Query{System: MDS, Role: RoleAggregateServer}, 100},
	{Query{System: RGMA, Role: RoleAggregateServer, Expr: "SELECT * FROM siteinfo", Attrs: []string{"host", "value"}}, 115},
	{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: `TARGET.OpSys == "LINUX"`}, 28},
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
var serverAllocBudgets = []float64{25, 62, 22, 21, 14, 13, 12, 10, 30}

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
	serve := queryV3(g)
	ctx := context.Background()
	var out []byte
	for i, cell := range allocBudgetCells {
		name := fmt.Sprintf("%s/%s", cell.q.System, cell.q.Role)
		rs, err := g.Query(ctx, cell.q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := appendWireQuery(nil, cell.q)
		call := func() {
			b, terr := serve(ctx, body, out[:0])
			if terr != nil {
				t.Fatal(terr)
			}
			out = b
		}
		call()
		served := testing.AllocsPerRun(200, call)
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
