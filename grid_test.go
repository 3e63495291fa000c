package gridmon

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
)

// testHosts is the host set every equivalence test deploys.
var testHosts = []string{"lucky3", "lucky4", "lucky7"}

// fixedClock pins a grid's time so two independently built grids answer
// queries identically.
func fixedClock(t float64) Option { return WithClock(func() float64 { return t }) }

// newTestGrid builds one fully-populated deterministic grid.
func newTestGrid(t *testing.T, opts ...Option) *Grid {
	t.Helper()
	grid, err := New(append([]Option{WithHosts(testHosts...), fixedClock(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// serveGrid exposes a grid on a loopback transport server and returns a
// connected remote client.
func serveGrid(t *testing.T, grid *Grid) *RemoteGrid {
	t.Helper()
	srv := transport.NewServer()
	grid.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	remote, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote
}

// TestQueryEquivalence is the v2 API's core contract: the same Query
// executed in-process and over TCP returns identical records and Work
// for every system and role. Two identically-constructed grids (one
// local, one behind a loopback server) see the same ordered query
// sequence, so their cache state evolves in lockstep.
func TestQueryEquivalence(t *testing.T) {
	local := newTestGrid(t)
	remote := serveGrid(t, newTestGrid(t))
	ctx := context.Background()

	queries := []Query{
		// MDS: information server, aggregate, directory — RFC 1960 dialect.
		{System: MDS, Role: RoleInformationServer, Host: "lucky3", Expr: "(objectclass=MdsCpu)"},
		{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)", Attrs: []string{"Mds-Cpu-Free-1minX100"}},
		{System: MDS, Role: RoleDirectoryServer},
		// R-GMA: direct servlet, mediated consumer, registry, composite — SQL dialect.
		{System: RGMA, Role: RoleInformationServer, Host: "lucky4", Expr: "SELECT host, value FROM siteinfo"},
		{System: RGMA, Role: RoleInformationServer, Expr: "SELECT host, metric, value FROM siteinfo WHERE value >= 50"},
		{System: RGMA, Role: RoleDirectoryServer, Expr: "siteinfo"},
		{System: RGMA, Role: RoleAggregateServer, Expr: "SELECT host, value FROM siteinfo"},
		// Hawkeye: agent, manager scan, directory — ClassAd dialect.
		{System: Hawkeye, Role: RoleInformationServer, Host: "lucky7"},
		{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.CpuLoad >= 0"},
		{System: Hawkeye, Role: RoleDirectoryServer},
	}
	for _, q := range queries {
		inProc, err := local.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s/%s in-process: %v", q.System, q.Role, err)
		}
		overTCP, err := remote.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s/%s over TCP: %v", q.System, q.Role, err)
		}
		if inProc.Len() == 0 {
			t.Errorf("%s/%s returned no records", q.System, q.Role)
		}
		if !reflect.DeepEqual(inProc.Records, overTCP.Records) {
			t.Errorf("%s/%s: records differ\nin-process: %+v\nover TCP:   %+v",
				q.System, q.Role, inProc.Records, overTCP.Records)
		}
		if inProc.Work != overTCP.Work {
			t.Errorf("%s/%s: work differs\nin-process: %+v\nover TCP:   %+v",
				q.System, q.Role, inProc.Work, overTCP.Work)
		}
	}
}

// TestQueryErrorEquivalence: failures carry the same structured code
// in-process and over TCP.
func TestQueryErrorEquivalence(t *testing.T) {
	local := newTestGrid(t, WithSystems(MDS))
	remote := serveGrid(t, newTestGrid(t, WithSystems(MDS)))
	ctx := context.Background()

	cases := []struct {
		name string
		q    Query
		code ErrorCode
	}{
		{"bad filter", Query{System: MDS, Role: RoleAggregateServer, Expr: "(((broken"}, ErrParse},
		{"unknown host", Query{System: MDS, Role: RoleInformationServer, Host: "nope"}, ErrBadRequest},
		{"missing host", Query{System: MDS, Role: RoleInformationServer}, ErrBadRequest},
		{"disabled system", Query{System: Hawkeye, Role: RoleAggregateServer}, ErrUnavailable},
		{"unknown system", Query{System: "AFS"}, ErrBadRequest},
		{"unknown role", Query{System: MDS, Role: "Oracle"}, ErrBadRequest},
	}
	for _, tc := range cases {
		_, err := local.Query(ctx, tc.q)
		if err == nil || CodeOf(err) != tc.code {
			t.Errorf("%s in-process: err = %v, want code %s", tc.name, err, tc.code)
		}
		_, err = remote.Query(ctx, tc.q)
		if err == nil || CodeOf(err) != tc.code {
			t.Errorf("%s over TCP: err = %v, want code %s", tc.name, err, tc.code)
		}
	}
}

// TestOptionValidation: construction rejects bad configurations.
func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"no hosts", nil},
		{"empty host", []Option{WithHosts("")}},
		{"duplicate host", []Option{WithHosts("a", "a")}},
		{"unknown system", []Option{WithHosts("a"), WithSystems("AFS")}},
		{"no systems", []Option{WithHosts("a"), WithSystems()}},
		{"zero producers", []Option{WithHosts("a"), WithRGMAProducers(0)}},
		{"empty manager", []Option{WithHosts("a"), WithManagerHost("")}},
		{"nil clock", []Option{WithHosts("a"), WithClock(nil)}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSubsetSystems: a grid deploys only what WithSystems selects, and
// accessors for the rest report absence.
func TestSubsetSystems(t *testing.T) {
	grid := newTestGrid(t, WithSystems(RGMA))
	if got := grid.Systems(); len(got) != 1 || got[0] != RGMA {
		t.Fatalf("systems = %v", got)
	}
	if giis, grises := grid.MDS(); giis != nil || grises != nil {
		t.Error("MDS components present in R-GMA-only grid")
	}
	if mgr, agents := grid.HawkeyePool(); mgr != nil || agents != nil {
		t.Error("Hawkeye components present in R-GMA-only grid")
	}
	if _, err := grid.Query(context.Background(), Query{System: MDS}); CodeOf(err) != ErrUnavailable {
		t.Errorf("MDS query on R-GMA-only grid: %v", err)
	}
}

// TestRGMAProvablyEmptyWork pins the Work of a WHERE that matches no row
// by its types alone: ts = 1.5 on the INT ts column is answered without
// reading a row, so it counts no scan fallback (and no index hit: no
// index serves it), while ts = 7.0, an integral real, is scanned and
// counts one fallback per servlet.
func TestRGMAProvablyEmptyWork(t *testing.T) {
	grid := newTestGrid(t, WithSystems(RGMA))
	for _, tc := range []struct {
		host, expr string
		fallbacks  int
	}{
		{"lucky3", "SELECT * FROM siteinfo WHERE ts = 1.5", 0},
		{"lucky3", "SELECT * FROM siteinfo WHERE ts = 7.0 AND host = 'x'", 1},
		{"", "SELECT * FROM siteinfo WHERE ts = 1.5", 0},
		{"", "SELECT * FROM siteinfo WHERE ts = 7.0 AND host = 'x'", len(testHosts)},
	} {
		rs, err := grid.Query(context.Background(), Query{System: RGMA, Host: tc.host, Expr: tc.expr})
		if err != nil {
			t.Fatalf("%q on %q: %v", tc.expr, tc.host, err)
		}
		if rs.Len() != 0 || rs.Work.ScanFallbacks != tc.fallbacks {
			t.Errorf("%q on %q: %d records, ScanFallbacks %d, want 0 and %d", tc.expr, tc.host, rs.Len(), rs.Work.ScanFallbacks, tc.fallbacks)
		}
		if tc.host != "" && rs.Work.IndexHits != 0 {
			t.Errorf("%q on %q: IndexHits %d, want 0", tc.expr, tc.host, rs.Work.IndexHits)
		}
	}
}

// TestRemoteIntrospection: the remote client's discovery surface.
func TestRemoteIntrospection(t *testing.T) {
	remote := serveGrid(t, newTestGrid(t))
	ctx := context.Background()
	hosts, err := remote.Hosts(ctx)
	if err != nil || !reflect.DeepEqual(hosts, testHosts) {
		t.Fatalf("hosts = %v, %v", hosts, err)
	}
	systems, err := remote.Systems(ctx)
	if err != nil || len(systems) != 3 {
		t.Fatalf("systems = %v, %v", systems, err)
	}
	ops, err := remote.Ops(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"grid.query", "grid.subscribe", "grid.hosts", "grid.systems", "ops.list", "ops.stats"} {
		found := false
		for _, op := range ops {
			if op == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("ops missing %q (got %v)", want, ops)
		}
	}
}

// TestRemoteExpiredContext: an already-expired context fails fast with
// the deadline code, without reaching the server.
func TestRemoteExpiredContext(t *testing.T) {
	remote := serveGrid(t, newTestGrid(t))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := remote.Query(ctx, Query{System: MDS, Role: RoleDirectoryServer})
	if CodeOf(err) != ErrDeadline {
		t.Fatalf("err = %v, want deadline code", err)
	}
}

// TestAttrsProjection: the uniform Attrs projection narrows records on
// every system.
func TestAttrsProjection(t *testing.T) {
	grid := newTestGrid(t)
	ctx := context.Background()
	rs, err := grid.Query(ctx, Query{
		System: Hawkeye,
		Role:   RoleAggregateServer,
		Attrs:  []string{"Name", "CpuLoad"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Records {
		if len(r.Fields) > 2 {
			t.Fatalf("projection leaked fields: %v", r.Fields)
		}
		if r.Fields["CpuLoad"] == "" {
			t.Fatalf("projection lost CpuLoad: %v", r.Fields)
		}
	}
	rs, err = grid.Query(ctx, Query{
		System: RGMA,
		Expr:   "SELECT host, metric, value FROM siteinfo",
		Attrs:  []string{"host"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 || len(rs.Records[0].Fields) != 1 {
		t.Fatalf("RGMA projection = %v", rs.Records[0].Fields)
	}
}
