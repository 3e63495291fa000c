package gridmon

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// startLive serves the full three-system grid over TCP.
func startLive(t *testing.T) *RemoteGrid {
	t.Helper()
	return serveGrid(t, newTestGrid(t))
}

// liveQuery runs q against remote, failing the test on an error.
func liveQuery(t *testing.T, remote *RemoteGrid, q Query) *ResultSet {
	t.Helper()
	rs, err := remote.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("%+v: %v", q, err)
	}
	return rs
}

func TestLiveMDSQueryOverTCP(t *testing.T) {
	rs := liveQuery(t, startLive(t), Query{System: MDS, Role: RoleAggregateServer,
		Expr: "(objectclass=MdsCpu)", Attrs: []string{"Mds-Cpu-Free-1minX100"}})
	if rs.Len() != len(testHosts) {
		t.Fatalf("%d CPU entries, want one per host: %v", rs.Len(), rs.Records)
	}
	for _, r := range rs.Records {
		if names := r.SortedFieldNames(); !slices.Equal(names, []string{"Mds-Cpu-Free-1minX100"}) {
			t.Fatalf("projection kept %v", names)
		}
	}
}

// TestLiveMDSHosts: the GIIS directory query names every registered
// host.
func TestLiveMDSHosts(t *testing.T) {
	rs := liveQuery(t, startLive(t), Query{System: MDS, Role: RoleDirectoryServer})
	for _, h := range testHosts {
		if !slices.ContainsFunc(rs.Records, func(r Record) bool { return strings.Contains(r.Key, "Mds-Host-hn="+h) }) {
			t.Errorf("directory answer has no entry for %s", h)
		}
	}
}

func TestLiveRGMAQueryOverTCP(t *testing.T) {
	rs := liveQuery(t, startLive(t), Query{System: RGMA,
		Expr: "SELECT host, value FROM siteinfo WHERE value >= 0"})
	// 3 hosts x 3 producers x 5 metrics, through the mediating consumer.
	if rs.Len() != 45 {
		t.Fatalf("mediated query returned %d rows", rs.Len())
	}
	if names := rs.Records[0].SortedFieldNames(); !slices.Equal(names, []string{"host", "value"}) {
		t.Fatalf("columns = %v", names)
	}
}

// TestLiveRGMATables: the Registry lookup resolves every producer of the
// one advertised table.
func TestLiveRGMATables(t *testing.T) {
	rs := liveQuery(t, startLive(t), Query{System: RGMA, Role: RoleDirectoryServer, Expr: "siteinfo"})
	if rs.Len() != 9 {
		t.Fatalf("%d producers, want 3 per host", rs.Len())
	}
	for _, r := range rs.Records {
		if r.Fields["table"] != "siteinfo" {
			t.Fatalf("advertisement %v", r)
		}
	}
}

func TestLiveHawkeyeQueryOverTCP(t *testing.T) {
	rs := liveQuery(t, startLive(t), Query{System: Hawkeye, Role: RoleAggregateServer,
		Expr: "TARGET.CpuLoad >= 0"})
	if rs.Len() != len(testHosts) {
		t.Fatalf("Manager scan returned %d ads", rs.Len())
	}
}

// TestLiveHawkeyePool: the Manager's directory answer is the pool, one
// ad per machine, keyed by name.
func TestLiveHawkeyePool(t *testing.T) {
	rs := liveQuery(t, startLive(t), Query{System: Hawkeye, Role: RoleDirectoryServer})
	var keys []string
	for _, r := range rs.Records {
		keys = append(keys, r.Key)
	}
	if !slices.Equal(keys, testHosts) {
		t.Fatalf("pool = %v, want %v", keys, testHosts)
	}
}

// TestLiveOpsComplete: Grid.Serve registers exactly the documented
// namespace, grid.query the one read op among it.
func TestLiveOpsComplete(t *testing.T) {
	srv := transport.NewServer()
	newTestGrid(t).Serve(srv)
	got := srv.Ops()
	slices.Sort(got)
	want := []string{"grid.hosts", "grid.query", "grid.subscribe", "grid.systems", "ops.list", "ops.stats"}
	if !slices.Equal(got, want) {
		t.Fatalf("ops = %v, want %v", got, want)
	}
}

// TestLiveErrorCodes: over the wire, parse failures, refused statements,
// bad targets and unknown ops carry structured codes (the cases
// TestQueryErrorEquivalence does not already cover).
func TestLiveErrorCodes(t *testing.T) {
	remote := startLive(t)
	ctx := context.Background()
	cases := []struct {
		q    Query
		code ErrorCode
	}{
		{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: "1 +"}, ErrParse},
		{Query{System: RGMA, Expr: "DELETE FROM siteinfo"}, ErrParse},
		{Query{System: RGMA, Host: "nope"}, ErrBadRequest},
		{Query{System: Hawkeye}, ErrBadRequest},
		{Query{System: Hawkeye, Host: "nope"}, ErrBadRequest},
		{Query{System: RGMA, Role: "Oracle"}, ErrBadRequest},
	}
	for _, tc := range cases {
		if _, err := remote.Query(ctx, tc.q); CodeOf(err) != tc.code {
			t.Errorf("%+v: err = %v, want code %s", tc.q, err, tc.code)
		}
	}
	if err := remote.Call(ctx, "no.such.op", nil, nil); CodeOf(err) != ErrUnknownOp {
		t.Errorf("no.such.op: err = %v, want %s", err, ErrUnknownOp)
	}
}

// TestPartialDeploymentUnavailable: queries for a system the grid does
// not deploy fail with the unavailable code instead of panicking, and the
// same server goes on answering for the systems it has.
func TestPartialDeploymentUnavailable(t *testing.T) {
	remote := serveGrid(t, newTestGrid(t, WithSystems(MDS, RGMA))) // no Hawkeye here
	ctx := context.Background()
	for _, role := range []Role{RoleAggregateServer, RoleDirectoryServer} {
		_, err := remote.Query(ctx, Query{System: Hawkeye, Role: role})
		if CodeOf(err) != ErrUnavailable || !strings.Contains(err.Error(), "Hawkeye is not deployed") {
			t.Errorf("Hawkeye %s: err = %v, want unavailable", role, err)
		}
	}
	liveQuery(t, remote, Query{System: MDS, Role: RoleDirectoryServer})
}

// TestQueryRunsBesideParkedQuery: readers do not wait for each other. A
// query parked inside its engine call, holding the facade's read lock,
// does not hold up a query from another client.
func TestQueryRunsBesideParkedQuery(t *testing.T) {
	// The clock is read once per engine call, under the read lock: arming
	// hold parks the next query there for as long as the test wants.
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	clock := WithClock(func() float64 {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return 1
	})
	grid := newTestGrid(t, clock)
	remote := serveGrid(t, grid)
	ctx := context.Background()

	hold.Store(true)
	slow := make(chan error, 1)
	go func() {
		_, err := grid.Query(ctx, Query{System: Hawkeye, Role: RoleAggregateServer})
		slow <- err
	}()
	<-entered // the slow query now holds the read lock
	done := make(chan error, 1)
	go func() {
		_, err := remote.Query(ctx, Query{System: MDS, Role: RoleDirectoryServer})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("query beside a parked one: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a query waited for another that only holds the read lock")
	}
	close(release)
	if err := <-slow; err != nil {
		t.Errorf("parked query: %v", err)
	}
}

// TestQueryAttrsProjectLikeProjectRecords: in every (system, role) cell,
// a query with Attrs answers with the records ProjectRecords cuts from
// the unprojected answer, and the same Work — except that MDS projects
// inside the LDAP search, so its response is smaller by what the
// projection dropped.
func TestQueryAttrsProjectLikeProjectRecords(t *testing.T) {
	grid := newTestGrid(t)
	ctx := context.Background()
	mdsAttrs := []string{"Mds-Cpu-Free-1minX100", "objectclass"}
	cases := []struct {
		q     Query
		attrs []string
	}{
		{Query{System: MDS, Host: "lucky3"}, mdsAttrs},
		{Query{System: MDS, Role: RoleDirectoryServer}, mdsAttrs},
		{Query{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)"}, mdsAttrs},
		{Query{System: RGMA, Host: "lucky4"}, []string{"host", "value"}},
		{Query{System: RGMA}, []string{"value", "metric"}},
		{Query{System: RGMA, Role: RoleDirectoryServer}, []string{"table", "predicate"}},
		{Query{System: RGMA, Role: RoleAggregateServer}, []string{"host"}},
		{Query{System: Hawkeye, Host: "lucky7"}, []string{"CpuLoad", "OpSys", "nosuch"}},
		{Query{System: Hawkeye, Role: RoleDirectoryServer}, []string{"Name", "cpuload"}},
		{Query{System: Hawkeye, Role: RoleAggregateServer}, []string{"Name", "CpuLoad"}},
	}
	for _, c := range cases {
		// A first query lets the composite pull its producers' streams,
		// which it then serves from until its refresh interval passes.
		if _, err := grid.Query(ctx, c.q); err != nil {
			t.Fatalf("%+v: %v", c.q, err)
		}
		full, err := grid.Query(ctx, c.q)
		if err != nil {
			t.Fatalf("%+v: %v", c.q, err)
		}
		pq := c.q
		pq.Attrs = c.attrs
		part, err := grid.Query(ctx, pq)
		if err != nil {
			t.Fatalf("%+v: %v", pq, err)
		}
		if want := core.ProjectRecords(full.Records, c.attrs); !reflect.DeepEqual(part.Records, want) {
			t.Errorf("%+v:\n got %v\nwant %v", pq, part.Records, want)
		}
		fw, pw := full.Work, part.Work
		if c.q.System == MDS {
			if pw.ResponseBytes >= fw.ResponseBytes {
				t.Errorf("%+v: projected response %d bytes, unprojected %d", pq, pw.ResponseBytes, fw.ResponseBytes)
			}
			pw.ResponseBytes = fw.ResponseBytes
		}
		if pw != fw {
			t.Errorf("%+v: projecting changed Work: %+v vs %+v", pq, pw, fw)
		}
	}
}

// TestQueryCacheKeyIsInjective: two queries that ask for different
// fields never share a cache entry — keeping no fields (Attrs [""]) is
// not keeping all of them (nil), and one attribute name holding a NUL is
// not two names. Each second query must answer what an uncached grid
// answers, in-process and over the wire.
func TestQueryCacheKeyIsInjective(t *testing.T) {
	pairs := []struct{ first, second Query }{
		{Query{System: Hawkeye, Role: RoleAggregateServer},
			Query{System: Hawkeye, Role: RoleAggregateServer, Attrs: []string{""}}},
		{Query{System: RGMA, Host: "lucky4"},
			Query{System: RGMA, Host: "lucky4", Attrs: []string{""}}},
		{Query{System: MDS, Host: "lucky3"},
			Query{System: MDS, Host: "lucky3", Attrs: []string{""}}},
		{Query{System: Hawkeye, Role: RoleAggregateServer, Attrs: []string{"Name\x00CpuLoad"}},
			Query{System: Hawkeye, Role: RoleAggregateServer, Attrs: []string{"Name", "CpuLoad"}}},
	}
	uncached := newTestGrid(t)
	ctx := context.Background()
	for _, p := range pairs {
		want, err := uncached.Query(ctx, p.second)
		if err != nil {
			t.Fatal(err)
		}
		cached := newTestGrid(t, WithQueryCache(time.Minute))
		remote := serveGrid(t, newTestGrid(t, WithQueryCache(time.Minute)))
		for _, q := range []Querier{cached, remote} {
			if _, err := q.Query(ctx, p.first); err != nil {
				t.Fatal(err)
			}
			got, err := q.Query(ctx, p.second)
			if err != nil {
				t.Fatal(err)
			}
			if recordsJSON(t, got.Records) != recordsJSON(t, want.Records) {
				t.Errorf("%T: %q after %q:\n got %v\nwant %v", q, p.second.Attrs, p.first.Attrs, got.Records, want.Records)
			}
		}
	}
}
