package gridmon

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// callOp calls one param-based op the way every client does: a
// JSON-bodied OpRequest in, an OpResponse payload out.
func callOp(remote *RemoteGrid, op string, params map[string]string) (string, error) {
	var resp OpResponse
	err := remote.Call(context.Background(), op, OpRequest{Params: params}, &resp)
	return resp.Payload, err
}

// startLive serves the full three-system grid over TCP.
func startLive(t *testing.T) *RemoteGrid {
	t.Helper()
	return serveGrid(t, newTestGrid(t))
}

func TestLiveMDSQueryOverTCP(t *testing.T) {
	out, err := callOp(startLive(t), "mds.query", map[string]string{
		"filter": "(objectclass=MdsCpu)",
		"attrs":  "Mds-Cpu-Free-1minX100",
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "dn: ") != 3 {
		t.Fatalf("mds.query = %q", out)
	}
	if !strings.Contains(out, "Mds-Cpu-Free-1minX100: ") {
		t.Fatalf("projection missing: %q", out)
	}
}

func TestLiveMDSHosts(t *testing.T) {
	out, err := callOp(startLive(t), "mds.hosts", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range testHosts {
		if !strings.Contains(out, h) {
			t.Fatalf("hosts = %q missing %s", out, h)
		}
	}
}

func TestLiveRGMAQueryOverTCP(t *testing.T) {
	out, err := callOp(startLive(t), "rgma.query", map[string]string{
		"sql": "SELECT host, value FROM siteinfo WHERE value >= 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 3 hosts x 3 producers x 5 metrics.
	if len(lines) != 1+45 {
		t.Fatalf("rgma.query returned %d lines", len(lines))
	}
	if lines[0] != "host,value" {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestLiveRGMATables(t *testing.T) {
	out, err := callOp(startLive(t), "rgma.tables", nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "siteinfo" {
		t.Fatalf("tables = %q", out)
	}
}

func TestLiveHawkeyeQueryOverTCP(t *testing.T) {
	out, err := callOp(startLive(t), "hawkeye.query", map[string]string{
		"constraint": "TARGET.CpuLoad >= 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "Name = ") != 3 {
		t.Fatalf("hawkeye.query = %q", out)
	}
}

func TestLiveHawkeyePool(t *testing.T) {
	out, err := callOp(startLive(t), "hawkeye.pool", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 3 {
		t.Fatalf("pool = %q", out)
	}
}

func TestLiveOpsComplete(t *testing.T) {
	srv := transport.NewServer()
	newTestGrid(t).Serve(srv)
	want := []string{"mds.query", "mds.hosts", "rgma.query", "rgma.tables", "hawkeye.query", "hawkeye.pool"}
	got := map[string]bool{}
	for _, op := range srv.Ops() {
		got[op] = true
	}
	for _, op := range want {
		if !got[op] {
			t.Errorf("missing op %q", op)
		}
	}
}

// TestLiveErrorCodes: parse failures, missing params, refused statements
// and unknown ops carry structured codes.
func TestLiveErrorCodes(t *testing.T) {
	remote := startLive(t)
	cases := []struct {
		op     string
		params map[string]string
		code   ErrorCode
	}{
		{"mds.query", map[string]string{"filter": "(((broken"}, ErrParse},
		{"hawkeye.query", map[string]string{"constraint": "1 +"}, ErrParse},
		{"rgma.query", nil, ErrBadRequest},
		{"rgma.query", map[string]string{"sql": "DELETE FROM siteinfo"}, ErrExec},
		{"no.such.op", nil, ErrUnknownOp},
	}
	for _, tc := range cases {
		_, err := callOp(remote, tc.op, tc.params)
		if CodeOf(err) != tc.code {
			t.Errorf("%s %v: err = %v, want code %s", tc.op, tc.params, err, tc.code)
		}
	}
}

// TestPartialDeploymentUnavailable: ops for a system the grid does not
// deploy fail with the unavailable code instead of panicking.
func TestPartialDeploymentUnavailable(t *testing.T) {
	remote := serveGrid(t, newTestGrid(t, WithSystems(MDS, RGMA))) // no Hawkeye here
	for _, op := range []string{"hawkeye.query", "hawkeye.pool"} {
		_, err := callOp(remote, op, nil)
		if CodeOf(err) != ErrUnavailable || !strings.Contains(err.Error(), "Hawkeye is not deployed") {
			t.Errorf("%s: err = %v, want unavailable", op, err)
		}
	}
	if _, err := callOp(remote, "mds.hosts", nil); err != nil {
		t.Errorf("mds.hosts on the same server: %v", err)
	}
}

// TestLegacyOpKeepsResultCache: a legacy op is a reader like grid.query.
// It does not flush the query result cache — the same query on either
// side of an mds.hosts / rgma.tables / hawkeye.pool is a hit — and it
// does not wait for a query that is still executing under the read lock.
func TestLegacyOpKeepsResultCache(t *testing.T) {
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
	grid := newTestGrid(t, clock, WithQueryCache(time.Hour))
	remote := serveGrid(t, grid)
	ctx := context.Background()
	q := Query{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)"}
	if _, err := grid.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"mds.hosts", "rgma.tables", "hawkeye.pool"} {
		if _, err := callOp(remote, op, nil); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		again, err := grid.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if again.Work.CacheHits != 1 {
			t.Errorf("query after %s: Work %+v, want a cache hit", op, again.Work)
		}
	}

	hold.Store(true)
	slow := make(chan error, 1)
	go func() {
		_, err := grid.Query(ctx, Query{System: Hawkeye, Role: RoleAggregateServer})
		slow <- err
	}()
	<-entered // the slow query now holds the read lock
	opDone := make(chan error, 1)
	go func() {
		_, err := callOp(remote, "mds.hosts", nil)
		opDone <- err
	}()
	select {
	case err := <-opDone:
		if err != nil {
			t.Errorf("mds.hosts beside a running query: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("mds.hosts waited for a query that only holds the read lock")
	}
	close(release)
	if err := <-slow; err != nil {
		t.Errorf("slow query: %v", err)
	}
}
