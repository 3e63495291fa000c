package federation_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/faultconn"
	"repro/internal/federation"
	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// The served Router. What a RemoteGrid dialed to router.Serve receives
// must be what Router.Query answers in-process and what the oracle
// merges: Records in their JSON form (the wire's contract: an empty
// field map crosses it as absent), Work, Partial and Branches.

// serveRouter serves r on loopback and returns a client dialed to it.
func serveRouter(t *testing.T, r *federation.Router) *gridmon.RemoteGrid {
	t.Helper()
	srv := transport.NewServer()
	r.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	remote, err := gridmon.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return remote
}

// edgeQueries are the edge cases of a flat answer, over the federation:
// projections that keep no field (zero-field records), a column selected
// twice, host-targeted and broad, an Agent constraint that rejects (the
// owning leaf's nil records) and broad queries that match nothing (an
// empty merge).
func edgeQueries(host string) []gridmon.Query {
	return []gridmon.Query{
		{System: gridmon.MDS, Role: gridmon.RoleAggregateServer, Expr: "(objectclass=MdsCpu)", Attrs: []string{""}},
		{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer, Attrs: []string{""}},
		{System: gridmon.RGMA, Host: host, Expr: "SELECT host, value FROM siteinfo", Attrs: []string{""}},
		{System: gridmon.RGMA, Host: host, Expr: "SELECT host, host FROM siteinfo"},
		{System: gridmon.RGMA, Expr: "SELECT host, host FROM siteinfo"},
		{System: gridmon.Hawkeye, Host: host, Expr: "false"},
		{System: gridmon.RGMA, Expr: "SELECT * FROM siteinfo WHERE value > 1000000"},
		{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer, Expr: "false"},
	}
}

// sameAnswer fails t when got and want differ in Records (JSON form),
// Work, Partial or Branches.
func sameAnswer(t *testing.T, what string, q gridmon.Query, got, want *gridmon.ResultSet) {
	t.Helper()
	g, err := json.Marshal(got.Records)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) || got.Work != want.Work || got.Partial != want.Partial || !reflect.DeepEqual(got.Branches, want.Branches) {
		t.Errorf("%s: %+v differs\ngot:  %s %+v partial=%v %+v\nwant: %s %+v partial=%v %+v",
			what, q, g, got.Work, got.Partial, got.Branches, w, want.Work, want.Partial, want.Branches)
	}
}

// TestServedRouterDifferential: over every broad and host-targeted
// query of the differential suite and the flat answer's edge cases, a
// served Router answers what Router.Query answers and what the oracle
// merges from the leaf grids directly. Then one Router answer asked
// twice comes back as the same pairs in the same order: the frames
// follow the leaves' order, not a map's.
func TestServedRouterDifferential(t *testing.T) {
	leakcheck.Check(t)
	// Three trees over the same shards take the same queries in the same
	// order, so an engine that answers a repeat from warm state (the R-GMA
	// mediator) is warm alike in all three: one served, one asked
	// in-process, and the oracle's grids, asked directly.
	served := newCluster(t, 3, nil, federation.Config{})
	inProcess := newCluster(t, 3, nil, federation.Config{})
	oracle := make([]*gridmon.Grid, len(served.parts))
	for i, hosts := range served.parts {
		oracle[i] = buildGrid(t, hosts)
	}
	smap := served.router.Map()
	remote := serveRouter(t, served.router)
	ctx := testCtx(t)

	qs := append([]gridmon.Query(nil), broadQueries...)
	for _, host := range fedHosts {
		qs = append(qs, hostQueries(host)...)
	}
	qs = append(qs, edgeQueries(fedHosts[4])...)
	var nilRecs, emptyRecs, zeroFields bool
	for _, q := range qs {
		got, err := remote.Query(ctx, q)
		if err != nil {
			t.Fatalf("%+v served: %v", q, err)
		}
		direct, err := inProcess.router.Query(ctx, q)
		if err != nil {
			t.Fatalf("%+v in-process: %v", q, err)
		}
		var want *gridmon.ResultSet
		if q.Host != "" {
			want, err = oracle[smap.ShardFor(q.Host)].Query(ctx, q)
		} else {
			parts := make([]*gridmon.ResultSet, len(oracle))
			for i, g := range oracle {
				if parts[i], err = g.Query(ctx, q); err != nil {
					break
				}
			}
			want = federation.MergeResultSets(q, parts)
		}
		if err != nil {
			t.Fatalf("%+v oracle: %v", q, err)
		}
		sameAnswer(t, "served vs in-process", q, got, direct)
		sameAnswer(t, "served vs oracle", q, got, want)
		nilRecs = nilRecs || direct.Records == nil
		emptyRecs = emptyRecs || (direct.Records != nil && len(direct.Records) == 0)
		for _, rec := range direct.Records {
			zeroFields = zeroFields || len(rec.Fields) == 0
		}
	}
	if !nilRecs || !emptyRecs || !zeroFields {
		t.Errorf("cases not covered: nil records %v, empty records %v, zero-field record %v", nilRecs, emptyRecs, zeroFields)
	}

	q := gridmon.Query{System: gridmon.MDS, Role: gridmon.RoleAggregateServer}
	first, err := remote.AppendQuery(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := remote.AppendQuery(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed is the one thing two answers do not share.
	first, again = gridmon.StampElapsed(first, 0, 0), gridmon.StampElapsed(again, 0, 0)
	if len(first) < 1000 || !bytes.Equal(first, again) {
		t.Errorf("one Router answer came back as two different frames (%d and %d bytes)", len(first), len(again))
	}
}

// TestServedRouterDegradation: a partial answer and a degraded failure
// reach a served Router's client exactly as Router.Query returns them.
func TestServedRouterDegradation(t *testing.T) {
	leakcheck.Check(t)
	// A breaker that never opens keeps a dead leaf's branch error a dial
	// refusal on every ask.
	dial := gridmon.DialOptions{Breaker: gridmon.Breaker{Threshold: 1 << 20}}
	t.Run("best-effort", func(t *testing.T) {
		c := newCluster(t, 3, nil, federation.Config{Dial: dial})
		remote := serveRouter(t, c.router)
		c.kill(1)
		ctx := testCtx(t)
		got, err := remote.Query(ctx, mdsBroad)
		if err != nil {
			t.Fatalf("served: %v", err)
		}
		direct, err := c.router.Query(ctx, mdsBroad)
		if err != nil {
			t.Fatalf("in-process: %v", err)
		}
		if !got.Partial || len(got.Branches) != 1 || got.Branches[0].Shard != 1 {
			t.Fatalf("want a partial answer naming shard 1: partial=%v branches=%+v", got.Partial, got.Branches)
		}
		want, err := c.oracleMergeShards(ctx, mdsBroad, []int{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		want.Partial, want.Branches = true, direct.Branches
		sameAnswer(t, "served vs in-process", mdsBroad, got, direct)
		sameAnswer(t, "served vs surviving shards", mdsBroad, got, want)
	})
	t.Run("fail-fast", func(t *testing.T) {
		// The live leaves stall their answers, so the dead leaf's refusal
		// always cancels them first: every ask fails the same branches the
		// same way.
		stall := faultconn.Plan{Seed: 1, StallEvery: 1, StallFor: 2 * time.Second}
		c := newCluster(t, 3, []faultconn.Plan{stall, stall}, federation.Config{Policy: federation.FailFast, Dial: dial})
		remote := serveRouter(t, c.router)
		c.kill(2)
		ctx := testCtx(t)
		_, served := remote.Query(ctx, mdsBroad)
		_, direct := c.router.Query(ctx, mdsBroad)
		if !errors.Is(served, gridmon.ErrDegraded) || !errors.Is(direct, gridmon.ErrDegraded) {
			t.Fatalf("want CodeDegraded both ways: served %v, in-process %v", served, direct)
		}
		if served.Error() != direct.Error() {
			t.Errorf("degraded error text differs\nserved:     %s\nin-process: %s", served, direct)
		}
		if n := strings.Count(direct.Error(), "canceled after shard 2 failed [canceled]"); n != 2 {
			t.Errorf("want both stalled siblings canceled by shard 2's failure, got %d: %s", n, direct)
		}
	})
}

// TestServedRouterAllocBudget pins what one query through a served
// Router costs, counted over the whole process: the RemoteGrid client,
// the Router and its branch clients, and the three loopback leaves that
// answer. Measured +10% on go1.24.0 linux/amd64, before → after the
// Router read its branches flat and served the merged answer flat (the
// R-GMA cell then measured 68 once the leaves kept each expression
// parsed), after each v3 hop stopped allocating in the transport (8
// fewer per hop, the client's hop to the Router and the Router's to
// each leaf it asks), and after a query's cost at the Router stopped
// growing with the shard count: no context, goroutine or second copy of
// the answer per branch (GOEXPERIMENT=noswissmap: 331, 49, 15 and 93),
// after the Router merged into, and decoded a routed answer into, the
// scratch Answer its handler lends, and each leaf rendered into scratch
// too (noswissmap: 319, 37, 15 and 85), and after the Router stopped
// decoding its branches' replies and spliced their bytes instead: one
// text copy fewer per branch (the last numbers).
//
// Most of those allocations were the end client's field maps, until
// the client decoded a record once (its RecordTable): a repeated answer
// now costs its ResultSet and its []Record, whatever its size (the last
// step; one for the empty answer, whose empty []Record costs nothing).
// The second budget leaves the client out: the Router's own
// AppendQuery, what its grid.query handler runs, appending into a reused
// buffer, with the leaves that answer it. Once warm the Router itself
// allocates nothing (a profile at MemProfileRate 1 finds only its pools
// refilling after a GC), and since a served query allocates nothing at a
// leaf either (gridmon's TestServerQueryAllocBudget), neither does the
// tree: before, every count there was the leaves' own, the request text
// each leaf's handler decoded and what its engine built (the last step).
// The third is an in-process Router.Query, which decodes through the
// Router's own RecordTable: before → after it stopped decoding every
// answer afresh (DecodeReply). GOEXPERIMENT=noswissmap measures the same
// after, all three columns.
//
//	                                                                     with the client   Router   in-process
//	MDS aggregate, broad (144 records)       737 → 412 → 380 → 355 → 343 → 340 → 315 → 2   24 → 0   315 → 2
//	R-GMA information, node04 (15 records)   105 →  71 →  52 →  49 →  37 →  36 →  33 → 2    2 → 0    33 → 2
//	Hawkeye aggregate, broad, matches nothing           35 →  15 →  15 →  9 →   2 → 1    6 → 0     2 → 1
//	R-GMA directory, broad (36 records)                119 →  93 →  85 →  82 →  75 → 2    6 → 0    75 → 2
func TestServedRouterAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	c := newCluster(t, 3, nil, federation.Config{})
	remote := serveRouter(t, c.router)
	ctx := context.Background()
	for _, cell := range []struct {
		q                        gridmon.Query
		budget, router, inRouter float64
		empty                    bool // the query matches nothing
	}{
		{gridmon.Query{System: gridmon.MDS, Role: gridmon.RoleAggregateServer}, 2.2, 0, 2.2, false},
		{gridmon.Query{System: gridmon.RGMA, Host: fedHosts[4], Expr: "SELECT host, metric, value FROM siteinfo"}, 2.2, 0, 2.2, false},
		{gridmon.Query{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer, Expr: "LoadAvg < 5"}, 1.1, 0, 1.1, true},
		{gridmon.Query{System: gridmon.RGMA, Role: gridmon.RoleDirectoryServer}, 2.2, 0, 2.2, false},
	} {
		rs, err := remote.Query(ctx, cell.q)
		if err != nil {
			t.Fatalf("%+v: %v", cell.q, err)
		}
		if (len(rs.Records) == 0) != cell.empty {
			t.Fatalf("%+v: %d records, want empty %v", cell.q, len(rs.Records), cell.empty)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := remote.Query(ctx, cell.q); err != nil {
				t.Fatal(err)
			}
		})
		var buf []byte
		router := testing.AllocsPerRun(200, func() {
			if buf, err = c.router.AppendQuery(ctx, cell.q, buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		inRouter := testing.AllocsPerRun(200, func() {
			if _, err := c.router.Query(ctx, cell.q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s/%s host=%q: %d records, %.0f allocs/query (budget %.1f), %.0f at the Router (budget %.0f), %.0f in-process (budget %.1f)",
			cell.q.System, cell.q.Role, cell.q.Host, len(rs.Records), allocs, cell.budget, router, cell.router, inRouter, cell.inRouter)
		if allocs > cell.budget {
			t.Errorf("%s/%s host=%q: %.0f allocs/query, budget %.1f", cell.q.System, cell.q.Role, cell.q.Host, allocs, cell.budget)
		}
		if router > cell.router {
			t.Errorf("%s/%s host=%q: %.0f allocs/query at the Router, budget %.0f", cell.q.System, cell.q.Role, cell.q.Host, router, cell.router)
		}
		if inRouter > cell.inRouter {
			t.Errorf("%s/%s host=%q: %.0f allocs per in-process Router.Query, budget %.1f", cell.q.System, cell.q.Role, cell.q.Host, inRouter, cell.inRouter)
		}
	}
}
