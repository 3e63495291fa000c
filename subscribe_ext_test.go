package gridmon_test

import (
	"context"
	"testing"

	gridmon "repro"
	"repro/internal/federation"
	"repro/internal/leakcheck"
)

// failureWay is one way of asking: an in-process grid, a grid served on
// loopback, or a federation Router over loopback leaves, served on
// loopback itself.
type failureWay struct {
	name   string
	source interface {
		gridmon.Querier
		gridmon.Subscriber
	}
	routed bool // only host-targeted requests go this way
}

// failureWays builds the three ways over grids of hosts made with opts.
func failureWays(t *testing.T, hosts []string, opts ...gridmon.Option) []failureWay {
	t.Helper()
	grid := func(hosts []string) *gridmon.Grid {
		g, err := gridmon.New(append([]gridmon.Option{gridmon.WithHosts(hosts...)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	serve := func(serve func(*gridmon.TransportServer)) *gridmon.RemoteGrid {
		srv := gridmon.NewTransportServer()
		serve(srv)
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
	smap := federation.ShardMap{Epoch: 1, Shards: make([]federation.Shard, 3)}
	var addrs []string
	for _, part := range smap.PartitionHosts(hosts) {
		srv := gridmon.NewTransportServer()
		grid(part).Serve(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs = append(addrs, addr)
	}
	router := newRouter(t, federation.Config{Map: federation.NewShardMap(addrs...)})
	return []failureWay{
		{name: "in-process", source: grid(hosts)},
		{name: "remote", source: serve(grid(hosts).Serve)},
		{name: "served-router", source: serve(router.Serve), routed: true},
	}
}

// failureQuery is the query whose target sub names: its role, or when
// it has none the one Subscribe picks, the per-host information server
// when Host is set (R-GMA's always), otherwise the system's aggregate.
func failureQuery(sub gridmon.Subscription) gridmon.Query {
	q := gridmon.Query{System: sub.System, Role: sub.Role, Host: sub.Host, Expr: sub.Expr}
	if q.Role == "" && q.Host == "" && sub.System != gridmon.RGMA {
		q.Role = gridmon.RoleAggregateServer
	}
	return q
}

// TestSubscribeErrorEquivalence: one failure gets one code. Each case,
// a bad expression or a bad target in one of the three systems, is
// asked as a Subscription and as the Query of the same target
// (failureQuery), in-process and over a loopback server, and a
// host-targeted case also through a served Router; every way fails with
// the case's code.
func TestSubscribeErrorEquivalence(t *testing.T) {
	leakcheck.Check(t)
	const (
		mds, rgma, hawkeye = gridmon.MDS, gridmon.RGMA, gridmon.Hawkeye
		info, aggregate    = gridmon.RoleInformationServer, gridmon.RoleAggregateServer
		directory          = gridmon.RoleDirectoryServer
	)
	cases := []struct {
		name string
		sub  gridmon.Subscription
		code gridmon.ErrorCode
	}{
		{"unknown system", gridmon.Subscription{System: "AFS"}, gridmon.ErrBadRequest},
		{"unknown system at a host", gridmon.Subscription{System: "AFS", Host: "lucky3"}, gridmon.ErrBadRequest},
		{"bad filter", gridmon.Subscription{System: mds, Expr: "(((broken"}, gridmon.ErrParse},
		{"bad filter at a host", gridmon.Subscription{System: mds, Host: "lucky3", Expr: "(cn="}, gridmon.ErrParse},
		{"unknown mds host", gridmon.Subscription{System: mds, Host: "nope"}, gridmon.ErrBadRequest},
		{"mds host missing", gridmon.Subscription{System: mds, Role: info}, gridmon.ErrBadRequest},
		{"bad mds role", gridmon.Subscription{System: mds, Role: "Oracle"}, gridmon.ErrBadRequest},
		{"bad sql", gridmon.Subscription{System: rgma, Expr: "SELEKT broken"}, gridmon.ErrParse},
		{"bad sql at a host", gridmon.Subscription{System: rgma, Host: "lucky3", Expr: "DELETE FROM siteinfo"}, gridmon.ErrParse},
		{"unknown rgma host", gridmon.Subscription{System: rgma, Host: "nope"}, gridmon.ErrBadRequest},
		{"unknown rgma table", gridmon.Subscription{System: rgma, Expr: "SELECT * FROM nosuch"}, gridmon.ErrExec},
		{"unknown rgma table at a host", gridmon.Subscription{System: rgma, Host: "lucky3", Expr: "SELECT * FROM nosuch"}, gridmon.ErrExec},
		{"unknown rgma column", gridmon.Subscription{System: rgma, Expr: "SELECT * FROM siteinfo WHERE valu >= 0"}, gridmon.ErrExec},
		{"unknown rgma column at a host", gridmon.Subscription{System: rgma, Host: "lucky3", Expr: "SELECT valu FROM siteinfo"}, gridmon.ErrExec},
		{"bad rgma role", gridmon.Subscription{System: rgma, Role: "Oracle"}, gridmon.ErrBadRequest},
		{"bad constraint", gridmon.Subscription{System: hawkeye, Expr: "TARGET.&&"}, gridmon.ErrParse},
		{"bad constraint at a host", gridmon.Subscription{System: hawkeye, Host: "lucky3", Expr: "1 +"}, gridmon.ErrParse},
		{"unknown hawkeye host", gridmon.Subscription{System: hawkeye, Host: "nope"}, gridmon.ErrBadRequest},
		{"bad hawkeye role", gridmon.Subscription{System: hawkeye, Role: "Oracle"}, gridmon.ErrBadRequest},
		{"bad hawkeye role at a host", gridmon.Subscription{System: hawkeye, Role: aggregate + "s", Host: "lucky3"}, gridmon.ErrBadRequest},
		// A pool-wide role refuses a Host it does not monitor as the
		// per-host role does.
		{"unknown mds host, aggregate", gridmon.Subscription{System: mds, Role: aggregate, Host: "nope"}, gridmon.ErrBadRequest},
		{"unknown mds host, directory", gridmon.Subscription{System: mds, Role: directory, Host: "nope"}, gridmon.ErrBadRequest},
		{"unknown rgma host, aggregate", gridmon.Subscription{System: rgma, Role: aggregate, Host: "nope"}, gridmon.ErrBadRequest},
		{"unknown rgma host, directory", gridmon.Subscription{System: rgma, Role: directory, Host: "nope"}, gridmon.ErrBadRequest},
		{"unknown hawkeye host, aggregate", gridmon.Subscription{System: hawkeye, Role: aggregate, Host: "nope"}, gridmon.ErrBadRequest},
		{"unknown hawkeye host, directory", gridmon.Subscription{System: hawkeye, Role: directory, Host: "nope"}, gridmon.ErrBadRequest},
		{"bad filter at an unknown host, aggregate", gridmon.Subscription{System: mds, Role: aggregate, Host: "nope", Expr: "(cn="}, gridmon.ErrParse},
		{"bad constraint at an unknown host, aggregate", gridmon.Subscription{System: hawkeye, Role: aggregate, Host: "nope", Expr: "1 +"}, gridmon.ErrParse},
	}
	check := func(ways []failureWay, name string, sub gridmon.Subscription, code gridmon.ErrorCode) {
		ctx := context.Background()
		for _, w := range ways {
			if w.routed && sub.Host == "" {
				continue
			}
			if _, err := w.source.Subscribe(ctx, sub); gridmon.CodeOf(err) != code {
				t.Errorf("%s, subscribed %s: err = %v, want %s", name, w.name, err, code)
			}
			if _, err := w.source.Query(ctx, failureQuery(sub)); gridmon.CodeOf(err) != code {
				t.Errorf("%s, queried %s: err = %v, want %s", name, w.name, err, code)
			}
		}
	}
	ways := failureWays(t, scratchHosts)
	for _, tc := range cases {
		check(ways, tc.name, tc.sub, tc.code)
	}
	// The directory role is a Query's, not a subscription's: Subscribe
	// refuses it before any poll, match or hub attaches, though the
	// Query of the same target answers.
	for _, sys := range []gridmon.System{mds, rgma, hawkeye} {
		for _, host := range []string{"", "lucky3"} {
			sub := gridmon.Subscription{System: sys, Role: directory, Host: host}
			for _, w := range ways {
				if w.routed && host == "" {
					continue
				}
				if _, err := w.source.Subscribe(context.Background(), sub); gridmon.CodeOf(err) != gridmon.ErrBadRequest {
					t.Errorf("%s directory role at %q, subscribed %s: err = %v, want %s",
						sys, host, w.name, err, gridmon.ErrBadRequest)
				}
			}
		}
	}
	disabled := failureWays(t, scratchHosts, gridmon.WithSystems(rgma, hawkeye))
	check(disabled, "disabled system", gridmon.Subscription{System: mds}, gridmon.ErrUnavailable)
	check(disabled, "disabled system at a host", gridmon.Subscription{System: mds, Host: "lucky3"}, gridmon.ErrUnavailable)

	// An already-canceled ctx is a setup failure on both sides too.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range ways[:2] {
		if _, err := w.source.Subscribe(dead, gridmon.Subscription{System: rgma}); gridmon.CodeOf(err) != gridmon.ErrCanceled {
			t.Errorf("canceled ctx %s: err = %v, want canceled", w.name, err)
		}
	}
}
