package federation_test

import (
	"context"
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/faultconn"
	"repro/internal/federation"
	"repro/internal/transport"
)

// The federation suite builds a real tree on loopback sockets: N leaf
// grids each monitoring the shard of hosts the ShardMap assigns them,
// and a Router aggregating them. Leaves run on a fixed clock so every
// grid — leaf or the single-process oracle — holds byte-identical
// per-host data, which is what makes the differential gates exact.

// fedHosts is the host universe; 12 hosts hash across 3 shards
// non-trivially (every shard gets some, none gets all).
var fedHosts = []string{
	"node00", "node01", "node02", "node03", "node04", "node05",
	"node06", "node07", "node08", "node09", "node10", "node11",
}

func fixedClock(at float64) gridmon.Option {
	return gridmon.WithClock(func() float64 { return at })
}

// buildGrid builds one deterministic grid over the given hosts.
func buildGrid(t testing.TB, hosts []string, opts ...gridmon.Option) *gridmon.Grid {
	t.Helper()
	g, err := gridmon.New(append([]gridmon.Option{gridmon.WithHosts(hosts...), fixedClock(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cluster is one running tree: the leaves, their servers (restartable
// in place), and the Router over them.
type cluster struct {
	t      *testing.T
	parts  [][]string // per-shard host subsets
	leaves []*gridmon.Grid
	srvs   []*transport.Server
	addrs  []string
	injs   []*faultconn.Injector // per leaf; entries may be nil
	plans  []faultconn.Plan
	router *federation.Router
}

// newCluster builds `shards` leaf grids over loopback and a Router
// sharding fedHosts across them. plans optionally gives each leaf a
// fault-injection plan (nil, or shorter than shards, leaves the rest
// clean). cfg.Map is filled in by the cluster; the caller sets policy,
// budgets and dial options.
func newCluster(t *testing.T, shards int, plans []faultconn.Plan, cfg federation.Config) *cluster {
	t.Helper()
	c := &cluster{t: t}
	// The host partition depends only on the shard count, so a
	// placeholder map computes it before any leaf exists.
	placeholder := federation.ShardMap{Epoch: 1, Shards: make([]federation.Shard, shards)}
	c.parts = placeholder.PartitionHosts(fedHosts)
	for i := 0; i < shards; i++ {
		if len(c.parts[i]) == 0 {
			t.Fatalf("shard %d owns no hosts — pick a host set that spreads", i)
		}
		leaf := buildGrid(t, c.parts[i])
		c.leaves = append(c.leaves, leaf)
		var plan faultconn.Plan
		if i < len(plans) {
			plan = plans[i]
		}
		c.plans = append(c.plans, plan)
		addr, srv, inj := serveLeaf(t, leaf, plan, "127.0.0.1:0")
		c.addrs = append(c.addrs, addr)
		c.srvs = append(c.srvs, srv)
		c.injs = append(c.injs, inj)
	}
	cfg.Map = federation.NewShardMap(c.addrs...)
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	c.router = router
	return c
}

// serveLeaf exposes a grid on addr (with optional fault injection) and
// returns the bound address, the server, and the injector.
func serveLeaf(t *testing.T, leaf *gridmon.Grid, plan faultconn.Plan, addr string) (string, *transport.Server, *faultconn.Injector) {
	t.Helper()
	srv := transport.NewServer()
	var inj *faultconn.Injector
	if plan != (faultconn.Plan{}) {
		inj = faultconn.New(plan)
		srv.WrapConn = inj.Wrap
	}
	leaf.Serve(srv)
	bound, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return bound, srv, inj
}

// kill closes leaf i's server (listener and live connections).
func (c *cluster) kill(i int) { c.srvs[i].Close() }

// restart brings leaf i back on its original address with a fresh
// server over the same grid.
func (c *cluster) restart(i int) {
	c.t.Helper()
	addr, srv, inj := serveLeaf(c.t, c.leaves[i], c.plans[i], c.addrs[i])
	if addr != c.addrs[i] {
		c.t.Fatalf("leaf %d restarted on %s, want %s", i, addr, c.addrs[i])
	}
	c.srvs[i], c.injs[i] = srv, inj
}

// oracleMerge answers q by querying a FRESH in-process grid per shard
// and merging exactly as the Router does — the scatter-gather oracle
// the wire path must match bit for bit. The oracle must not reuse
// c.leaves: some engines answer a repeated query from warm state (the
// R-GMA mediator reuses its consumer, skipping the registry lookups),
// so querying the served leaves here would perturb the Work the wire
// path observes. Fresh grids over the same host subsets hold
// byte-identical data (deterministic in host and clock), giving the
// oracle the same cold-state answer the served leaves produce.
func (c *cluster) oracleMerge(ctx context.Context, q gridmon.Query) (*gridmon.ResultSet, error) {
	return c.oracleMergeShards(ctx, q, nil)
}

// oracleMergeShards is oracleMerge restricted to a shard subset (nil
// means all) — the expected answer when only those shards survive.
func (c *cluster) oracleMergeShards(ctx context.Context, q gridmon.Query, shards []int) (*gridmon.ResultSet, error) {
	c.t.Helper()
	if shards == nil {
		for i := range c.parts {
			shards = append(shards, i)
		}
	}
	var parts []*gridmon.ResultSet
	for _, i := range shards {
		rs, err := buildGrid(c.t, c.parts[i]).Query(ctx, q)
		if err != nil {
			return nil, err
		}
		parts = append(parts, rs)
	}
	return federation.MergeResultSets(q, parts), nil
}

// testCtx returns a deadline context generous enough for CI but finite
// — the suite's hang backstop.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}
