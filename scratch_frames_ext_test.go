package gridmon_test

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/federation"
)

// scratchGrid is a grid over hosts on a frozen clock.
func scratchGrid(t *testing.T, hosts []string, opts ...gridmon.Option) *gridmon.Grid {
	t.Helper()
	g, err := gridmon.New(append([]gridmon.Option{
		gridmon.WithHosts(hosts...), gridmon.WithClock(func() float64 { return 1 }),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scratchHosts are the seven hosts of the three-leaf trees below: two a
// shard at least, so each leaf owns some.
var scratchHosts = []string{"lucky3", "lucky4", "lucky7", "lucky5", "lucky6", "lucky8", "lucky9"}

// serveLeaves serves each of sources' grid.query, and grid.subscribe
// where it subscribes, on loopback and returns their addresses.
func serveLeaves(t *testing.T, sources []gridmon.Querier) []string {
	t.Helper()
	addrs := make([]string, len(sources))
	for i, source := range sources {
		srv := gridmon.NewTransportServer()
		gridmon.ServeQueryV3(srv, source)
		if sub, ok := source.(gridmon.Subscriber); ok {
			gridmon.ServeSubscribe(srv, sub)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = addr
	}
	return addrs
}

// newRouter is a Router configured by cfg, closed when t ends.
func newRouter(t *testing.T, cfg federation.Config) *federation.Router {
	t.Helper()
	router, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	return router
}

// TestV3ScratchFrames: the grid.query handler lends every answer pooled
// scratch and takes it back once the frame is encoded, yet no frame
// carries anything of the answers served before it. Each source serves
// every alloc-budget and stress shape, the Agent miss with no record
// slice among them, largest answer first, shuffled and concurrently (see
// CheckV3ScratchFrames): an uncached Grid, a cached Grid answering hits
// (copied from the answer the entry owns), one whose entries expire at
// once, so every query is a miss rendered into a new entry's answer, and
// a Router over three loopback leaves, which copies a routed reply into
// the handler's buffer and splices a broad one there, held to the reply
// the pre-splice path made of the leaves' own replies.
func TestV3ScratchFrames(t *testing.T) {
	hosts := scratchHosts[:3]
	queries := gridmon.ScratchQueries()
	for _, c := range []struct {
		name string
		opts []gridmon.Option
	}{
		{"grid", nil},
		{"cache-hits", []gridmon.Option{gridmon.WithQueryCache(time.Hour)}},
		{"cache-misses", []gridmon.Option{gridmon.WithQueryCache(time.Nanosecond)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := scratchGrid(t, hosts, c.opts...)
			gridmon.CheckV3ScratchFrames(t, g, queries, gridmon.FreshFrames(g))
		})
	}
	t.Run("router", func(t *testing.T) {
		smap := federation.ShardMap{Epoch: 1, Shards: make([]federation.Shard, 3)}
		leaves := make([]*gridmon.Grid, 3)
		sources := make([]gridmon.Querier, 3)
		for i, part := range smap.PartitionHosts(scratchHosts) {
			if len(part) == 0 {
				t.Fatalf("shard %d owns none of %v", i, scratchHosts)
			}
			leaves[i] = scratchGrid(t, part)
			sources[i] = leaves[i]
		}
		router := newRouter(t, federation.Config{Map: federation.NewShardMap(serveLeaves(t, sources)...)})
		ctx := context.Background()
		reference := func(q gridmon.Query) ([]byte, error) {
			if q.Host != "" {
				body, err := leaves[smap.ShardFor(q.Host)].AppendQuery(ctx, q, nil)
				if err != nil {
					return nil, err
				}
				return gridmon.RefRoutedFrame(body)
			}
			bodies := make([][]byte, len(leaves))
			for i, leaf := range leaves {
				var err error
				if bodies[i], err = leaf.AppendQuery(ctx, q, nil); err != nil {
					return nil, err
				}
			}
			return gridmon.RefMergedFrame(q, bodies, nil)
		}
		gridmon.CheckV3ScratchFrames(t, router, queries, reference)
	})
}

// recorder serves a grid's grid.query and keeps a copy of the last reply
// body it appended, or nil when the last query failed.
type recorder struct {
	*gridmon.Grid
	mu   sync.Mutex
	last []byte
}

func (r *recorder) AppendQuery(ctx context.Context, q gridmon.Query, dst []byte) ([]byte, error) {
	out, err := r.Grid.AppendQuery(ctx, q, dst)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last = nil
	if err == nil {
		r.last = bytes.Clone(out[len(dst):])
	}
	return out, err
}

// take returns the last reply body and forgets it.
func (r *recorder) take() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.last
	r.last = nil
	return b
}

// spliceQueries are the shapes of the federation differential suite:
// broad queries, host-targeted ones on hosts of every leaf, and the
// edge cases of a flat answer (zero-field records, a column selected
// twice, an Agent miss with no record slice, broad queries matching
// nothing).
func spliceQueries() []gridmon.Query {
	qs := []gridmon.Query{
		{System: gridmon.MDS, Role: gridmon.RoleAggregateServer, Expr: "(objectclass=MdsCpu)"},
		{System: gridmon.MDS, Role: gridmon.RoleAggregateServer},
		{System: gridmon.MDS, Role: gridmon.RoleDirectoryServer},
		{System: gridmon.RGMA, Role: gridmon.RoleInformationServer, Expr: "SELECT host, value FROM siteinfo"},
		{System: gridmon.RGMA, Role: gridmon.RoleDirectoryServer},
		{System: gridmon.RGMA, Role: gridmon.RoleAggregateServer},
		{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer, Expr: "TARGET.CpuLoad >= 0"},
		{System: gridmon.Hawkeye, Role: gridmon.RoleDirectoryServer},
		{System: gridmon.MDS, Role: gridmon.RoleAggregateServer, Expr: "(objectclass=MdsCpu)", Attrs: []string{""}},
		{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer, Attrs: []string{""}},
		{System: gridmon.RGMA, Expr: "SELECT host, host FROM siteinfo"},
		{System: gridmon.RGMA, Expr: "SELECT * FROM siteinfo WHERE value > 1000000"},
		{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer, Expr: "false"},
	}
	for _, host := range scratchHosts {
		qs = append(qs,
			gridmon.Query{System: gridmon.MDS, Role: gridmon.RoleInformationServer, Host: host, Expr: "(objectclass=MdsCpu)"},
			gridmon.Query{System: gridmon.RGMA, Role: gridmon.RoleInformationServer, Host: host, Expr: "SELECT host, value FROM siteinfo"},
			gridmon.Query{System: gridmon.RGMA, Host: host, Expr: "SELECT host, value FROM siteinfo", Attrs: []string{""}},
			gridmon.Query{System: gridmon.RGMA, Host: host, Expr: "SELECT host, host FROM siteinfo"},
			gridmon.Query{System: gridmon.Hawkeye, Role: gridmon.RoleInformationServer, Host: host},
			gridmon.Query{System: gridmon.Hawkeye, Host: host, Expr: "false"},
		)
	}
	return qs
}

// TestV3ScratchSplice: a Router's reply is, byte for byte, the reply
// the path before the splice made of the same leaf replies (decoded
// flat, merged flat, encoded pair by pair), Elapsed excepted. The leaves
// record the bodies they send, so the reference is built from exactly
// the bytes the Router relayed, for every ScratchQueries shape and every
// shape of the federation differential suite, and for a best-effort
// broad query with one leaf down.
func TestV3ScratchSplice(t *testing.T) {
	smap := federation.ShardMap{Epoch: 1, Shards: make([]federation.Shard, 3)}
	leaves := make([]*recorder, 3)
	sources := make([]gridmon.Querier, 3)
	for i, part := range smap.PartitionHosts(scratchHosts) {
		leaves[i] = &recorder{Grid: scratchGrid(t, part)}
		sources[i] = leaves[i]
	}
	addrs := serveLeaves(t, sources)
	router := newRouter(t, federation.Config{Map: federation.NewShardMap(addrs...)})
	ctx := context.Background()

	// splice asks the Router q, and returns its reply with Elapsed masked
	// and the bodies the leaves sent for it, in shard order (nil for a
	// leaf that sent none).
	splice := func(t *testing.T, router *federation.Router, q gridmon.Query) (frame []byte, bodies [][]byte, err error) {
		for _, leaf := range leaves {
			leaf.take()
		}
		b, err := router.AppendQuery(ctx, q, []byte("kept"))
		if !bytes.HasPrefix(b, []byte("kept")) {
			t.Fatalf("%+v: AppendQuery did not keep what dst held", q)
		}
		for _, leaf := range leaves {
			bodies = append(bodies, leaf.take())
		}
		return gridmon.MaskElapsed(b[len("kept"):]), bodies, err
	}
	var routedNil, broadEmpty, zeroFields bool
	for _, q := range append(gridmon.ScratchQueries(), spliceQueries()...) {
		frame, bodies, err := splice(t, router, q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		var want []byte
		if q.Host != "" {
			want, err = gridmon.RefRoutedFrame(bodies[smap.ShardFor(q.Host)])
		} else {
			want, err = gridmon.RefMergedFrame(q, bodies, nil)
		}
		if err != nil {
			t.Fatalf("%+v: reference: %v", q, err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%+v: the spliced reply is not the reference's\nspliced   %q\nreference %q", q, frame, want)
		}
		rs, err := gridmon.DecodeReply(frame)
		if err != nil {
			t.Fatalf("%+v: the spliced reply does not decode: %v", q, err)
		}
		routedNil = routedNil || (q.Host != "" && rs.Records == nil)
		broadEmpty = broadEmpty || (q.Host == "" && rs.Records != nil && len(rs.Records) == 0)
		for _, rec := range rs.Records {
			zeroFields = zeroFields || len(rec.Fields) == 0
		}
	}
	if !routedNil || !broadEmpty || !zeroFields {
		t.Errorf("cases not covered: routed nil records %v, empty broad merge %v, zero-field record %v", routedNil, broadEmpty, zeroFields)
	}

	t.Run("partial", func(t *testing.T) {
		// A second Router whose shard 1 is an address nobody listens on:
		// a breaker that never opens keeps its failure a dial refusal.
		down := slices.Clone(addrs)
		down[1] = "127.0.0.1:1"
		partial := newRouter(t, federation.Config{
			Map:  federation.NewShardMap(down...),
			Dial: gridmon.DialOptions{Breaker: gridmon.Breaker{Threshold: 1 << 20}},
		})
		for _, q := range spliceQueries()[:8] {
			frame, bodies, err := splice(t, partial, q)
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			rs, err := gridmon.DecodeReply(frame)
			if err != nil {
				t.Fatalf("%+v: the spliced reply does not decode: %v", q, err)
			}
			if !rs.Partial || len(rs.Branches) != 1 || rs.Branches[0].Shard != 1 {
				t.Fatalf("%+v: want a partial answer naming shard 1: partial=%v branches=%+v", q, rs.Partial, rs.Branches)
			}
			want, err := gridmon.RefMergedFrame(q, [][]byte{bodies[0], bodies[2]}, rs.Branches)
			if err != nil {
				t.Fatalf("%+v: reference: %v", q, err)
			}
			if !bytes.Equal(frame, want) {
				t.Errorf("%+v: the spliced partial reply is not the reference's\nspliced   %q\nreference %q", q, frame, want)
			}
		}
	})
}
