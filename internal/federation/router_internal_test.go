package federation

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// TestSnapshotAllocatesNothing: every query snapshots the map and its
// clients, so the snapshot must be the epoch's own slices, built once by
// New or SetMap, naming the clients of exactly the map's addresses.
func TestSnapshotAllocatesNothing(t *testing.T) {
	first, err := ParseShardMap("a:1/b:1,c:1")
	if err != nil {
		t.Fatal(err)
	}
	second, err := ParseShardMap("c:1,d:1/a:1,e:1")
	if err != nil {
		t.Fatal(err)
	}
	second.Epoch = 2
	r, err := New(Config{Map: first})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, m := range []ShardMap{first, second} {
		if i > 0 {
			if err := r.SetMap(m); err != nil {
				t.Fatal(err)
			}
		}
		var backends [][]*gridmon.RemoteGrid
		if n := testing.AllocsPerRun(100, func() { _, backends = r.snapshot() }); n != 0 {
			t.Errorf("epoch %d: a snapshot allocates %.0f times", m.Epoch, n)
		}
		if len(backends) != len(m.Shards) {
			t.Fatalf("epoch %d: %d shards resolved, want %d", m.Epoch, len(backends), len(m.Shards))
		}
		for s, sh := range m.Shards {
			if len(backends[s]) != len(sh.Addrs) {
				t.Fatalf("epoch %d shard %d: %d clients for %v", m.Epoch, s, len(backends[s]), sh.Addrs)
			}
			for j, addr := range sh.Addrs {
				if got := backends[s][j].Addr(); got != addr {
					t.Errorf("epoch %d shard %d replica %d: client for %s, want %s", m.Epoch, s, j, got, addr)
				}
			}
		}
	}
}

// TestOutcomeResetDropsStrings: a broad query's outcomes go back to the
// pool holding no string of their query, and no pointer into their
// replies: the replies are bytes each outcome owns, emptied and kept for
// the next query, and the bodies the merge was handed are dropped.
func TestOutcomeResetDropsStrings(t *testing.T) {
	r, err := New(Config{Map: NewShardMap("a:1", "b:1")})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s := r.getScatter(2)
	for i := range s.outs {
		s.outs[i].addr = "a:1"
		s.outs[i].body = append(s.outs[i].body, "a reply"...)
		s.outs[i].err = transport.Errf(transport.CodeUnavailable, "down")
		s.bodies = append(s.bodies, s.outs[i].body)
	}
	r.putScatter(s)
	for i, o := range s.outs {
		if o.addr != "" || o.err != nil || len(o.body) != 0 || cap(o.body) == 0 {
			t.Errorf("outcome %d not emptied, or its body's room not kept: %+v", i, o)
		}
	}
	if len(s.bodies) != 0 {
		t.Errorf("the merge's bodies were kept: %q", s.bodies)
	}
	for i, b := range s.bodies[:cap(s.bodies)] {
		if b != nil {
			t.Errorf("body %d still held past the length: %q", i, b)
		}
	}
}

// gateLeaf answers every grid.query with an empty result once release
// is closed, counting the calls that reached it.
type gateLeaf struct {
	release chan struct{}
	calls   atomic.Int64
}

func (l *gateLeaf) Query(ctx context.Context, q gridmon.Query) (*gridmon.ResultSet, error) {
	l.calls.Add(1)
	select {
	case <-l.release:
		return &gridmon.ResultSet{System: q.System}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestBranchWorkerBound: a Router keeps at most DefaultMaxPipeline ×
// MaxFanout branch workers. With every one of them running a stalled
// branch, further broad queries wait for a worker rather than start
// one, and all of them answer once the leaves do; Close then leaves no
// goroutine running.
func TestBranchWorkerBound(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	var leaves []*gateLeaf
	var addrs []string
	for i := 0; i < 2; i++ {
		leaf := &gateLeaf{release: release}
		srv := transport.NewServer()
		gridmon.ServeQueryV3(srv, leaf)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		leaves = append(leaves, leaf)
		addrs = append(addrs, addr)
	}
	// MaxFanout 1 over two shards: a query's caller starts shard 0's
	// branch on a worker and waits for it before running shard 1's
	// itself, so each stalled query holds exactly one worker.
	r, err := New(Config{Map: NewShardMap(addrs...), MaxFanout: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.maxWorkers != transport.DefaultMaxPipeline {
		t.Fatalf("maxWorkers %d, want DefaultMaxPipeline × MaxFanout = %d", r.maxWorkers, transport.DefaultMaxPipeline)
	}
	nworkers := func() int {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.nworkers
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	queries := r.maxWorkers + 16
	var answered atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := gridmon.Query{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer}
			rs, err := r.Query(ctx, q)
			if err != nil || rs.Partial {
				t.Errorf("query: %v (partial %v)", err, rs != nil && rs.Partial)
				return
			}
			answered.Add(1)
		}()
	}
	over := queries - r.maxWorkers
	for nworkers() < r.maxWorkers || waitingInDispatch() < over {
		if ctx.Err() != nil {
			t.Fatalf("%d branch workers started and %d queries waiting for one, want %d and %d",
				nworkers(), waitingInDispatch(), r.maxWorkers, over)
		}
		time.Sleep(time.Millisecond)
	}
	// The queries past the bound keep waiting: none starts a goroutine.
	time.Sleep(100 * time.Millisecond)
	if n, w := nworkers(), waitingInDispatch(); n != r.maxWorkers || w != over {
		t.Errorf("%d branch workers and %d queries waiting for one, want %d and %d", n, w, r.maxWorkers, over)
	}
	if n := answered.Load(); n != 0 {
		t.Fatalf("%d queries answered before the leaves did", n)
	}
	close(release)
	wg.Wait()
	if n := answered.Load(); n != int64(queries) {
		t.Errorf("%d of %d queries answered", n, queries)
	}
	for i, leaf := range leaves {
		if n := leaf.calls.Load(); n != int64(queries) {
			t.Errorf("leaf %d: %d calls, want %d", i, n, queries)
		}
	}
	if n := nworkers(); n != r.maxWorkers {
		t.Errorf("%d branch workers after the stall, want %d", n, r.maxWorkers)
	}
}

// waitingInDispatch counts the goroutines inside Router.dispatch, where a
// query past the worker bound waits for a worker to come free.
func waitingInDispatch() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("federation.(*Router).dispatch("))
		}
		buf = make([]byte, 2*len(buf))
	}
}
