package federation_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/faultconn"
	"repro/internal/federation"
	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// The branches of a broad query: the deadline each one carries to its
// leaf, the fail-fast cancellation of its siblings, and the goroutines
// that run them.

// noDeadline is what deadlineLeaf records for a call without a deadline.
const noDeadline = time.Duration(-1)

// deadlineLeaf answers grid.query from g and records, per call, how much
// of its deadline the call had left on arrival (noDeadline for none).
type deadlineLeaf struct {
	g    *gridmon.Grid
	mu   sync.Mutex
	left []time.Duration
}

func (l *deadlineLeaf) Query(ctx context.Context, q gridmon.Query) (*gridmon.ResultSet, error) {
	left := noDeadline
	if dl, ok := ctx.Deadline(); ok {
		left = time.Until(dl)
	}
	l.mu.Lock()
	l.left = append(l.left, left)
	l.mu.Unlock()
	return l.g.Query(ctx, q)
}

// take returns the calls recorded since the last take.
func (l *deadlineLeaf) take() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	left := l.left
	l.left = nil
	return left
}

// TestBranchDeadlineCarve pins what deadline a branch carries to its
// leaf: DefaultBranchBudget of what the caller has left for a broad
// query's branches, capped by BranchTimeout; none when the caller has no
// deadline and there is no BranchTimeout; and a host-targeted query's
// branch keeps the caller's whole deadline. The wire carries deadlines
// in whole milliseconds, rounded down, and the leaf reads its deadline
// a moment after the branch carved it: a leaf sees at most what was
// carved and at most slack less.
func TestBranchDeadlineCarve(t *testing.T) {
	leakcheck.Check(t)
	const slack = 100 * time.Millisecond
	placeholder := federation.ShardMap{Epoch: 1, Shards: make([]federation.Shard, 3)}
	var leaves []*deadlineLeaf
	var addrs []string
	for _, hosts := range placeholder.PartitionHosts(fedHosts) {
		leaf := &deadlineLeaf{g: buildGrid(t, hosts)}
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
	smap := federation.NewShardMap(addrs...)
	broad := gridmon.Query{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer}
	targeted := gridmon.Query{System: gridmon.Hawkeye, Host: fedHosts[4]}
	for _, tc := range []struct {
		name     string
		cfg      federation.Config
		q        gridmon.Query
		deadline time.Duration // the caller's; 0 for none
		want     time.Duration // what each asked leaf is carved; noDeadline for none
	}{
		{"default budget", federation.Config{}, broad, time.Second, 900 * time.Millisecond},
		{"timeout caps budget", federation.Config{BranchTimeout: 200 * time.Millisecond}, broad, time.Second, 200 * time.Millisecond},
		{"timeout alone", federation.Config{BranchTimeout: 300 * time.Millisecond}, broad, 0, 300 * time.Millisecond},
		{"nothing to carve", federation.Config{}, broad, 0, noDeadline},
		{"host-targeted", federation.Config{}, targeted, time.Second, time.Second},
		{"host-targeted without deadline", federation.Config{}, targeted, 0, noDeadline},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Map = smap
			r, err := federation.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			ctx := context.Background()
			if tc.deadline > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.deadline)
				defer cancel()
			}
			if _, err := r.Query(ctx, tc.q); err != nil {
				t.Fatal(err)
			}
			asked := 0
			for i, leaf := range leaves {
				for _, left := range leaf.take() {
					asked++
					switch {
					case tc.want == noDeadline && left != noDeadline:
						t.Errorf("leaf %d: %v left, want no deadline", i, left)
					case tc.want != noDeadline && (left > tc.want || left < tc.want-slack):
						t.Errorf("leaf %d: %v left, want %v (at most %v less)", i, left, tc.want, slack)
					}
				}
			}
			want := len(leaves)
			if tc.q.Host != "" {
				want = 1
			}
			if asked != want {
				t.Errorf("%d leaf calls, want %d", asked, want)
			}
		})
	}
}

// TestFailFastCancelsSiblings: under fail-fast, whichever branch fails
// first — the last shard's, which runs on the caller's goroutine, or
// another's, which runs on a branch worker — the stalled siblings are
// canceled and each reports the shard that failed.
func TestFailFastCancelsSiblings(t *testing.T) {
	leakcheck.Check(t)
	// A breaker that never opens keeps a dead leaf's branch error a dial
	// refusal on every ask.
	dial := gridmon.DialOptions{Breaker: gridmon.Breaker{Threshold: 1 << 20}}
	stall := faultconn.Plan{Seed: 1, StallEvery: 1, StallFor: 2 * time.Second}
	for _, dead := range []int{2, 0} {
		plans := []faultconn.Plan{stall, stall, stall}
		plans[dead] = faultconn.Plan{}
		c := newCluster(t, 3, plans, federation.Config{Policy: federation.FailFast, Dial: dial})
		c.kill(dead)
		ctx := testCtx(t)
		for ask := 0; ask < 3; ask++ {
			start := time.Now()
			_, err := c.router.Query(ctx, mdsBroad)
			if transport.ErrorCode(err) != transport.CodeDegraded {
				t.Fatalf("shard %d dead: %v, want degraded", dead, err)
			}
			if d := time.Since(start); d >= time.Second {
				t.Errorf("shard %d dead: the query took %v, its siblings were not canceled", dead, d)
			}
			msg := err.Error()
			want := fmt.Sprintf("canceled after shard %d failed [canceled]", dead)
			if n := strings.Count(msg, want); n != 2 {
				t.Errorf("shard %d dead: want both siblings %q, got %d: %s", dead, want, n, msg)
			}
			if !strings.HasPrefix(msg, fmt.Sprintf("3 of 3 branch(es) failed: shard %d (", dead)) {
				t.Errorf("shard %d dead: the failing shard is not listed first: %s", dead, msg)
			}
		}
	}
}

// TestBranchWorkersRetireOnClose: broad queries run concurrently across
// a map swap leave branch workers behind, which Close retires, and a
// broad query on the closed Router still answers, degraded, and leaves
// nothing running behind: the leak check finds no goroutine left.
func TestBranchWorkersRetireOnClose(t *testing.T) {
	leakcheck.Check(t)
	c := newCluster(t, 3, nil, federation.Config{})
	ctx := testCtx(t)
	queryAll := func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range broadQueries {
					if _, err := c.router.Query(ctx, q); err != nil {
						t.Errorf("%+v: %v", q, err)
					}
				}
			}()
		}
		wg.Wait()
	}
	queryAll()
	next := federation.NewShardMap(c.addrs[2], c.addrs[0], c.addrs[1])
	next.Epoch = 2
	if err := c.router.SetMap(next); err != nil {
		t.Fatal(err)
	}
	queryAll()
	if err := c.router.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := c.router.Query(ctx, mdsBroad)
	if transport.ErrorCode(err) != transport.CodeDegraded || !strings.Contains(err.Error(), "client closed") {
		t.Errorf("broad query after Close: %v, want degraded by closed clients", err)
	}
	if err := c.router.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
