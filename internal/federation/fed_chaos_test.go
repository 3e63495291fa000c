package federation_test

import (
	"context"
	"errors"
	"net"
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

// The federation chaos suite: every branch fault — leaf death, stalled
// writes, mid-frame partitions, full outages, churn — must end in a
// typed error or a correct partial result, inside the carved budget.
// Never a hang: every test runs under testCtx's deadline backstop.

// mdsBroad is the chaos workhorse query: MDS answers are stateless
// across repeats (unlike the R-GMA mediator), so a retried or repeated
// ask still matches the cold oracle's records.
var mdsBroad = gridmon.Query{System: gridmon.MDS, Role: gridmon.RoleAggregateServer, Expr: "(objectclass=MdsCpu)"}

// TestFedChaosLeafDownBestEffort: with one leaf dead, best-effort
// answers from the survivors — Partial set, the dead branch named, and
// the records exactly the surviving shards' merge.
func TestFedChaosLeafDownBestEffort(t *testing.T) {
	leakcheck.Check(t)
	c := newCluster(t, 3, nil, federation.Config{})
	c.kill(1)
	ctx := testCtx(t)
	rs, err := c.router.Query(ctx, mdsBroad)
	if err != nil {
		t.Fatalf("best-effort with one leaf down failed outright: %v", err)
	}
	if !rs.Partial {
		t.Error("answer not marked partial")
	}
	if len(rs.Branches) != 1 || rs.Branches[0].Shard != 1 {
		t.Fatalf("branch metadata: %+v, want exactly shard 1", rs.Branches)
	}
	if rs.Branches[0].Addr != c.addrs[1] || rs.Branches[0].Code == "" {
		t.Errorf("branch metadata incomplete: %+v", rs.Branches[0])
	}
	want, err := c.oracleMergeShards(ctx, mdsBroad, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Records, want.Records) {
		t.Error("partial records differ from the surviving shards' merge")
	}
	if rs.Work != want.Work {
		t.Errorf("partial work differs from the survivors: %+v vs %+v", rs.Work, want.Work)
	}
}

// TestFedChaosFailFastDegraded: under fail-fast the same fault is a
// typed CodeDegraded error naming the failed branch — no partial data.
func TestFedChaosFailFastDegraded(t *testing.T) {
	leakcheck.Check(t)
	c := newCluster(t, 3, nil, federation.Config{Policy: federation.FailFast})
	c.kill(2)
	ctx := testCtx(t)
	rs, err := c.router.Query(ctx, mdsBroad)
	if err == nil {
		t.Fatalf("fail-fast answered despite a dead leaf (partial=%v)", rs.Partial)
	}
	if !errors.Is(err, gridmon.ErrDegraded) {
		t.Fatalf("error not CodeDegraded: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 2") {
		t.Errorf("degraded error does not name the failed branch: %v", err)
	}
}

// TestFedChaosAllDown: every leaf dead is a typed CodeDegraded failure
// under either policy — availability-class branch errors never pass
// through as if the request itself were bad.
func TestFedChaosAllDown(t *testing.T) {
	leakcheck.Check(t)
	for _, policy := range []federation.Policy{federation.BestEffort, federation.FailFast} {
		t.Run(string(policy), func(t *testing.T) {
			c := newCluster(t, 2, nil, federation.Config{Policy: policy})
			c.kill(0)
			c.kill(1)
			_, err := c.router.Query(testCtx(t), mdsBroad)
			if !errors.Is(err, gridmon.ErrDegraded) {
				t.Fatalf("want CodeDegraded, got: %v", err)
			}
		})
	}
}

// TestFedChaosBadRequestPassesThrough: when every branch agrees the
// request itself is bad, the Router relays that verdict — the caller
// sees what a single grid would say, not a degradation.
func TestFedChaosBadRequestPassesThrough(t *testing.T) {
	leakcheck.Check(t)
	c := newCluster(t, 2, nil, federation.Config{})
	q := gridmon.Query{System: gridmon.System("no-such-system")}
	_, err := c.router.Query(testCtx(t), q)
	if err == nil {
		t.Fatal("unknown system answered")
	}
	if errors.Is(err, gridmon.ErrDegraded) {
		t.Fatalf("request-level error reported as degradation: %v", err)
	}
	if code := transport.ErrorCode(err); code != transport.CodeBadRequest {
		t.Fatalf("want bad_request passthrough, got %s: %v", code, err)
	}
}

// TestFedChaosStalledBranchBudget: a branch that stalls mid-response
// is cut off by its carved budget — the query returns a correct
// partial answer from the healthy shards in bounded time instead of
// inheriting the stall.
func TestFedChaosStalledBranchBudget(t *testing.T) {
	leakcheck.Check(t)
	plans := []faultconn.Plan{{}, {Seed: 3, StallEvery: 1, StallFor: 3 * time.Second}}
	c := newCluster(t, 3, plans, federation.Config{
		BranchTimeout: 400 * time.Millisecond,
	})
	ctx := testCtx(t)
	start := time.Now()
	rs, err := c.router.Query(ctx, mdsBroad)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("stalled branch failed the whole query: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("query took %v — the stall leaked past the branch budget", elapsed)
	}
	if !rs.Partial || len(rs.Branches) != 1 || rs.Branches[0].Shard != 1 {
		t.Fatalf("want exactly the stalled shard 1 failed: partial=%v branches=%+v", rs.Partial, rs.Branches)
	}
	if code := rs.Branches[0].Code; code != transport.CodeDeadline {
		t.Errorf("stalled branch code = %s, want %s", code, transport.CodeDeadline)
	}
	want, err := c.oracleMergeShards(ctx, mdsBroad, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Records, want.Records) {
		t.Error("partial records differ from the healthy shards' merge")
	}
}

// TestFedChaosMidFrameResetRetried: a branch whose connection is torn
// mid-frame on the first response is retried on a fresh connection and
// the federated answer comes back complete — no Partial, records
// identical to the oracle.
func TestFedChaosMidFrameResetRetried(t *testing.T) {
	leakcheck.Check(t)
	// Only the first wrapped connection per leaf is doomed; the
	// retry's reconnect runs clean.
	plans := []faultconn.Plan{
		{Seed: 11, FaultConns: 1, ResetAfterBytes: 200},
		{Seed: 12, FaultConns: 1, ResetAfterBytes: 200},
	}
	c := newCluster(t, 2, plans, federation.Config{
		Dial: gridmon.DialOptions{MaxRetries: 3},
	})
	ctx := testCtx(t)
	rs, err := c.router.Query(ctx, mdsBroad)
	if err != nil {
		t.Fatalf("query not retried past the torn frames: %v", err)
	}
	if rs.Partial || len(rs.Branches) != 0 {
		t.Fatalf("retriable fault surfaced as degradation: partial=%v branches=%+v", rs.Partial, rs.Branches)
	}
	want, err := c.oracleMerge(ctx, mdsBroad)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Records, want.Records) {
		t.Error("records differ from the oracle after retries")
	}
	tore := false
	for _, inj := range c.injs {
		if inj != nil && inj.Stats().Resets > 0 {
			tore = true
		}
	}
	if !tore {
		t.Error("injectors tore nothing — the test exercised no fault")
	}
}

// TestFedChaosBreakerMarksBranchDown: repeated failures against a dead
// leaf trip that address's breaker — visible in Stats — and later
// queries fail that branch fast instead of re-dialing.
func TestFedChaosBreakerMarksBranchDown(t *testing.T) {
	leakcheck.Check(t)
	c := newCluster(t, 2, nil, federation.Config{
		Dial: gridmon.DialOptions{Breaker: gridmon.Breaker{Threshold: 2, Cooldown: time.Minute}},
	})
	c.kill(1)
	ctx := testCtx(t)
	for i := 0; i < 3; i++ {
		rs, err := c.router.Query(ctx, mdsBroad)
		if err != nil || !rs.Partial {
			t.Fatalf("query %d: err=%v partial=%v", i, err, rs != nil && rs.Partial)
		}
	}
	st := c.router.Stats()
	var down *federation.BackendStats
	for i := range st.Backends {
		if st.Backends[i].Addr == c.addrs[1] {
			down = &st.Backends[i]
		}
	}
	if down == nil {
		t.Fatalf("dead backend missing from stats: %+v", st.Backends)
	}
	if down.Client.BreakerState != gridmon.BreakerOpen {
		t.Errorf("dead branch breaker state %q, want %q", down.Client.BreakerState, gridmon.BreakerOpen)
	}
	if down.Client.BreakerOpens == 0 {
		t.Error("breaker never opened")
	}
	if st.Partials < 3 || st.BranchFailures < 3 || st.Queries < 3 {
		t.Errorf("federation counters off: %+v", st)
	}
	// With the breaker open the failed branch costs no socket work:
	// the query is partial but fast.
	start := time.Now()
	if rs, err := c.router.Query(ctx, mdsBroad); err != nil || !rs.Partial {
		t.Fatalf("post-open query: err=%v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("open-breaker branch still slow: %v", d)
	}
}

// TestFedChaosChurnRecovery: kill a leaf (answers degrade to partial),
// restart it on the same address, and the federation heals — the
// half-open breaker probe reconnects and answers become complete
// again, inside a bounded window.
func TestFedChaosChurnRecovery(t *testing.T) {
	leakcheck.Check(t)
	c := newCluster(t, 3, nil, federation.Config{
		Dial: gridmon.DialOptions{Breaker: gridmon.Breaker{Threshold: 2, Cooldown: 100 * time.Millisecond}},
	})
	ctx := testCtx(t)
	full, err := c.router.Query(ctx, mdsBroad)
	if err != nil || full.Partial {
		t.Fatalf("healthy baseline: err=%v partial=%v", err, full != nil && full.Partial)
	}

	c.kill(0)
	rs, err := c.router.Query(ctx, mdsBroad)
	if err != nil || !rs.Partial {
		t.Fatalf("after kill: err=%v partial=%v", err, rs != nil && rs.Partial)
	}

	c.restart(0)
	deadline := time.Now().Add(15 * time.Second)
	for {
		rs, err = c.router.Query(ctx, mdsBroad)
		if err == nil && !rs.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federation never healed after restart: err=%v partial=%v", err, rs != nil && rs.Partial)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !reflect.DeepEqual(rs.Records, full.Records) {
		t.Error("healed answer differs from the pre-churn baseline")
	}
}

// TestFedChaosReplicaFailover: a shard with a dead primary and a live
// replica serving the same hosts answers completely — the branch fails
// over inside the query, no Partial, records identical to a healthy
// run.
func TestFedChaosReplicaFailover(t *testing.T) {
	leakcheck.Check(t)
	m := federation.NewShardMap("placeholder-a", "placeholder-b")
	parts := m.PartitionHosts(fedHosts)
	if len(parts[0]) == 0 || len(parts[1]) == 0 {
		t.Fatal("host set does not spread over 2 shards")
	}
	// Shard 0: primary and replica are two servers over equal grids
	// (deterministic data makes their answers identical).
	primary := buildGrid(t, parts[0])
	replica := buildGrid(t, parts[0])
	paddr, psrv, _ := serveLeaf(t, primary, faultconn.Plan{}, "127.0.0.1:0")
	raddr, _, _ := serveLeaf(t, replica, faultconn.Plan{}, "127.0.0.1:0")
	other := buildGrid(t, parts[1])
	oaddr, _, _ := serveLeaf(t, other, faultconn.Plan{}, "127.0.0.1:0")

	r, err := federation.New(federation.Config{Map: federation.ShardMap{
		Epoch:  1,
		Shards: []federation.Shard{{Addrs: []string{paddr, raddr}}, {Addrs: []string{oaddr}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := testCtx(t)
	baseline, err := r.Query(ctx, mdsBroad)
	if err != nil || baseline.Partial {
		t.Fatalf("healthy baseline: err=%v", err)
	}

	psrv.Close() // kill the primary; the replica keeps the shard up
	rs, err := r.Query(ctx, mdsBroad)
	if err != nil {
		t.Fatalf("failover query failed: %v", err)
	}
	if rs.Partial || len(rs.Branches) != 0 {
		t.Fatalf("replica failover still reported degradation: branches=%+v", rs.Branches)
	}
	if !reflect.DeepEqual(rs.Records, baseline.Records) {
		t.Error("failover answer differs from the healthy baseline")
	}
}

// TestFedChaosSubscribeStalledReplica: a shard whose first replica
// accepts and never answers still opens a host's stream, from the
// second — the backends' AttemptTimeout bounds the stalled handshake, so
// the subscribe fails over instead of spending the caller's budget on it.
func TestFedChaosSubscribeStalledReplica(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var stalled []net.Conn // touched only by the accept loop until it ends
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			stalled = append(stalled, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-acceptDone
		for _, c := range stalled {
			c.Close()
		}
	})
	live, _, _ := serveLeaf(t, buildGrid(t, fedHosts), faultconn.Plan{}, "127.0.0.1:0")
	r, err := federation.New(federation.Config{
		Map:  federation.ShardMap{Epoch: 1, Shards: []federation.Shard{{Addrs: []string{ln.Addr().String(), live}}}},
		Dial: gridmon.DialOptions{AttemptTimeout: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	start := time.Now()
	st, err := r.Subscribe(testCtx(t), gridmon.Subscription{System: gridmon.RGMA, Host: fedHosts[0]})
	if err != nil {
		t.Fatalf("subscribe behind a stalled first replica: %v", err)
	}
	defer st.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failover took %v: the stalled replica held the subscribe", elapsed)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("the replica's stream ended at once: %v", err)
	}
}

// TestFedChaosSubscribePartitionMidEvent: a live federated stream
// whose branch partitions mid-event terminates with a typed error —
// never a hang — with Seq monotonic across everything delivered and
// Dropped() consistent before and after the cut.
func TestFedChaosSubscribePartitionMidEvent(t *testing.T) {
	leakcheck.Check(t)
	// One stepped-clock leaf behind a connection that dies after ~1500
	// bytes — a few events in, mid-frame.
	now := new(float64)
	leaf, err := gridmon.New(gridmon.WithHosts(fedHosts...),
		gridmon.WithClock(func() float64 { return *now }))
	if err != nil {
		t.Fatal(err)
	}
	addr, _, inj := serveLeaf(t, leaf, faultconn.Plan{Seed: 7, ResetAfterBytes: 1500}, "127.0.0.1:0")
	r, err := federation.New(federation.Config{Map: federation.NewShardMap(addr)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := testCtx(t)
	host := fedHosts[0]
	if _, err := r.Subscribe(ctx, gridmon.Subscription{System: gridmon.RGMA}); err == nil {
		t.Fatal("broad federated subscribe accepted; want bad_request")
	} else if code := transport.ErrorCode(err); code != transport.CodeBadRequest {
		t.Fatalf("broad subscribe code = %s, want bad_request", code)
	}
	st, err := r.Subscribe(ctx, gridmon.Subscription{System: gridmon.RGMA, Host: host})
	if err != nil {
		t.Fatalf("federated subscribe: %v", err)
	}
	defer st.Close()

	// Pump monitoring rounds until the injector tears the stream's
	// connection; each round's events burn down the byte budget.
	pumpDone := make(chan struct{})
	defer close(pumpDone)
	go func() {
		for tick := 1.0; ; tick++ {
			select {
			case <-pumpDone:
				return
			default:
			}
			*now = tick
			if err := leaf.Advance(tick); err != nil {
				return
			}
		}
	}()

	var lastSeq uint64
	var delivered int
	for {
		ev, err := st.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				t.Fatal("federated stream did not terminate after the partition (hang)")
			}
			var lag *gridmon.LagError
			if errors.As(err, &lag) {
				continue // lag reports resume delivery; the cut is still coming
			}
			break // typed terminal error — what a partition must produce
		}
		delivered++
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq not monotonic after faults: %d then %d", lastSeq, ev.Seq)
		}
		lastSeq = ev.Seq
	}
	if delivered == 0 {
		t.Error("stream delivered nothing before the partition")
	}
	dropped := st.Dropped()
	if again := st.Dropped(); again != dropped {
		t.Errorf("Dropped() unstable after termination: %d then %d", dropped, again)
	}
	if st := inj.Stats(); st.Resets == 0 {
		t.Errorf("injector tore nothing: %+v", st)
	}
}

// TestFedChaosCallerCancelPropagation: cancelling the caller's context
// mid-fan-out cancels every branch — the query returns the caller's
// own cancellation promptly, not degradation and not a hang.
func TestFedChaosCallerCancelPropagation(t *testing.T) {
	leakcheck.Check(t)
	plans := []faultconn.Plan{
		{Seed: 5, StallEvery: 1, StallFor: 3 * time.Second},
		{Seed: 6, StallEvery: 1, StallFor: 3 * time.Second},
	}
	c := newCluster(t, 2, plans, federation.Config{})
	ctx, cancel := context.WithCancel(testCtx(t))
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.router.Query(ctx, mdsBroad)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled query answered")
	}
	if code := transport.ErrorCode(err); code != transport.CodeCanceled {
		t.Fatalf("want %s, got %s: %v", transport.CodeCanceled, code, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
}
