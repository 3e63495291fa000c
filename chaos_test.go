package gridmon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultconn"
	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// The chaos suite drives the remote client through every fault class
// internal/faultconn injects — latency, stalls, partial writes,
// mid-frame resets — on both sides of the wire, and asserts the one
// contract that matters under faults: every call ends in a typed error
// or a correct (possibly retried) result, never a hang and never
// corrupted data. Every plan is seeded, so a failure reproduces.

// chaosServe exposes a grid on a loopback server whose accepted
// connections run through the injector.
func chaosServe(t *testing.T, grid *Grid, plan faultconn.Plan) (string, *faultconn.Injector) {
	t.Helper()
	inj := faultconn.New(plan)
	srv := transport.NewServer()
	srv.WrapConn = inj.Wrap
	grid.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr, inj
}

// chaosQueries is the probe set: one query per system, each with a
// deterministic answer on a fixed-clock test grid.
var chaosQueries = []Query{
	{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)"},
	{System: RGMA, Role: RoleInformationServer, Expr: "SELECT host, value FROM siteinfo"},
	{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.CpuLoad >= 0"},
}

// assertChaosAnswers runs the probe set through remote and checks every
// answer against the same query on an identically-built local grid —
// the no-corruption half of the chaos contract.
func assertChaosAnswers(t *testing.T, ctx context.Context, local *Grid, remote *RemoteGrid) {
	t.Helper()
	for _, q := range chaosQueries {
		want, err := local.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s local: %v", q.System, err)
		}
		got, err := remote.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s through faults: %v", q.System, err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("%s through faults: %d records, want %d", q.System, len(got.Records), len(want.Records))
		}
		for i := range want.Records {
			if want.Records[i].Key != got.Records[i].Key {
				t.Fatalf("%s record %d: key %q, want %q (frame corruption?)",
					q.System, i, got.Records[i].Key, want.Records[i].Key)
			}
		}
	}
}

// TestChaosLatency: jittered read+write latency on every server
// connection only slows calls down — answers stay correct and no
// deadline machinery misfires when the budget is generous.
func TestChaosLatency(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t)
	addr, inj := chaosServe(t, grid, faultconn.Plan{
		Seed:         1,
		WriteLatency: 2 * time.Millisecond,
		ReadLatency:  time.Millisecond,
		Jitter:       0.5,
	})
	remote, err := DialWith(addr, DialOptions{AttemptTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	assertChaosAnswers(t, ctx, newTestGrid(t), remote)
	if st := inj.Stats(); st.Faulted == 0 {
		t.Errorf("injector faulted no connections: %+v", st)
	}
	if st := remote.ClientStats(); st.Retries != 0 {
		t.Errorf("latency alone should not trigger retries, got %d", st.Retries)
	}
}

// TestChaosPartialWrites: frames shredded into tiny chunks on BOTH
// sides of the connection reassemble transparently — the framing layer
// must not assume write atomicity.
func TestChaosPartialWrites(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t)
	addr, srvInj := chaosServe(t, grid, faultconn.Plan{Seed: 2, ChunkBytes: 7})
	cliInj := faultconn.New(faultconn.Plan{Seed: 3, ChunkBytes: 5})
	remote, err := DialWith(addr, DialOptions{WrapConn: cliInj.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	assertChaosAnswers(t, ctx, newTestGrid(t), remote)
	if st := srvInj.Stats(); st.Chunks == 0 {
		t.Errorf("server injector shredded nothing: %+v", st)
	}
	if st := cliInj.Stats(); st.Chunks == 0 {
		t.Errorf("client injector shredded nothing: %+v", st)
	}
}

// TestChaosMidFrameReset: the server tears its first two connections
// mid-frame (a partial response followed by a hard RST). The retrying
// client must classify the torn read as a connection failure, re-dial,
// and land the same correct answer on the third connection.
func TestChaosMidFrameReset(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t)
	addr, inj := chaosServe(t, grid, faultconn.Plan{
		Seed:            4,
		ResetAfterBytes: 64,
		FaultConns:      2,
	})
	remote, err := DialWith(addr, DialOptions{
		MaxRetries: 5,
		Backoff:    Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	assertChaosAnswers(t, ctx, newTestGrid(t), remote)
	if st := inj.Stats(); st.Resets < 2 {
		t.Errorf("wanted both doomed connections torn, injector stats %+v", st)
	}
	st := remote.ClientStats()
	if st.Retries < 2 || st.Reconnects < 2 {
		t.Errorf("client stats after two torn connections: %+v (want >=2 retries and reconnects)", st)
	}
}

// TestChaosPipelinedMidFrameReset: many calls pipelined concurrently
// over a single v3 connection, which the server tears mid-frame. The
// pipelining contract under faults: exactly the calls riding the torn
// connection fail, each with a typed error; no call hangs, no call
// receives another call's answer, and the next call after the tear
// re-dials a clean connection. One call completes on the doomed
// connection before the pipeline starts, so the tear always lands inside
// the pipeline, never before any reply. MaxRetries is 0 so the typed
// errors surface unmasked instead of being retried away.
func TestChaosPipelinedMidFrameReset(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t)
	addr, inj := chaosServe(t, grid, faultconn.Plan{
		Seed:            8,
		ResetAfterBytes: 4096,
		FaultConns:      1,
	})
	remote, err := DialWith(addr, DialOptions{MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Reference answers from an identical local grid, one per probe.
	local := newTestGrid(t)
	want := make([]*ResultSet, len(chaosQueries))
	for i, q := range chaosQueries {
		if want[i], err = local.Query(ctx, q); err != nil {
			t.Fatalf("%s local: %v", q.System, err)
		}
	}

	// sameAnswer reports whether rs is ref's answer, not a sibling's.
	sameAnswer := func(who string, rs, ref *ResultSet) bool {
		if rs.System != ref.System || len(rs.Records) != len(ref.Records) {
			t.Errorf("%s: got %s/%d records, want %s/%d (cross-call corruption?)",
				who, rs.System, len(rs.Records), ref.System, len(ref.Records))
			return false
		}
		for j := range ref.Records {
			if rs.Records[j].Key != ref.Records[j].Key {
				t.Errorf("%s record %d: key %q, want %q (cross-call corruption?)",
					who, j, rs.Records[j].Key, ref.Records[j].Key)
				return false
			}
		}
		return true
	}
	first, err := remote.Query(ctx, chaosQueries[0])
	if err != nil {
		t.Fatalf("the call before the pipeline: %v", err)
	}
	sameAnswer("the call before the pipeline", first, want[0])
	if st := inj.Stats(); st.Resets != 0 {
		t.Fatalf("the tear landed before the pipeline (injector %+v); widen ResetAfterBytes", st)
	}

	const workers = 8
	var failed atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := chaosQueries[w%len(chaosQueries)]
			ref := want[w%len(chaosQueries)]
			for i := 0; i < 32; i++ {
				rs, err := remote.Query(ctx, q)
				if err != nil {
					errs[w] = err
					failed.Add(1)
					return
				}
				// The no-corruption half: a pipelined reply must be THIS
				// call's answer, not a sibling's that raced the tear.
				if !sameAnswer(fmt.Sprintf("worker %d", w), rs, ref) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("pipelined calls did not all resolve before the deadline (hang)")
	}
	if failed.Load() == 0 {
		t.Fatalf("the doomed connection failed no calls (injector %+v)", inj.Stats())
	}
	for w, err := range errs {
		if err != nil && CodeOf(err) == "" {
			t.Errorf("worker %d failed without a typed code: %v", w, err)
		}
	}

	// Recovery: the injector only dooms the first connection, so the
	// probe set over a fresh dial answers correctly end to end.
	assertChaosAnswers(t, ctx, local, remote)
	if st := inj.Stats(); st.Resets != 1 {
		t.Errorf("injector resets = %d, want exactly the 1 doomed connection", st.Resets)
	}
	if st := remote.ClientStats(); st.Reconnects < 1 {
		t.Errorf("client stats after the tear: %+v (want >=1 reconnect)", st)
	}
}

// TestChaosStall: the first server connection stalls every write far
// past the client's per-attempt timeout. The attempt must fail by
// deadline — not hang — and the retry on a clean connection must
// succeed within the caller's budget.
func TestChaosStall(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t)
	addr, inj := chaosServe(t, grid, faultconn.Plan{
		Seed:       5,
		StallEvery: 1,
		StallFor:   2 * time.Second,
		FaultConns: 1,
	})
	remote, err := DialWith(addr, DialOptions{
		AttemptTimeout: 100 * time.Millisecond,
		MaxRetries:     3,
		Backoff:        Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	rs, err := remote.Query(ctx, chaosQueries[0])
	if err != nil {
		t.Fatalf("query through a stalled first connection: %v", err)
	}
	if rs.Len() == 0 {
		t.Fatal("query through a stalled first connection returned no records")
	}
	// The stalled attempt costs ~AttemptTimeout, the clean retry is
	// fast; anything near the 2s stall means the deadline never fired.
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Errorf("recovery took %v — the stalled attempt was waited out instead of timed out", elapsed)
	}
	if st := remote.ClientStats(); st.Retries < 1 || st.Reconnects < 1 {
		t.Errorf("client stats after a stalled connection: %+v (want >=1 retry and reconnect)", st)
	}
	if st := inj.Stats(); st.Stalls == 0 {
		t.Errorf("injector stalled nothing: %+v", st)
	}
}

// TestChaosClientSideReset: the fault seam works on the client half
// too — the client's own first connection tears on write, and the
// retry re-dials clean.
func TestChaosClientSideReset(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t)
	addr, _ := chaosServe(t, grid, faultconn.Plan{})
	inj := faultconn.New(faultconn.Plan{Seed: 6, ResetAfterBytes: 10, FaultConns: 1})
	remote, err := DialWith(addr, DialOptions{
		MaxRetries: 3,
		Backoff:    Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		WrapConn:   inj.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	assertChaosAnswers(t, ctx, newTestGrid(t), remote)
	if st := inj.Stats(); st.Resets != 1 {
		t.Errorf("client injector resets = %d, want 1", st.Resets)
	}
	if st := remote.ClientStats(); st.Reconnects < 1 {
		t.Errorf("client stats after tearing its own connection: %+v (want >=1 reconnect)", st)
	}
}

// TestChaosSubscribeReset: a subscribe stream whose connection is torn
// mid-frame must terminate with an error — events already delivered
// stay well-formed and in order, Next never hangs.
func TestChaosSubscribeReset(t *testing.T) {
	leakcheck.Check(t)
	grid, now := steppedGrid(t)
	addr, inj := chaosServe(t, grid, faultconn.Plan{Seed: 7, ResetAfterBytes: 1500})
	remote, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	st, err := remote.Subscribe(ctx, Subscription{System: RGMA})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer st.Close()

	// Pump monitoring rounds until the stream dies; each round emits
	// R-GMA events that burn down the connection's byte budget.
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
			if err := grid.Advance(tick); err != nil {
				return
			}
		}
	}()

	var lastSeq uint64
	for {
		ev, err := st.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				t.Fatal("stream did not terminate after the mid-frame reset (hang)")
			}
			// A lag report does not end the stream: the pump can outrun
			// the reader before the reset fires. Keep reading.
			if errors.Is(err, ErrLagged) {
				continue
			}
			// Terminated with an error, as it must: a torn conn ends
			// the stream.
			break
		}
		if ev.Seq <= lastSeq && lastSeq != 0 {
			t.Fatalf("event seq went backwards after faults: %d then %d", lastSeq, ev.Seq)
		}
		lastSeq = ev.Seq
	}
	if st := inj.Stats(); st.Resets == 0 {
		t.Errorf("injector tore nothing: %+v", st)
	}
}

// stalledListener accepts connections and never answers on them: a
// server wedged past its accept loop. It returns the address.
func stalledListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestChaosSubscribeStalledServer: AttemptTimeout bounds a subscribe's
// dial and handshake as it bounds a call's attempt, so a server that
// accepts and never answers fails the subscribe deadline_exceeded well
// inside the caller's budget instead of holding it to the end.
func TestChaosSubscribeStalledServer(t *testing.T) {
	leakcheck.Check(t)
	remote := DialLazy(stalledListener(t), DialOptions{AttemptTimeout: 100 * time.Millisecond})
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	st, err := remote.Subscribe(ctx, Subscription{System: RGMA})
	if err == nil {
		st.Close()
		t.Fatal("a server that never answers acknowledged the subscribe")
	}
	if code := transport.ErrorCode(err); code != transport.CodeDeadline {
		t.Fatalf("subscribe to a stalled server = %v, want %s", err, transport.CodeDeadline)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("subscribe took %v to fail: the attempt timeout did not bound the handshake", elapsed)
	}
}

// querierFunc adapts a function to the Querier interface, for stub
// servers that script their answers.
type querierFunc func(context.Context, Query) (*ResultSet, error)

func (f querierFunc) Query(ctx context.Context, q Query) (*ResultSet, error) { return f(ctx, q) }

// TestChaosOverloadRetry: a server that sheds the first two calls with
// CodeOverloaded is retried — transparently to the caller — and the
// shed count is visible in client stats.
func TestChaosOverloadRetry(t *testing.T) {
	leakcheck.Check(t)
	srv := transport.NewServer()
	var calls atomic.Int64
	ServeQueryV3(srv, querierFunc(func(_ context.Context, q Query) (*ResultSet, error) {
		if calls.Add(1) <= 2 {
			return nil, transport.Errf(transport.CodeOverloaded, "admission queue full")
		}
		return &ResultSet{System: q.System, Role: RoleAggregateServer}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	remote, err := DialWith(addr, DialOptions{
		MaxRetries: 4,
		Backoff:    Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := remote.Query(ctx, Query{System: MDS}); err != nil {
		t.Fatalf("query through two sheds: %v", err)
	}
	st := remote.ClientStats()
	if st.Overloaded != 2 || st.Retries != 2 {
		t.Errorf("client stats = %+v, want 2 overloaded and 2 retries", st)
	}
	if st.Reconnects != 0 {
		t.Errorf("overload sheds must not burn the connection, got %d reconnects", st.Reconnects)
	}
}

// TestChaosBreakerTrips: a server shedding every call trips the breaker
// at its threshold; further calls fail fast locally with a
// distinguishable error and never touch the wire.
func TestChaosBreakerTrips(t *testing.T) {
	leakcheck.Check(t)
	srv := transport.NewServer()
	var calls atomic.Int64
	ServeQueryV3(srv, querierFunc(func(context.Context, Query) (*ResultSet, error) {
		calls.Add(1)
		return nil, transport.Errf(transport.CodeOverloaded, "drowning")
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	remote, err := DialWith(addr, DialOptions{
		MaxRetries: 10,
		Backoff:    Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Breaker:    Breaker{Threshold: 3, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	_, err = remote.Query(ctx, Query{System: MDS})
	if err == nil {
		t.Fatal("query against an always-shedding server succeeded")
	}
	if CodeOf(err) != ErrUnavailable || !strings.Contains(err.Error(), "circuit breaker") {
		t.Fatalf("want a circuit-breaker unavailable error, got [%s] %v", CodeOf(err), err)
	}
	st := remote.ClientStats()
	if st.BreakerState != BreakerOpen || st.BreakerOpens != 1 {
		t.Errorf("breaker after threshold sheds: state=%s opens=%d, want open/1", st.BreakerState, st.BreakerOpens)
	}
	if st.Overloaded != 3 {
		t.Errorf("overloaded = %d, want exactly the threshold's 3 (the breaker must stop further attempts)", st.Overloaded)
	}
	wire := calls.Load()

	// The circuit is open: the next call fails fast without the wire.
	if _, err := remote.Query(ctx, Query{System: MDS}); err == nil || !strings.Contains(err.Error(), "circuit breaker") {
		t.Fatalf("open-circuit call: want fast local failure, got %v", err)
	}
	if calls.Load() != wire {
		t.Errorf("open-circuit call touched the wire (%d -> %d server calls)", wire, calls.Load())
	}
}
