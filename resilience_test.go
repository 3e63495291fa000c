package gridmon

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// TestBreakerStateMachine walks the full closed → open → half-open
// cycle on an injected clock — no sleeps, fully deterministic.
func TestBreakerStateMachine(t *testing.T) {
	leakcheck.Check(t)
	now := time.Unix(0, 0)
	b := newBreaker(Breaker{Threshold: 3, Cooldown: time.Second})
	b.now = func() time.Time { return now }

	// Closed: attempts flow, sub-threshold failures don't trip.
	for i := 0; i < 2; i++ {
		if err := b.allow(); err != nil {
			t.Fatalf("closed allow %d: %v", i, err)
		}
		b.failure()
	}
	if state, _ := b.snapshot(); state != BreakerClosed {
		t.Fatalf("after 2/3 failures state = %s, want closed", state)
	}
	// A success resets the consecutive count.
	b.success()
	for i := 0; i < 2; i++ {
		b.failure()
	}
	if state, _ := b.snapshot(); state != BreakerClosed {
		t.Fatalf("success must reset the failure count; state = %s", state)
	}
	// The third consecutive failure opens the circuit.
	b.failure()
	state, opens := b.snapshot()
	if state != BreakerOpen || opens != 1 {
		t.Fatalf("at threshold: state=%s opens=%d, want open/1", state, opens)
	}
	// Open: fail fast until the cooldown elapses.
	err := b.allow()
	if err == nil || transport.ErrorCode(err) != transport.CodeUnavailable ||
		!strings.Contains(err.Error(), "circuit breaker") {
		t.Fatalf("open allow: want a circuit-breaker unavailable error, got %v", err)
	}
	// Cooldown elapsed: exactly one half-open probe is admitted.
	now = now.Add(1100 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if state, _ := b.snapshot(); state != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", state)
	}
	if err := b.allow(); err == nil {
		t.Fatal("second concurrent probe admitted; half-open must allow one")
	}
	// A failed probe re-opens for another cooldown.
	b.failure()
	state, opens = b.snapshot()
	if state != BreakerOpen || opens != 2 {
		t.Fatalf("after failed probe: state=%s opens=%d, want open/2", state, opens)
	}
	// Next cooldown: the probe succeeds and the circuit closes.
	now = now.Add(1100 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.success()
	if state, _ := b.snapshot(); state != BreakerClosed {
		t.Fatalf("after successful probe state = %s, want closed", state)
	}
	if err := b.allow(); err != nil {
		t.Fatalf("closed again, allow: %v", err)
	}
}

// TestBreakerDisabled: a zero threshold builds no breaker at all.
func TestBreakerDisabled(t *testing.T) {
	leakcheck.Check(t)
	if b := newBreaker(Breaker{}); b != nil {
		t.Fatalf("zero-value Breaker built a live breaker: %+v", b)
	}
}

// TestParseBreaker: the -breaker flag form THRESHOLD[,COOLDOWN].
func TestParseBreaker(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Breaker
		ok   bool
	}{
		{"", Breaker{}, true},
		{"5", Breaker{Threshold: 5}, true},
		{"5,2s", Breaker{Threshold: 5, Cooldown: 2 * time.Second}, true},
		{" 5 , 250ms ", Breaker{Threshold: 5, Cooldown: 250 * time.Millisecond}, true},
		{"x", Breaker{}, false},
		{"5,zz", Breaker{Threshold: 5}, false},
	} {
		got, err := ParseBreaker(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseBreaker(%q) = %+v, %v; want %+v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestBackoffDeterminism: the same seed yields the same delay sequence,
// delays grow exponentially, and the cap holds.
func TestBackoffDeterminism(t *testing.T) {
	leakcheck.Check(t)
	cfg := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	var prev time.Duration
	for n := 0; n < 8; n++ {
		da := cfg.delay(n, a)
		db := cfg.delay(n, b)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v and %v", n, da, db)
		}
		// ±10% jitter around base*2^n, capped at Max.
		ideal := time.Duration(float64(10*time.Millisecond) * float64(int(1)<<n))
		if ideal > 80*time.Millisecond {
			ideal = 80 * time.Millisecond
		}
		lo, hi := time.Duration(float64(ideal)*0.89), time.Duration(float64(ideal)*1.11)
		if da < lo || da > hi {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", n, da, lo, hi)
		}
		if n > 0 && n < 3 && da <= prev {
			t.Errorf("attempt %d: delay %v did not grow past %v", n, da, prev)
		}
		prev = da
	}
	// Zero value: defaults kick in, nothing panics, delays stay sane.
	var zero Backoff
	d := zero.delay(0, rand.New(rand.NewSource(1)))
	if d < 8*time.Millisecond || d > 12*time.Millisecond {
		t.Errorf("zero-value first delay = %v, want ~10ms", d)
	}
}

// TestAdmissionGate covers the gate's shed decisions directly: fast
// path, no-queue shed, full-queue shed, queue-timeout shed, and a ctx
// expiring mid-wait reporting as the ctx's error rather than a shed.
// A shed's wall-clock bound (< 1ms) is asserted only under
// GRIDMON_WALLCLOCK=1 (wallclockBounds): a busy 2-core machine
// overran it.
func TestAdmissionGate(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()

	t.Run("fast path", func(t *testing.T) {
		c := &serveCounters{}
		a := newAdmission(2, 0, 0, c)
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		a.release()
		a.release()
		if st := c.snapshot(); st.Shed != 0 || st.Queued != 0 {
			t.Errorf("uncontended stats: %+v", st)
		}
	})

	t.Run("no queue sheds immediately", func(t *testing.T) {
		c := &serveCounters{}
		a := newAdmission(1, 0, 0, c)
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err := a.acquire(ctx)
		fastFail := time.Since(start)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("over-limit acquire: %v, want ErrOverloaded", err)
		}
		if wallclockBounds() && fastFail > time.Millisecond {
			t.Errorf("shed took %v, want < 1ms", fastFail)
		}
		if st := c.snapshot(); st.Shed != 1 {
			t.Errorf("shed count = %d, want 1", st.Shed)
		}
		a.release()
	})

	t.Run("full queue sheds immediately", func(t *testing.T) {
		c := &serveCounters{}
		a := newAdmission(1, 1, time.Minute, c)
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		// One waiter fills the queue.
		queued := make(chan error, 1)
		go func() { queued <- a.acquire(ctx) }()
		waitFor(t, func() bool { return c.QueueDepth.Load() == 1 })
		// The next arrival finds slot and queue full: immediate shed.
		start := time.Now()
		err := a.acquire(ctx)
		fastFail := time.Since(start)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("past-queue acquire: %v, want ErrOverloaded", err)
		}
		if wallclockBounds() && fastFail > time.Millisecond {
			t.Errorf("shed took %v, want < 1ms", fastFail)
		}
		// Freeing the slot admits the queued waiter.
		a.release()
		if err := <-queued; err != nil {
			t.Fatalf("queued waiter: %v", err)
		}
		a.release()
		st := c.snapshot()
		if st.Shed != 1 || st.Queued != 1 || st.QueueDepth != 0 {
			t.Errorf("stats after queue cycle: %+v", st)
		}
	})

	t.Run("queue timeout sheds", func(t *testing.T) {
		c := &serveCounters{}
		a := newAdmission(1, 4, 10*time.Millisecond, c)
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		err := a.acquire(ctx) // queues, then times out
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("timed-out acquire: %v, want ErrOverloaded", err)
		}
		a.release()
		st := c.snapshot()
		if st.Shed != 1 || st.QueueDepth != 0 {
			t.Errorf("stats after queue timeout: %+v", st)
		}
	})

	t.Run("ctx expiry while queued is not a shed", func(t *testing.T) {
		c := &serveCounters{}
		a := newAdmission(1, 4, time.Minute, c)
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		defer cancel()
		err := a.acquire(short)
		if err == nil || errors.Is(err, ErrOverloaded) {
			t.Fatalf("ctx-expired acquire: %v, want the deadline error", err)
		}
		if transport.ErrorCode(err) != transport.CodeDeadline {
			t.Errorf("ctx-expired acquire code = %s, want deadline", transport.ErrorCode(err))
		}
		a.release()
		if st := c.snapshot(); st.Shed != 0 || st.QueueDepth != 0 {
			t.Errorf("stats after ctx expiry: %+v", st)
		}
	})
}

// waitFor polls cond briefly — for arranging multi-goroutine admission
// states, not for timing assertions.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsOverTheWire: Grid.Stats and the ops.stats op report the same
// counters, and the counters actually move with traffic.
func TestStatsOverTheWire(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t, WithAdmission(2, 4, 50*time.Millisecond))
	remote := serveGrid(t, grid)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := remote.Query(ctx, Query{System: MDS, Role: RoleAggregateServer}); err != nil {
			t.Fatal(err)
		}
	}
	// One failing query: bad expressions count as errors, not queries.
	if _, err := remote.Query(ctx, Query{System: MDS, Role: RoleAggregateServer, Expr: "((broken"}); err == nil {
		t.Fatal("bad filter succeeded")
	}

	local := grid.Stats()
	if local.Queries != 3 || local.Errors != 1 {
		t.Errorf("Grid.Stats = %+v, want 3 queries and 1 error", local)
	}
	wire, err := remote.Stats(ctx)
	if err != nil {
		t.Fatalf("ops.stats: %v", err)
	}
	if wire != local {
		t.Errorf("ops.stats %+v != Grid.Stats %+v", wire, local)
	}
}

// TestOverloadedTravelsTheWire: a shed produced by the facade's gate
// arrives at a remote caller with the same structured code, and
// errors.Is recognizes it.
func TestOverloadedTravelsTheWire(t *testing.T) {
	leakcheck.Check(t)
	// maxConcurrent 1 with no queue, and a slot held hostage by a
	// blocked acquire of our own: every remote query sheds.
	grid := newTestGrid(t, WithAdmission(1, 0, 0))
	remote := serveGrid(t, grid)
	ctx := context.Background()
	if err := grid.admit.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	defer grid.admit.release()

	_, err := remote.Query(ctx, Query{System: MDS, Role: RoleAggregateServer})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("remote shed = %v, want ErrOverloaded over the wire", err)
	}
	if CodeOf(err) != ErrOverloadedCode {
		t.Errorf("remote shed code = %s, want %s", CodeOf(err), ErrOverloadedCode)
	}
	if st := grid.Stats(); st.Shed != 1 {
		t.Errorf("server shed count = %d, want 1", st.Shed)
	}
}

// TestClosedClientNeverRedials: Close retires a RemoteGrid for good. A
// call after it fails typed and opens no connection, where it used to
// re-dial one that nothing would ever close. The server outlives the
// leak check, so such a connection would still be open when it runs.
func TestClosedClientNeverRedials(t *testing.T) {
	srv := transport.NewServer()
	newTestGrid(t).Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Run("close-then-query", func(t *testing.T) {
		leakcheck.Check(t)
		remote, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		q := Query{System: MDS, Role: RoleAggregateServer}
		if _, err := remote.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
		remote.Close()
		for name, call := range map[string]func() error{
			"Query": func() error { _, err := remote.Query(ctx, q); return err },
			"Hosts": func() error { _, err := remote.Hosts(ctx); return err },
			"Subscribe": func() error {
				st, err := remote.Subscribe(ctx, Subscription{System: RGMA, Host: "lucky4"})
				if err == nil {
					st.Close()
				}
				return err
			},
		} {
			if err := call(); CodeOf(err) != ErrUnavailable || !strings.Contains(err.Error(), "client closed") {
				t.Errorf("%s after Close: %v, want unavailable \"client closed\"", name, err)
			}
		}
		if st := remote.ClientStats(); st.Reconnects != 0 {
			t.Errorf("closed client reconnected %d times", st.Reconnects)
		}
	})
}
