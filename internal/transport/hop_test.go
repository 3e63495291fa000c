package transport

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/leakcheck"
)

// TestV3CallAllocs pins a warmed loopback CallV3 round trip at zero
// allocations, counted across both ends: the client registers the call
// in a reused reply slot and writes its frame from pooled buffers, the
// server reads it into its per-connection buffer, resolves the op
// without copying its name and hands it to an idle connection worker,
// and the reply travels back the same way. Before the reply slots, the
// connection workers and the stack-resident frame headers, it cost 8.
func TestV3CallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	_, addr := v3AddServer(t)
	m := dialV3(t, addr)
	ctx := context.Background()
	var sum uint64
	enc := func(b []byte) []byte { return binenc.AppendUvarint(binenc.AppendUvarint(b, 19), 23) }
	dec := func(body []byte) error {
		d := binenc.NewDec(body)
		sum = d.Uvarint()
		return d.Err()
	}
	call := func() {
		if err := m.CallV3(ctx, "math.add", enc, dec); err != nil {
			t.Fatal(err)
		}
		if sum != 42 {
			t.Fatalf("sum = %d", sum)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	allocs := testing.AllocsPerRun(500, call)
	t.Logf("%.2f allocs per CallV3 round trip", allocs)
	if allocs != 0 {
		t.Errorf("a loopback CallV3 round trip costs %.2f allocs, want 0", allocs)
	}
}

// TestV3AbandonedReplyNeverReused: a MuxClient reuses the reply channel
// of a call that got its reply, but never one whose call gave up
// mid-flight — the demux loop may be about to send that call's late
// reply into it, where the next call to take the channel would read
// it as its own. Many goroutines share one client, mixing calls that
// time out mid-flight with math.add calls on operands no other call
// uses: every completed add must get its own sum.
func TestV3AbandonedReplyNeverReused(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	handleAdd(srv)
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.HandleV3("hold", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		close(entered)
		<-release
		return out, nil
	})
	srv.HandleV3("nap", func(_ context.Context, body, out []byte) ([]byte, *Error) {
		// The handler ignores its context, so a call that gives up is
		// still answered, late.
		d := binenc.NewDec(body)
		time.Sleep(time.Duration(d.Uvarint()) * time.Microsecond)
		if err := d.Err(); err != nil {
			return nil, AsError(err)
		}
		return out, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	m := dialV3(t, addr)
	for i := uint64(0); i < 4; i++ {
		if sum, err := addV3(t, m, i, 1); err != nil || sum != i+1 {
			t.Fatalf("warm-up add = %d, %v", sum, err)
		}
	}

	// One call abandoned while its reply is pending: its channel must not
	// reach the free list, now or after the late reply arrives.
	ctx, cancel := context.WithCancel(context.Background())
	held := make(chan error, 1)
	go func() { held <- m.CallV3(ctx, "hold", nil, nil) }()
	<-entered
	var abandoned chan muxReply
	m.mu.Lock()
	for _, ch := range m.calls {
		abandoned = ch
	}
	m.mu.Unlock()
	if abandoned == nil {
		t.Fatal("the held call has no pending entry")
	}
	cancel()
	if err := <-held; ErrorCode(err) != CodeCanceled {
		t.Fatalf("abandoned call err = %v, want %s", err, CodeCanceled)
	}
	close(release)
	reused := func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, ch := range m.free {
			if ch == abandoned {
				return true
			}
		}
		for _, ch := range m.calls {
			if ch == abandoned {
				return true
			}
		}
		return false
	}
	if reused() {
		t.Fatal("the abandoned call's reply channel was handed back for reuse")
	}

	// Calls that time out mid-flight beside calls that complete.
	const goroutines, calls = 8, 150
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := uint64(0); i < calls; i++ {
				if rng.Intn(2) == 0 {
					nap := uint64(rng.Intn(2000))
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					err := m.CallV3(ctx, "nap", func(b []byte) []byte { return binenc.AppendUvarint(b, nap) }, nil)
					cancel()
					if err != nil && ErrorCode(err) != CodeDeadline {
						errs <- err
						return
					}
					continue
				}
				a, b := g<<32|i, uint64(1)<<40
				sum, err := addV3(t, m, a, b)
				if err != nil {
					errs <- err
					return
				}
				if sum != a+b {
					errs <- Errf(CodeInternal, "goroutine %d call %d: %d + %d answered %d", g, i, a, b, sum)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if reused() {
		t.Fatal("the abandoned call's reply channel was handed back for reuse")
	}
	m.mu.Lock()
	kept := len(m.free)
	m.mu.Unlock()
	if kept > cap(m.sem) {
		t.Fatalf("%d reply channels kept for reuse, more than the %d calls that can be in flight", kept, cap(m.sem))
	}
}

// TestV3WorkersBoundedAndReaped: a connection runs at most
// DefaultMaxPipeline calls at once, on workers it starts as it needs
// them; the next call waits for one to finish. Closing the connection
// ends its workers, and the server closes with nothing left running.
func TestV3WorkersBoundedAndReaped(t *testing.T) {
	leakcheck.Check(t)
	srv := NewServer()
	entered := make(chan struct{}, DefaultMaxPipeline+1)
	release := make(chan struct{})
	srv.HandleV3("hold", func(_ context.Context, _, out []byte) ([]byte, *Error) {
		entered <- struct{}{}
		<-release
		return out, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A failed test must not hang in Close: it fails again instead.
	closeServer := func() {
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Error("Server.Close did not return")
		}
	}
	t.Cleanup(closeServer)
	// Runs before closeServer, so a failing test cannot leave Close
	// waiting on a held handler.
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(releaseAll)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMuxClient(conn, DefaultMaxPipeline+1)
	defer m.Close()
	done := make(chan error, DefaultMaxPipeline+1)
	for i := 0; i <= DefaultMaxPipeline; i++ {
		go func() { done <- m.CallV3(context.Background(), "hold", nil, nil) }()
	}
	for i := 0; i < DefaultMaxPipeline; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d calls reached a handler", i, DefaultMaxPipeline)
		}
	}
	select {
	case <-entered:
		t.Fatalf("more than %d calls ran at once on one connection", DefaultMaxPipeline)
	case <-time.After(50 * time.Millisecond):
	}
	releaseAll()
	for i := 0; i <= DefaultMaxPipeline; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls answered", i, DefaultMaxPipeline+1)
		}
	}

	// Closing the client's end ends the connection's read loop; the
	// server forgets the connection only once its workers have exited.
	m.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		open := len(srv.conns)
		srv.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the connection's workers still run after it closed")
		}
		time.Sleep(time.Millisecond)
	}
	closeServer()
}
