package gridmon

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Backoff shapes the delay between a resilient client's retry attempts:
// exponential growth from Base by backoffMultiplier, capped at Max, with
// a seeded ±backoffJitter/2 fraction randomized on top so a fleet of
// clients recovering from the same outage does not retry in lockstep.
// The zero value means 10ms base, 1s cap and a fixed seed — deterministic
// across runs, which is what the chaos tests need.
type Backoff struct {
	// Base is the delay before the first retry (default 10ms).
	Base time.Duration
	// Max caps the grown delay (default 1s).
	Max time.Duration
	// Seed seeds the jitter source (0 uses a fixed default seed, so an
	// unconfigured client is still deterministic).
	Seed int64
}

// backoffMultiplier grows the retry delay per attempt; backoffJitter is
// the fraction of the delay randomized symmetrically around it (the
// delay varies ±10%).
const (
	backoffMultiplier = 2
	backoffJitter     = 0.2
)

func (b Backoff) base() time.Duration { return defDur(b.Base, 10*time.Millisecond) }
func (b Backoff) max() time.Duration  { return defDur(b.Max, time.Second) }

func defDur(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// delay computes the nth retry's backoff (n counts from 0) using rng as
// the jitter source. Callers serialize access to rng.
func (b Backoff) delay(n int, rng *rand.Rand) time.Duration {
	d := float64(b.base())
	limit := float64(b.max())
	for i := 0; i < n && d < limit; i++ {
		d *= backoffMultiplier
	}
	if d > limit {
		d = limit
	}
	d *= 1 - backoffJitter/2 + backoffJitter*rng.Float64()
	return time.Duration(d)
}

// DialOptions configures the resilient remote client (DialWith). The
// zero value is the plain client Dial builds: no per-attempt timeout, no
// retries, no breaker.
type DialOptions struct {
	// MaxInFlight bounds pipelined in-flight calls per connection (0 uses
	// transport.DefaultMaxInFlight).
	MaxInFlight int
	// AttemptTimeout bounds each individual attempt (dial + exchange);
	// the caller's ctx still bounds the whole call, retries and backoff
	// included. 0 leaves attempts bounded only by the ctx.
	AttemptTimeout time.Duration
	// MaxRetries is how many times a failed idempotent call is retried
	// after the first attempt (0 = no retries). Only the idempotent
	// request/response ops retry — Query, Hosts, Systems, Ops, Stats;
	// Subscribe never does (replaying a subscribe handshake could ack
	// duplicate event delivery — the consumer owns that decision).
	// Retryable failures: connection errors (reset, EOF, refused dial),
	// per-attempt deadline expiry, and CodeOverloaded sheds; definitive
	// server answers (bad request, parse, exec, unavailable) are not
	// retried. Connection-level failures reconnect automatically before
	// the next attempt.
	MaxRetries int
	// Backoff shapes the delay between retries (zero value: 10ms base,
	// ×2 growth, 1s cap, seeded ±20% jitter).
	Backoff Backoff
	// Breaker, when Threshold > 0, trips after that many consecutive
	// failed attempts: calls then fail fast locally until Cooldown
	// elapses and a half-open probe succeeds — the retry-storm guard.
	Breaker Breaker
	// WrapConn, when non-nil, wraps every connection the client opens
	// (calls and subscribes alike) — the client half of the
	// fault-injection seam (see internal/faultconn and
	// transport.Server.WrapConn for the server half).
	WrapConn func(net.Conn) net.Conn
}

// ClientStats is a snapshot of a RemoteGrid's local resilience counters
// (the server-side view lives in Stats, fetched over ops.stats).
type ClientStats struct {
	// Calls counts idempotent request/response calls issued.
	Calls int64 `json:"calls"`
	// Retries counts additional attempts after a failed one.
	Retries int64 `json:"retries"`
	// Reconnects counts re-dials after a connection was torn down.
	Reconnects int64 `json:"reconnects"`
	// Overloaded counts CodeOverloaded sheds observed from the server.
	Overloaded int64 `json:"overloaded"`
	// BreakerState is the circuit breaker's current state (disabled /
	// closed / open / half-open); BreakerOpens counts open transitions.
	BreakerState string `json:"breaker_state"`
	BreakerOpens int64  `json:"breaker_opens"`
}

// RemoteGrid is a connection to a grid served over TCP (cmd/gridmon-live
// or any transport.Server passed to Grid.Serve). It implements the same
// Querier and Subscriber interfaces as the in-process Grid: the same
// Query returns the same records and Work (with Elapsed measuring the
// full round trip), and the same Subscription delivers the same ordered
// event sequence. It is safe for concurrent use: calls share one
// pipelined connection — up to MaxInFlight genuinely in flight together,
// matched to their answers by request id — and each Subscribe opens a
// dedicated streaming connection of its own.
//
// Built with DialWith, the client is also resilient: idempotent calls
// retry with exponential backoff across connection resets, per-attempt
// deadline expiry and server overload sheds, reconnecting as needed,
// and a circuit breaker (see Breaker) keeps a dead server from eating
// retries. ClientStats exposes what the resilience machinery did.
type RemoteGrid struct {
	addr string
	opts DialOptions
	br   *breaker // nil when the breaker is disabled

	// rngMu guards rng, the backoff jitter source.
	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu

	// connMu guards client, the current shared request/response
	// connection (nil means the next call must dial), and closed, set by
	// Close: a closed client never dials again.
	connMu sync.Mutex
	client *transport.MuxClient // guarded by connMu
	closed bool                 // guarded by connMu

	// texts holds the answers Query decoded last (answerTexts).
	texts answerTexts

	calls      atomic.Int64
	retries    atomic.Int64
	reconnects atomic.Int64
	overloaded atomic.Int64
}

// Dial connects to a grid server with no resilience options — exactly
// DialWith(addr, DialOptions{}).
func Dial(addr string) (*RemoteGrid, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects to a grid server with the given resilience options.
// The initial connection is established eagerly, so an unreachable
// address fails here rather than on the first call; later connection
// losses are repaired automatically by the retry loop (a client with
// MaxRetries 0 still reconnects on its next call after an error — it
// just doesn't retry the failed call itself).
func DialWith(addr string, opts DialOptions) (*RemoteGrid, error) {
	//gridmon:nolint ctxflow compat root: Dial/DialWith are the pre-context entry points; per-call ctx governs everything after
	return DialContextWith(context.Background(), addr, opts)
}

// DialContextWith is DialWith with the eager initial connection bounded
// by ctx, so an unreachable address costs the caller's budget, never a
// hang.
func DialContextWith(ctx context.Context, addr string, opts DialOptions) (*RemoteGrid, error) {
	r := DialLazy(addr, opts)
	c, err := r.dialClient(ctx)
	if err != nil {
		return nil, err
	}
	r.connMu.Lock()
	r.client = c
	r.connMu.Unlock()
	return r, nil
}

// DialLazy builds a resilient client without touching the network: the
// first connection is established by the first call and repaired the
// same way after losses, so construction never fails and never blocks.
// Every connection failure — including the very first dial — feeds the
// configured circuit breaker, which is what a federation aggregator
// wants: a leaf that is down from the start trips the branch's breaker
// exactly like one that died mid-run, and half-open probes notice it
// coming back.
func DialLazy(addr string, opts DialOptions) *RemoteGrid {
	return &RemoteGrid{
		addr:  addr,
		opts:  opts,
		br:    newBreaker(opts.Breaker),
		rng:   rand.New(rand.NewSource(defSeed(opts.Backoff.Seed))),
		texts: newAnswerTexts(),
	}
}

func defSeed(seed int64) int64 {
	if seed != 0 {
		return seed
	}
	return 0x67726964 // "grid": fixed so unconfigured jitter is still reproducible
}

// dial opens one wrapped connection to the server.
func (r *RemoteGrid) dial(ctx context.Context) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return nil, err
	}
	if r.opts.WrapConn != nil {
		conn = r.opts.WrapConn(conn)
	}
	return conn, nil
}

// dialClient opens one call connection to the server.
func (r *RemoteGrid) dialClient(ctx context.Context) (*transport.MuxClient, error) {
	conn, err := r.dial(ctx)
	if err != nil {
		return nil, err
	}
	return transport.NewMuxClient(conn, r.opts.MaxInFlight), nil
}

// errClientClosed is what every call on a closed RemoteGrid fails with.
var errClientClosed = &transport.Error{Code: transport.CodeUnavailable, Message: "client closed"}

// getClient returns the current shared connection, dialing a fresh one
// if the last was torn down — unless the client is closed.
func (r *RemoteGrid) getClient(ctx context.Context) (*transport.MuxClient, error) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if r.closed {
		return nil, errClientClosed
	}
	if r.client != nil {
		return r.client, nil
	}
	c, err := r.dialClient(ctx)
	if err != nil {
		return nil, err
	}
	r.reconnects.Add(1)
	r.client = c
	return c, nil
}

// invalidate tears down a connection that failed mid-exchange, so the
// next attempt re-dials; closing the mux fails its sibling in-flight
// calls with typed connection errors, each of which retries on the fresh
// connection under its own budget. Only the current client is dropped —
// a concurrent call may already have replaced it.
func (r *RemoteGrid) invalidate(c *transport.MuxClient) {
	r.connMu.Lock()
	if r.client == c {
		r.client = nil
	}
	r.connMu.Unlock()
	c.Close()
}

// sleepBackoff waits out the nth retry's backoff or the ctx, whichever
// ends first.
func (r *RemoteGrid) sleepBackoff(ctx context.Context, n int) error {
	r.rngMu.Lock()
	d := r.opts.Backoff.delay(n, r.rng)
	r.rngMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return transport.AsError(ctx.Err())
	}
}

// callWire runs one idempotent exchange through the resilience
// machinery: breaker gate, per-attempt timeout, retry with backoff and
// reconnect. attempt performs the protocol-level exchange on the
// connection it is handed.
func (r *RemoteGrid) callWire(ctx context.Context, attempt func(ctx context.Context, c *transport.MuxClient) error) error {
	r.calls.Add(1)
	attempts := 1 + r.opts.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			if err := r.sleepBackoff(ctx, n-1); err != nil {
				return err
			}
			r.retries.Add(1)
		}
		if r.br != nil {
			if err := r.br.allow(); err != nil {
				// The circuit is open: fail fast without touching the
				// wire. Not a wire failure, so it doesn't feed back into
				// the breaker.
				return err
			}
		}
		c, err := r.getClient(ctx)
		if errors.Is(err, errClientClosed) {
			return err
		}
		if err != nil {
			// Dial failures are always connection-class: note, retry.
			if r.br != nil {
				r.br.failure()
			}
			lastErr = transport.AsError(err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		actx := ctx
		cancel := func() {}
		if r.opts.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.opts.AttemptTimeout)
		}
		err = attempt(actx, c)
		cancel()
		if err == nil {
			if r.br != nil {
				r.br.success()
			}
			return nil
		}
		lastErr = err
		retry, reconnect, healthy := r.classify(ctx, err)
		if reconnect {
			r.invalidate(c)
		}
		if r.br != nil {
			if healthy {
				r.br.success()
			} else {
				r.br.failure()
			}
		}
		if !retry || ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// classify decides what a failed attempt means: whether the call may be
// retried, whether the connection must be re-dialed first, and whether
// the server proved healthy (it delivered a definitive answer — even a
// failure like parse_error is a healthy server doing its job, and must
// not trip the breaker).
func (r *RemoteGrid) classify(ctx context.Context, err error) (retry, reconnect, healthy bool) {
	var te *transport.Error
	if !errors.As(err, &te) {
		// A plain error is connection-level I/O: reset, EOF, refused.
		return true, true, false
	}
	switch te.Code {
	case transport.CodeOverloaded:
		// The server shed us cleanly; the connection is fine, backoff
		// and retry. Overload still counts against the breaker — the
		// point of the breaker is to stop hammering a drowning server.
		r.overloaded.Add(1)
		return true, false, false
	case transport.CodeDeadline:
		if ctx.Err() != nil {
			// The caller's own deadline expired: done, no retry.
			return false, true, false
		}
		// The per-attempt timeout fired; the connection itself may be
		// what stalled, so reconnect and retry within the caller's budget.
		return true, true, false
	case transport.CodeCanceled:
		return false, true, false
	default:
		// A definitive server answer (bad_request, parse_error,
		// exec_error, unavailable, unknown_op, protocol_mismatch,
		// internal): not retryable, connection healthy.
		return false, false, true
	}
}

// Call runs one idempotent JSON-bodied op through the full resilience
// machinery (breaker gate, per-attempt timeout, retry with backoff and
// reconnect) — the raw form of Hosts/Systems/Ops/Stats for callers that
// route control ops, like gridmon-query and the federation backend pool
// (grid.query takes only binary bodies: use Query). The op must be
// idempotent: a retry re-sends it after connection repair.
func (r *RemoteGrid) Call(ctx context.Context, op string, req, resp interface{}) error {
	return r.callWire(ctx, func(actx context.Context, c *transport.MuxClient) error {
		return c.CallJSON(actx, op, req, resp)
	})
}

// Addr returns the server address this client dials.
func (r *RemoteGrid) Addr() string { return r.addr }

// ClientStats snapshots the client's local resilience counters.
func (r *RemoteGrid) ClientStats() ClientStats {
	st := ClientStats{
		Calls:        r.calls.Load(),
		Retries:      r.retries.Load(),
		Reconnects:   r.reconnects.Load(),
		Overloaded:   r.overloaded.Load(),
		BreakerState: BreakerDisabled,
	}
	if r.br != nil {
		st.BreakerState, st.BreakerOpens = r.br.snapshot()
	}
	return st
}

// Subscribe opens a typed event stream for sub on the remote grid, over
// a connection of its own: the subscription rides the binary codec and
// events arrive as batched frames (up to maxEventBatch entries per frame
// under fan-out), lag reports and the buffer preamble in the same entry
// sequence. Setup failures return here with the same structured codes as
// in-process Subscribe. Events preserve the serving grid's sequence
// numbers, so a remote stream is event-for-event identical to an
// in-process one; the client-side buffer applies the same bounded-buffer
// lag semantics (see ErrLagged), and drops on the serving side are
// merged into this stream's drop accounting. One goroutine reads the
// frames off the socket into that buffer, which drops and never blocks.
//
// Subscribe is deliberately outside the retry machinery: a replayed
// subscribe is not idempotent (the server acks and begins delivery —
// blind replay could double-deliver), so a failed stream surfaces as
// the stream's terminal error and re-subscribing is the consumer's
// decision. DialOptions.AttemptTimeout bounds the dial and the
// handshake (the ack and the preamble), not the stream, so a server
// that accepts and never answers fails the subscribe deadline_exceeded;
// DialOptions.WrapConn applies to the connection, so chaos tests can
// fault streams too.
//
// Cancelling ctx (or calling Stream.Close) sends a cancel frame; the
// server detaches the subscription's sources and confirms with an end
// frame, after which Next drains the buffer and returns the terminal
// error. A failed connection surfaces as the stream's terminal error.
func (r *RemoteGrid) Subscribe(ctx context.Context, sub Subscription) (*Stream, error) {
	r.connMu.Lock()
	closed := r.closed
	r.connMu.Unlock()
	if closed {
		return nil, errClientClosed
	}
	hctx := ctx // bounds the dial and the handshake, not the stream
	if r.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		hctx, cancel = context.WithTimeout(ctx, r.opts.AttemptTimeout)
		defer cancel()
	}
	conn, err := r.dial(hctx)
	if err != nil {
		return nil, transport.AsError(err)
	}
	sc, err := transport.OpenStream(hctx, conn, "grid.subscribe",
		func(b []byte) []byte { return appendWireSubscription(b, sub) })
	if err != nil {
		return nil, transport.AsError(err)
	}
	// The first frame is the preamble batch carrying the serving grid's
	// effective buffer bound, so an unset Subscription.Buffer lags exactly
	// as the in-process stream would. A first frame that already carries
	// data is processed, not lost.
	var preEvents []Event
	var preDrops uint64
	preBuffer := 0
	stop := context.AfterFunc(hctx, func() { sc.Close() })
	preErr := sc.Recv(func(_ byte, body []byte) error {
		return decodeWireBatch(body,
			func(ev Event) { preEvents = append(preEvents, ev) },
			func(n uint64) { preDrops += n },
			func(b int) { preBuffer = b })
	})
	if !stop() {
		preErr = hctx.Err()
	}
	if preErr != nil {
		sc.Close()
		return nil, transport.AsError(preErr)
	}
	buffer := sub.Buffer
	if buffer <= 0 {
		buffer = preBuffer
	}
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}
	st := newStream(sub, buffer)
	if preDrops > 0 {
		st.addDrops(preDrops)
	}
	for _, ev := range preEvents {
		st.emit(ev)
	}
	// The canceller propagates the consumer hanging up — by ctx or by
	// Stream.Close — to the server as a cancel frame; the reader below
	// then observes the server's end frame and terminates the stream.
	go func() {
		select {
		case <-ctx.Done():
		case <-st.stopped:
		case <-st.done:
		}
		sc.Cancel()
	}()
	go func() {
		defer sc.Close()
		for {
			err := sc.Recv(func(_ byte, body []byte) error {
				return decodeWireBatch(body,
					func(ev Event) { st.emit(ev) },
					func(n uint64) { st.addDrops(n) },
					nil)
			})
			if err != nil {
				switch {
				case errors.Is(err, io.EOF) && ctx.Err() != nil:
					st.terminate(ctx.Err())
				case errors.Is(err, io.EOF):
					st.terminate(ErrStreamClosed)
				default:
					st.terminate(transport.AsError(err))
				}
				return
			}
		}
	}()
	return st, nil
}

// Query answers q on the remote grid. The context deadline, when set,
// is propagated to the server and bounds the call; failures carry the
// same structured codes as in-process queries (see CodeOf). Elapsed
// measures the full round trip, retries included. The request and answer
// ride the binary codec — no JSON on either side — and the call
// pipelines with its siblings on the shared connection.
//
// The caller owns the returned ResultSet and its Records slice, but not
// the records' field maps, which it must not write. All its strings but
// the branch error texts (record keys, field names and values, Host) are
// substrings of one immutable copy of the answer's text, its reply's
// head and records, so a retained Record keeps its whole answer's text
// alive — the contract in-process answers already have; clone the
// strings to keep a few fields of a large answer for long. The decode is
// shared: an answer whose text is byte-identical to one the client
// decoded before gets a []Record of its own over the same records, keys
// and field maps, cut from the same copy. The client keeps at most 1024
// decoded answers for its next ones, 4 MiB of them counted as their
// text and what their records and maps cost.
func (r *RemoteGrid) Query(ctx context.Context, q Query) (*ResultSet, error) {
	start := time.Now()
	var rs *ResultSet
	err := r.callWire(ctx, func(actx context.Context, c *transport.MuxClient) error {
		return c.CallV3(actx, "grid.query",
			func(b []byte) []byte { return appendWireQuery(b, q) },
			func(body []byte) (err error) {
				rs, err = decodeSharedReply(&r.texts, body)
				return err
			})
	})
	if err != nil {
		return nil, err
	}
	rs.Elapsed = time.Since(start)
	return rs, nil
}

// AppendQuery asks q as Query does and appends the reply body the server
// sent, Elapsed the server's own, to dst once it has walked the body as
// Query decodes it, cutting no string: relaying an answer costs the copy
// of its bytes. A reply that does not decode fails the attempt as it
// fails Query's. On an error dst comes back as it was.
func (r *RemoteGrid) AppendQuery(ctx context.Context, q Query, dst []byte) ([]byte, error) {
	out := dst
	err := r.callWire(ctx, func(actx context.Context, c *transport.MuxClient) error {
		return c.CallV3(actx, "grid.query",
			func(b []byte) []byte { return appendWireQuery(b, q) },
			func(body []byte) error {
				rep, err := scanWireReply(body, nil)
				if err == nil {
					out = append(dst, body[:rep.end]...)
				}
				return err
			})
	})
	return out, err // out is dst unless a reply was appended, and then err is nil
}

// Hosts lists the remote grid's monitored hosts.
func (r *RemoteGrid) Hosts(ctx context.Context) ([]string, error) {
	var hl HostList
	if err := r.Call(ctx, "grid.hosts", nil, &hl); err != nil {
		return nil, err
	}
	return hl.Hosts, nil
}

// Systems lists the remote grid's deployed systems.
func (r *RemoteGrid) Systems(ctx context.Context) ([]System, error) {
	var sl SystemList
	if err := r.Call(ctx, "grid.systems", nil, &sl); err != nil {
		return nil, err
	}
	return sl.Systems, nil
}

// Ops lists every operation the remote server answers.
func (r *RemoteGrid) Ops(ctx context.Context) ([]string, error) {
	var ol transport.OpsList
	if err := r.Call(ctx, "ops.list", nil, &ol); err != nil {
		return nil, err
	}
	return ol.Ops, nil
}

// Stats fetches the serving grid's counters over the ops.stats op — the
// remote form of Grid.Stats.
func (r *RemoteGrid) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	if err := r.Call(ctx, "ops.stats", nil, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Close closes the shared request/response connection (dedicated
// subscribe connections close with their streams) and retires the
// client for good: every later call, and every retry of a call already
// in flight, fails with CodeUnavailable ("client closed") and opens no
// connection.
func (r *RemoteGrid) Close() error {
	r.connMu.Lock()
	c := r.client
	r.client = nil
	r.closed = true
	r.connMu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}
