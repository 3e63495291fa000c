package gridmon

import (
	"context"
	"time"

	"repro/internal/transport"
)

// ErrOverloaded is the canonical admission-control refusal: the server
// was at its concurrency limit and the bounded wait queue was full, or
// the request timed out waiting in it. Match it with errors.Is — every
// shed error carries the same structured code (ErrOverloadedCode), which
// travels the wire unchanged, so a remote client sees exactly the
// in-process failure:
//
//	if errors.Is(err, gridmon.ErrOverloaded) { backoff and retry }
//
// A shed request did no engine work; retrying after backoff is safe for
// idempotent operations (queries, listings), and the resilient client
// returned by DialWith does so automatically.
var ErrOverloaded = &transport.Error{Code: transport.CodeOverloaded}

// admission is the facade's overload gate (see WithAdmission): a
// semaphore bounding concurrent query execution plus a bounded FIFO wait
// queue in front of it. Requests past both bounds fast-fail with
// ErrOverloaded instead of piling onto the lock and collapsing tail
// latency — the paper's users-vs-throughput curves fall over past
// saturation precisely because every arriving request is admitted.
type admission struct {
	// sem holds one token per executing query (capacity maxConcurrent).
	// Goroutines blocked sending are the wait queue; the runtime wakes
	// channel waiters in FIFO order, so admission is first-come
	// first-served.
	sem          chan struct{}
	maxQueued    int
	queueTimeout time.Duration
	counters     *serveCounters
}

func newAdmission(maxConcurrent, maxQueued int, queueTimeout time.Duration, c *serveCounters) *admission {
	return &admission{
		sem:          make(chan struct{}, maxConcurrent),
		maxQueued:    maxQueued,
		queueTimeout: queueTimeout,
		counters:     c,
	}
}

// acquire admits the request or sheds it. The shed paths never block:
// a full queue fails in microseconds (the "< 1 ms" fast-fail bound the
// load-shedding test pins), and a queued request fails as soon as its
// queue wait exceeds queueTimeout. A ctx already cancelled or expiring
// mid-wait returns the ctx's own coded error, not ErrOverloaded.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	// All slots busy: join the bounded queue, or shed right now.
	if a.maxQueued <= 0 {
		a.counters.Shed.Add(1)
		return transport.Errf(transport.CodeOverloaded,
			"server overloaded: %d queries in flight, no wait queue", cap(a.sem))
	}
	if a.counters.QueueDepth.Add(1) > int64(a.maxQueued) {
		a.counters.QueueDepth.Add(-1)
		a.counters.Shed.Add(1)
		return transport.Errf(transport.CodeOverloaded,
			"server overloaded: %d queries in flight and %d queued", cap(a.sem), a.maxQueued)
	}
	a.counters.Queued.Add(1)
	defer a.counters.QueueDepth.Add(-1)
	var timeout <-chan time.Time
	if a.queueTimeout > 0 {
		t := time.NewTimer(a.queueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-timeout:
		a.counters.Shed.Add(1)
		return transport.Errf(transport.CodeOverloaded,
			"server overloaded: no slot freed within the %v queue timeout", a.queueTimeout)
	case <-ctx.Done():
		return transport.AsError(ctx.Err())
	}
}

// release frees the caller's slot, waking the oldest queued waiter.
func (a *admission) release() { <-a.sem }
