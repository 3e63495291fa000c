package gridmon

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/transport"
)

// Breaker configures the remote client's circuit breaker (see
// DialOptions). The breaker prevents retry storms against a down or
// drowning server: after Threshold consecutive failed attempts the
// circuit opens and calls fail fast locally — no sockets, no queueing on
// a dead peer — until Cooldown elapses; then one probe call is let
// through (half-open), and its outcome closes the circuit or re-opens
// it for another cooldown. A zero Threshold disables the breaker.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the circuit
	// (0 disables the breaker).
	Threshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe (default 1s).
	Cooldown time.Duration
}

// ParseBreaker parses the command-line form THRESHOLD[,COOLDOWN] ("5" or
// "5,2s"). Empty is the zero Breaker: off for a client, the federation
// default for a Router.
func ParseBreaker(s string) (Breaker, error) {
	if s == "" {
		return Breaker{}, nil
	}
	threshold, cooldown, hasCooldown := strings.Cut(s, ",")
	var br Breaker
	n, err := strconv.Atoi(strings.TrimSpace(threshold))
	if err != nil {
		return br, fmt.Errorf("threshold %q: %v", threshold, err)
	}
	br.Threshold = n
	if hasCooldown {
		d, err := time.ParseDuration(strings.TrimSpace(cooldown))
		if err != nil {
			return br, fmt.Errorf("cooldown %q: %v", cooldown, err)
		}
		br.Cooldown = d
	}
	return br, nil
}

// The breaker states, visible in ClientStats.BreakerState.
const (
	BreakerDisabled = "disabled"
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// breaker is the running state machine behind a Breaker config:
// closed → (Threshold consecutive failures) → open → (Cooldown) →
// half-open → one probe → closed on success, open again on failure.
type breaker struct {
	threshold int
	cooldown  time.Duration
	// now is the breaker's clock, swapped by tests to step the cooldown
	// deterministically.
	now func() time.Time

	mu       sync.Mutex
	state    string    // guarded by mu
	failures int       // consecutive failures while closed; guarded by mu
	openedAt time.Time // when the circuit last opened; guarded by mu
	probing  bool      // half-open probe in flight; guarded by mu
	opens    int64     // cumulative open transitions; guarded by mu
}

func newBreaker(cfg Breaker) *breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	cooldown := cfg.Cooldown
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &breaker{threshold: cfg.Threshold, cooldown: cooldown, now: time.Now, state: BreakerClosed}
}

// allow reports whether an attempt may touch the wire right now. An
// open circuit fails fast with a structured CodeUnavailable error whose
// message names the breaker (so it cannot be mistaken for the server's
// own "system not deployed" unavailability); an elapsed cooldown flips
// to half-open and admits exactly one probe.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		wait := b.cooldown - b.now().Sub(b.openedAt)
		if wait > 0 {
			return transport.Errf(transport.CodeUnavailable,
				"circuit breaker open after %d consecutive failures (half-open probe in %v)",
				b.threshold, wait.Round(time.Millisecond))
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return nil
	case BreakerHalfOpen:
		if b.probing {
			return transport.Errf(transport.CodeUnavailable,
				"circuit breaker half-open: probe already in flight")
		}
		b.probing = true
		return nil
	default:
		return nil
	}
}

// success records a healthy exchange: the circuit closes (a half-open
// probe succeeding is exactly the recovery signal) and the consecutive-
// failure count resets.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// failure records a failed attempt: a failed half-open probe re-opens
// the circuit immediately; Threshold consecutive failures open a closed
// one.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.open()
		}
	}
}

// open transitions to the open state. Callers hold b.mu.
func (b *breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
	b.opens++
}

// snapshot reports the current state name and cumulative open count.
func (b *breaker) snapshot() (state string, opens int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}
