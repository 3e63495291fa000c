package gridmon

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Option configures a Grid under construction; pass options to New.
type Option func(*config) error

// config collects the construction-time knobs.
type config struct {
	hosts         []string
	systems       map[System]bool
	rgmaProducers int
	managerHost   string
	clock         func() float64
	queryCacheTTL time.Duration
	dataDir       string
	admitMax      int
	admitQueue    int
	admitTimeout  time.Duration
}

// DefaultStreamBuffer is the per-subscription event buffer bound used
// when Subscription.Buffer does not set one.
const DefaultStreamBuffer = 64

// maxStreamBuffer is the largest Subscription.Buffer a grid accepts and
// the largest preamble bound a client does: a peer's number sizes the
// stream's channel, so it must not size it without limit.
const maxStreamBuffer = 1 << 16

func defaultConfig() *config {
	return &config{
		systems:       map[System]bool{MDS: true, RGMA: true, Hawkeye: true},
		rgmaProducers: 3,
		managerHost:   "manager",
	}
}

// WithHosts names the monitored hosts. Every enabled system deploys one
// information server per host (a GRIS, a ProducerServlet, a Hawkeye
// Agent). Required: New fails without at least one host.
func WithHosts(hosts ...string) Option {
	return func(c *config) error {
		seen := make(map[string]bool, len(hosts))
		for _, h := range hosts {
			if h == "" {
				return fmt.Errorf("gridmon: empty host name")
			}
			if seen[h] {
				return fmt.Errorf("gridmon: duplicate host %q", h)
			}
			seen[h] = true
		}
		c.hosts = append([]string(nil), hosts...)
		return nil
	}
}

// WithSystems selects which of the three systems to deploy (default:
// all of MDS, R-GMA and Hawkeye).
func WithSystems(systems ...System) Option {
	return func(c *config) error {
		if len(systems) == 0 {
			return fmt.Errorf("gridmon: WithSystems needs at least one system")
		}
		enabled := make(map[System]bool, len(systems))
		for _, s := range systems {
			switch s {
			case MDS, RGMA, Hawkeye:
				enabled[s] = true
			default:
				return fmt.Errorf("gridmon: unknown system %q", s)
			}
		}
		c.systems = enabled
		return nil
	}
}

// WithRGMAProducers sets how many monitoring producers each host's
// ProducerServlet hosts (default 3).
func WithRGMAProducers(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("gridmon: WithRGMAProducers(%d): need at least one producer", n)
		}
		c.rgmaProducers = n
		return nil
	}
}

// WithManagerHost names the host running the Hawkeye Manager (default
// "manager").
func WithManagerHost(host string) Option {
	return func(c *config) error {
		if host == "" {
			return fmt.Errorf("gridmon: empty manager host")
		}
		c.managerHost = host
		return nil
	}
}

// WithClock supplies the grid's notion of time, in seconds: every query
// and advertisement is stamped with the clock's current value. The
// default clock is pinned at zero, which keeps results deterministic
// (construction primes all state at t=0). Pass a closure over your own
// variable to step time manually, or use WithWallClock for live servers.
func WithClock(now func() float64) Option {
	return func(c *config) error {
		if now == nil {
			return fmt.Errorf("gridmon: nil clock")
		}
		c.clock = now
		return nil
	}
}

// WithWallClock makes the grid's clock run in real time, measured in
// seconds since New returned.
func WithWallClock() Option {
	return func(c *config) error {
		start := time.Now()
		c.clock = func() float64 { return time.Since(start).Seconds() }
		return nil
	}
}

// WithQueryCache puts a GIIS-style result cache in front of Query,
// modeled on the cache behind the paper's >10x "data always in cache"
// throughput (Figures 5–6): an identical Query (same System, Role, Host,
// Expr and Attrs) repeated within ttl is answered from the cached
// answer without touching any engine. An answer serves only queries
// that start strictly after the query that computed it started, and no
// later than ttl after. Work on a hit reports CacheHits=1 and no engine
// accounting; on a miss the engine's Work is returned with
// CacheMisses=1, and Grid.Stats counts both. The whole cache is
// invalidated when grid state advances (Advance or Advertise), so a
// cached answer is never older than both ttl and the last monitoring
// round.
func WithQueryCache(ttl time.Duration) Option {
	return func(c *config) error {
		if ttl <= 0 {
			return fmt.Errorf("gridmon: WithQueryCache(%v): need a positive TTL", ttl)
		}
		c.queryCacheTTL = ttl
		return nil
	}
}

// WithStorage makes the grid's directory state durable: the R-GMA
// Registry's advertisements and the GIIS registration table are
// write-ahead-logged to per-service subdirectories of dir (created if
// needed) and recovered on the next New over the same directory. A
// crashed grid reopens with its producers and sources already
// registered instead of waiting a full soft-state period for them to
// re-announce; see the README's Durability section for exactly what is
// and is not logged. Close the grid (Grid.Close) for a clean shutdown
// — recovery after a crash works too, that is the point, but a final
// snapshot makes the next open replay-free.
func WithStorage(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("gridmon: WithStorage needs a directory")
		}
		c.dataDir = dir
		return nil
	}
}

// WithAdmission puts overload protection in front of Query: at most
// maxConcurrent queries execute at once, up to maxQueued more wait in a
// FIFO queue (each for at most queueTimeout, when positive), and
// everything past both bounds fast-fails with ErrOverloaded instead of
// queueing without limit. Past the saturation point this trades refusals
// for bounded latency: accepted queries keep a p99 near the unsaturated
// one and throughput plateaus, where an unprotected server's tail
// collapses (the regime past the knee of the paper's Figures 3–10).
//
// The shed path never blocks — an over-limit request is refused in
// microseconds — and sheds, queue transits and the live queue depth are
// visible in Grid.Stats / ops.stats. Every query that reaches an
// engine, in-process or served through Serve, passes the same gate; a
// cache hit reaches none and skips it. maxQueued of 0 disables the
// queue (immediate shed when saturated); queueTimeout of 0 means queued
// requests wait until a slot frees or their context gives up.
func WithAdmission(maxConcurrent, maxQueued int, queueTimeout time.Duration) Option {
	return func(c *config) error {
		if maxConcurrent < 1 {
			return fmt.Errorf("gridmon: WithAdmission(%d, ...): need at least one concurrent slot", maxConcurrent)
		}
		if maxQueued < 0 {
			return fmt.Errorf("gridmon: WithAdmission(..., %d, ...): negative queue bound", maxQueued)
		}
		if queueTimeout < 0 {
			return fmt.Errorf("gridmon: WithAdmission(..., %v): negative queue timeout", queueTimeout)
		}
		c.admitMax = maxConcurrent
		c.admitQueue = maxQueued
		c.admitTimeout = queueTimeout
		return nil
	}
}

// enabledSystems returns the deployed systems in canonical order.
func (c *config) enabledSystems() []System {
	out := make([]System, 0, 3)
	for _, s := range []System{core.SystemMDS, core.SystemRGMA, core.SystemHawkeye} {
		if c.systems[s] {
			out = append(out, s)
		}
	}
	return out
}
