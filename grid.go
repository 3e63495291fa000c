package gridmon

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/hawkeye"
	"repro/internal/mds"
	"repro/internal/rgma"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Grid is the unified facade over the three monitoring systems: one
// value owning a complete MDS hierarchy, R-GMA mesh and Hawkeye pool
// over a common host set, queried through one typed request shape
// (Query) that names a system and a Table 1 role. Construct it with New;
// the remote client returned by Dial implements the same Querier
// interface, so in-process and over-TCP use are interchangeable.
type Grid struct {
	cfg   *config
	clock func() float64

	// mu is the facade's reader/writer gate: Query takes the read lock,
	// so independent queries run in parallel on a multi-core server (the
	// engines' read paths are safe for concurrent readers — lazily
	// maintained structures double-check under their own locks); the
	// state-changing paths — Advance, Advertise, Subscribe bookkeeping —
	// take the write lock and run exclusively.
	mu       sync.RWMutex
	subID    uint64        // allocator for subscription ids; guarded by mu
	watchers []*mdsWatcher // active MDS poll-and-diff watchers; guarded by mu

	// cache is the opt-in GIIS-style query result cache (nil without
	// WithQueryCache).
	cache *queryCache
	// memo holds each query expression parsed (exprMemo).
	memo exprMemo
	// records holds the records Query decoded last (RecordTable).
	records RecordTable

	// counters is the serving path's self-observability (Grid.Stats,
	// ops.stats); always allocated, lock-free.
	counters *serveCounters
	// admit is the opt-in overload gate in front of Query (nil without
	// WithAdmission).
	admit *admission

	// MDS: one GIIS aggregating a warm GRIS per host.
	giis   *mds.GIIS
	grises map[string]*mds.GRIS

	// R-GMA: a Registry, one ProducerServlet per host, a mediating
	// ConsumerServlet, and a composite Consumer/Producer filling the
	// aggregate-server role the paper notes is missing.
	registry       *rgma.Registry
	consumer       *rgma.ConsumerServlet
	servlets       map[string]*rgma.ProducerServlet // by host
	servletsByAddr map[string]*rgma.ProducerServlet
	composite      *rgma.CompositeProducer

	// Hawkeye: a Manager and one Agent per host.
	manager *hawkeye.Manager
	agents  map[string]*hawkeye.Agent
}

// New constructs a Grid from functional options:
//
//	g, err := gridmon.New(
//		gridmon.WithHosts("lucky3", "lucky4", "lucky7"),
//		gridmon.WithSystems(gridmon.MDS, gridmon.RGMA, gridmon.Hawkeye),
//		gridmon.WithRGMAProducers(3),
//	)
//
// Construction primes every enabled system at t=0: GRIS caches are
// warm, producers are registered, and each agent's initial Startd ad is
// in the Manager — a steady-state deployment.
func New(opts ...Option) (*Grid, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if len(cfg.hosts) == 0 {
		return nil, fmt.Errorf("gridmon: no hosts (use WithHosts)")
	}
	g := &Grid{cfg: cfg, clock: cfg.clock, memo: newExprMemo()}
	if g.clock == nil {
		g.clock = func() float64 { return 0 }
	}
	if cfg.queryCacheTTL > 0 {
		g.cache = newQueryCache(cfg.queryCacheTTL)
	}
	g.counters = &serveCounters{}
	if cfg.admitMax > 0 {
		g.admit = newAdmission(cfg.admitMax, cfg.admitQueue, cfg.admitTimeout, g.counters)
	}
	if cfg.systems[MDS] {
		if err := g.buildMDS(); err != nil {
			g.Close()
			return nil, err
		}
	}
	if cfg.systems[RGMA] {
		if err := g.buildRGMA(); err != nil {
			g.Close()
			return nil, err
		}
	}
	if cfg.systems[Hawkeye] {
		if err := g.buildHawkeye(); err != nil {
			g.Close()
			return nil, err
		}
	}
	return g, nil
}

// openStore opens the named service's durable store under the
// configured data directory, or returns nil (volatile) when
// WithStorage was not given.
func (g *Grid) openStore(name string) (storage.Store, error) {
	if g.cfg.dataDir == "" {
		return nil, nil
	}
	return storage.OpenFile(filepath.Join(g.cfg.dataDir, name), storage.Options{})
}

// Close flushes and releases the grid's durable stores: each
// storage-backed service writes a final snapshot so the next New over
// the same data directory recovers without WAL replay. A volatile grid
// (no WithStorage) closes as a no-op; closing twice is safe.
func (g *Grid) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var err error
	if g.giis != nil {
		err = g.giis.Close()
	}
	if g.registry != nil {
		if cerr := g.registry.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (g *Grid) buildMDS() error {
	st, err := g.openStore("giis")
	if err != nil {
		return err
	}
	// On a recovered GIIS the Registers below renew the detached
	// registrations left by the crash — same ids — rebinding each slot
	// to its rebuilt GRIS and re-pulling its data; registrations made at
	// runtime (Register on the exposed GIIS) stay recovered and detached
	// until their own sources return.
	g.giis, err = mds.OpenGIIS("giis", 1e12, 1e12, st, 0)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}
	g.grises = make(map[string]*mds.GRIS, len(g.cfg.hosts))
	for i, h := range g.cfg.hosts {
		gris := mds.NewGRIS(h, 1e12, mds.DefaultProviders())
		gris.Warm(0)
		if _, err := g.giis.Register(fmt.Sprintf("gris-%d", i), gris, 0); err != nil {
			return err
		}
		g.grises[h] = gris
	}
	return nil
}

func (g *Grid) buildRGMA() error {
	st, err := g.openStore("registry")
	if err != nil {
		return err
	}
	// The RegisterProducers below re-announce this deployment's own ads
	// idempotently (same producer ids replace their recovered rows);
	// advertisements registered at runtime survive the reopen untouched.
	g.registry, err = rgma.OpenRegistry("registry", st, 0)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}
	g.servlets = make(map[string]*rgma.ProducerServlet, len(g.cfg.hosts))
	g.servletsByAddr = make(map[string]*rgma.ProducerServlet, len(g.cfg.hosts))
	for _, h := range g.cfg.hosts {
		addr := h + ":8080"
		ps := rgma.NewProducerServlet(addr)
		for i := 0; i < g.cfg.rgmaProducers; i++ {
			ps.Host(rgma.NewMonitoringProducer(fmt.Sprintf("%s-p%d", h, i), "siteinfo",
				fmt.Sprintf("%s-sensor%02d", h, i), 5))
		}
		g.servlets[h] = ps
		g.servletsByAddr[addr] = ps
		for _, ad := range ps.Advertisements() {
			if err := g.registry.RegisterProducer(ad, 0, 1e12); err != nil {
				return err
			}
		}
	}
	resolve := func(addr string) (*rgma.ProducerServlet, error) {
		ps, ok := g.servletsByAddr[addr]
		if !ok {
			return nil, fmt.Errorf("gridmon: unknown producer servlet %q", addr)
		}
		return ps, nil
	}
	g.consumer = rgma.NewConsumerServlet("consumer:8080", g.registry, resolve)
	// The composite Consumer/Producer is deliberately NOT registered in
	// the Registry: it aggregates the other producers' streams, and
	// registering it would make mediated consumer queries see every row
	// twice.
	g.composite = rgma.NewCompositeProducer("composite", "composite:8080", "siteinfo",
		g.registry, resolve)
	return nil
}

// hawkeyeAdvertiseInterval is the paper's Hawkeye agent cadence, in seconds.
const hawkeyeAdvertiseInterval = 30

func (g *Grid) buildHawkeye() error {
	g.manager = hawkeye.NewManager(g.cfg.managerHost, 0)
	g.agents = make(map[string]*hawkeye.Agent, len(g.cfg.hosts))
	for _, h := range g.cfg.hosts {
		a := hawkeye.NewAgent(h, hawkeyeAdvertiseInterval)
		if err := a.AddModules(hawkeye.DefaultModules()); err != nil {
			return err
		}
		ad, _ := a.StartdAd(0)
		if _, err := g.manager.Update(0, ad); err != nil {
			return err
		}
		g.agents[h] = a
	}
	return nil
}

// Hosts lists the monitored hosts in deployment order.
func (g *Grid) Hosts() []string { return append([]string(nil), g.cfg.hosts...) }

// Systems lists the deployed systems in canonical order.
func (g *Grid) Systems() []System { return g.cfg.enabledSystems() }

// Enabled reports whether sys is deployed in this grid.
func (g *Grid) Enabled(sys System) bool { return g.cfg.systems[sys] }

// Now reads the grid's clock (see WithClock).
func (g *Grid) Now() float64 { return g.clock() }

// MDS exposes the MDS deployment: the GIIS and the per-host GRIS map
// (nil, nil when MDS is not deployed). The map is a copy; the components
// are live.
func (g *Grid) MDS() (*GIIS, map[string]*GRIS) {
	if g.giis == nil {
		return nil, nil
	}
	return g.giis, copyMap(g.grises)
}

// RGMA exposes the R-GMA deployment: the Registry, the mediating
// ConsumerServlet, and the per-host ProducerServlet map (all nil when
// R-GMA is not deployed).
func (g *Grid) RGMA() (*Registry, *ConsumerServlet, map[string]*ProducerServlet) {
	if g.registry == nil {
		return nil, nil, nil
	}
	return g.registry, g.consumer, copyMap(g.servlets)
}

// HawkeyePool exposes the Hawkeye deployment: the Manager and the
// per-host Agent map (nil, nil when Hawkeye is not deployed).
func (g *Grid) HawkeyePool() (*Manager, map[string]*Agent) {
	if g.manager == nil {
		return nil, nil
	}
	return g.manager, copyMap(g.agents)
}

func copyMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Advertise refreshes the Hawkeye pool at time now: every agent collects
// a fresh Startd ad and sends it to the Manager, as the live server's
// advertising loop does. Trigger matchmaking runs on every incoming ad,
// so active Hawkeye subscriptions receive Trigger events. It is a no-op
// when Hawkeye is not deployed.
func (g *Grid) Advertise(now float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.invalidateCacheLocked()
	return g.advertiseLocked(now)
}

// invalidateCacheLocked drops every cached query answer; every
// state-changing path calls it so a cache hit never outlives the data it
// was computed from. Callers hold g.mu exclusively.
func (g *Grid) invalidateCacheLocked() {
	if g.cache != nil {
		g.cache.invalidate()
	}
}

func (g *Grid) advertiseLocked(now float64) error {
	if g.manager == nil {
		return nil
	}
	for _, h := range g.cfg.hosts {
		ad, _ := g.agents[h].StartdAd(now)
		if _, err := g.manager.Update(now, ad); err != nil {
			return err
		}
	}
	return nil
}

// Advance runs one monitoring round at time now, the pump that drives
// every push path (live servers call it from a background loop; tests
// and simulations step it explicitly):
//
//   - MDS: every watcher whose interval elapsed runs its query on the
//     query's path and emits Put/Delete events for the records whose
//     bytes differ from its previous poll's.
//   - R-GMA: every producer's sensor regenerates its rows, streaming
//     them through the producer hub to continuous queries (Put events).
//   - Hawkeye: every agent advertises a fresh Startd ad; Manager
//     matchmaking fires matching triggers (Trigger events).
//
// Events are stamped with the grid clock, and the engines read it, so
// configure the clock (see WithClock) to track the times passed here.
// Advance is safe for concurrent use with Query and Subscribe.
func (g *Grid) Advance(now float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.invalidateCacheLocked()
	g.pollWatchersLocked(now)
	if g.servlets != nil {
		for _, h := range g.cfg.hosts {
			for _, p := range g.servlets[h].Producers() {
				p.Rows(now)
			}
		}
	}
	return g.advertiseLocked(now)
}

// TransportServer is the wire server a grid serves itself on (see
// Serve). The alias makes hosting possible outside this module, where
// internal/transport is unimportable: NewTransportServer, Listen,
// Close.
type TransportServer = transport.Server

// NewTransportServer returns an empty transport server (only the
// built-in ops.list op registered); pass it to Serve and Listen it.
func NewTransportServer() *TransportServer { return transport.NewServer() }

// Serve registers the grid's full operation namespace on a transport
// server, each op exactly once:
//
//	grid.query      body: Query            -> ResultSet (binary codec)
//	grid.subscribe  body: Subscription     -> event stream (see Subscribe)
//	grid.hosts      ->  {"hosts": [...]}
//	grid.systems    ->  {"systems": [...]}
//	ops.stats       ->  Stats (serving counters: queries/errors/shed/cache)
//
// grid.query is the one read op: every engine is reached through it. The
// server's built-in ops.list op reports the whole namespace.
//
// The transport dispatches requests from different connections (and
// pipelined ones from the same connection) simultaneously; the grid does
// its own locking — queries run in parallel under the facade's read
// lock, past the admission gate — which is the property the
// concurrent-user experiments (gridmon-load) measure. Call Serve before
// Listen: ops must be registered before traffic.
func (g *Grid) Serve(srv *transport.Server) {
	ServeQueryV3(srv, g)
	ServeSubscribe(srv, g)
	g.serveStats(srv)
	transport.Handle(srv, "grid.hosts", func(context.Context, struct{}) (HostList, error) {
		return HostList{Hosts: g.Hosts()}, nil
	})
	transport.Handle(srv, "grid.systems", func(context.Context, struct{}) (SystemList, error) {
		return SystemList{Systems: g.Systems()}, nil
	})
}

// HostList is the response body of grid.hosts.
type HostList struct {
	Hosts []string `json:"hosts"`
}

// SystemList is the response body of grid.systems.
type SystemList struct {
	Systems []System `json:"systems"`
}
