package gridmon

import (
	"context"
	"sync/atomic"

	"repro/internal/transport"
)

// serveCounters is the live serving path's self-observability: lock-free
// counters the facade bumps on every query and the admission gate bumps
// on every shed or queue transit. One instance lives for a grid's
// lifetime; Stats is its point-in-time snapshot, field for field.
type serveCounters struct {
	Queries, Errors, Shed, Queued, QueueDepth, InFlight, CacheHits, CacheMisses atomic.Int64
}

// Stats is a point-in-time snapshot of the grid's serving counters. It is
// the first slice of the live metrics the ROADMAP item "Tracing inside
// the program" asks for: Grid.Stats reads it in-process, the ops.stats
// transport op serves it to remote clients (RemoteGrid.Stats,
// `gridmon-query -o json ops.stats`).
type Stats struct {
	// Queries counts facade queries answered successfully (cache hits
	// included).
	Queries int64 `json:"queries"`
	// Errors counts facade queries that failed for any reason other than
	// admission shedding.
	Errors int64 `json:"errors"`
	// Shed counts requests refused by admission control: over the
	// concurrency limit with a full wait queue, or timed out waiting.
	Shed int64 `json:"shed"`
	// Queued counts requests that waited in the admission queue before
	// being admitted (a measure of how often the server runs at its
	// concurrency limit).
	Queued int64 `json:"queued"`
	// QueueDepth is the number of requests waiting in the admission
	// queue right now.
	QueueDepth int64 `json:"queue_depth"`
	// InFlight is the number of queries executing right now.
	InFlight int64 `json:"in_flight"`
	// CacheHits counts queries answered from the result cache,
	// CacheMisses the ones that missed it and stored a fresh answer
	// (both zero without WithQueryCache).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// Stats snapshots the grid's serving counters. Each counter is
// individually atomic; the snapshot is not a cross-counter transaction,
// which is what monitoring needs and all it promises.
func (g *Grid) Stats() Stats { return g.counters.snapshot() }

// snapshot reads every counter once.
func (c *serveCounters) snapshot() Stats {
	return Stats{
		Queries:     c.Queries.Load(),
		Errors:      c.Errors.Load(),
		Shed:        c.Shed.Load(),
		Queued:      c.Queued.Load(),
		QueueDepth:  c.QueueDepth.Load(),
		InFlight:    c.InFlight.Load(),
		CacheHits:   c.CacheHits.Load(),
		CacheMisses: c.CacheMisses.Load(),
	}
}

// serveStats registers the ops.stats introspection op.
func (g *Grid) serveStats(srv *transport.Server) {
	transport.Handle(srv, "ops.stats", func(context.Context, struct{}) (Stats, error) {
		return g.Stats(), nil
	})
}
