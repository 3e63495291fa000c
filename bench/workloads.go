package main

import (
	"time"

	gridmon "repro"
)

// workload is one traffic mix with the deployment it runs against.
// The constants here are the benchmark's frozen inputs: base_qps and
// limit_us in particular are absolute numbers measured once at the seed
// commit on the reference box and never recalibrated at run time, so a
// parent commit and a change are always offered identical load.
// (BENCHMARK.json's schema has no room for per-workload constants, so
// they live here, next to the code that reads them.)
type workload struct {
	name string

	mix    mix
	shapes int // pool ranks the sequence draws from (of poolSize)

	cacheTTL time.Duration // WithQueryCache, 0 = none
	durable  bool          // WithStorage + pre-populated WAL
	leaves   int           // >0: that many leaf grids behind a federation Router

	// pumpEvery and writesPerSec are cadences at baseQPS: the run paces
	// both by answered queries (see loadRun), so that per-query counts
	// do not depend on how fast the machine happens to be.
	pumpEvery    time.Duration
	subs         []gridmon.Subscription // wire subscribers
	writesPerSec int                    // soft-state renewals through the Registry

	// baseQPS is the rate the open loop sustains at the seed commit,
	// rounded down (about 0.8 of the closed-loop capacity): the ladder
	// offers fixed multiples of it, and at the seed commit 0.75x passes
	// with room, 1.0x is the edge and 1.5x fails.
	baseQPS float64
}

const (
	numHosts      = 16
	rgmaProducers = 3
	poolSize      = 64

	// walRecords is how many registration records the durable
	// workload's data directory holds before set-up opens it.
	walRecords = 5000
	// churnTable keeps the renewal traffic's advertisements apart from
	// the "siteinfo" producers the queries resolve, so query answers do
	// not depend on how far the writer got.
	churnTable = "churninfo"
)

// The ladder of offered rates, as multiples of baseQPS, and each
// step's share of the open phase. "mid" and "high" feed gated latency
// metrics and get most of the time; the steps at and beyond capacity
// only have to show whether the backlog grows.
var (
	ladder     = []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0}
	ladderTime = []float64{0.15, 0.35, 0.26, 0.08, 0.08, 0.08}
)

const (
	midStep  = 1
	highStep = 2

	// limitUS is the latency limit an open-loop step's p99 must meet. It
	// is about four times the mid-rate p99 of the reference box's slow
	// spells (up to 13 ms on every workload), rounded up so that its
	// tenth, which is what the generator may run late, clears the 1.5 to
	// 4 ms the kernel makes a woken thread wait while both cores are busy.
	// A limit taken from the quiet-spell p99 (5 ms) would leave the
	// generator 2 ms and call every other step invalid.
	limitUS = 60000.0
)

// directMix is mixed_direct's mix: 60% information server, 15%
// directory, 25% aggregate, each split evenly over the three systems.
var directMix = mix{20, 20, 20, 5, 5, 5, 25.0 / 3, 25.0 / 3, 25.0 / 3}

var workloads = []*workload{
	{
		name: "mixed_direct",
		mix:  directMix, shapes: poolSize,
		pumpEvery: time.Second,
		subs: []gridmon.Subscription{
			{System: gridmon.RGMA, Expr: "SELECT * FROM siteinfo WHERE value >= 20"},
		},
		baseQPS: 8000,
	},
	{
		name: "cached_hot",
		mix:  directMix, shapes: 16,
		cacheTTL:  30 * time.Second,
		pumpEvery: 2 * time.Second,
		subs: []gridmon.Subscription{
			{System: gridmon.RGMA, Expr: "SELECT * FROM siteinfo WHERE value >= 20"},
		},
		baseQPS: 36000,
	},
	{
		name: "fed_scatter",
		// Half host-targeted, half broad; a fifth of the broad share is
		// directory lookups so every component still sees traffic.
		mix:       mix{50.0 / 3, 50.0 / 3, 50.0 / 3, 10.0 / 3, 10.0 / 3, 10.0 / 3, 40.0 / 3, 40.0 / 3, 40.0 / 3},
		shapes:    poolSize,
		leaves:    3,
		pumpEvery: time.Second,
		subs: []gridmon.Subscription{
			// The Router only proxies host-targeted subscriptions.
			{System: gridmon.RGMA, Host: "node01", Expr: "SELECT * FROM siteinfo WHERE value >= 20"},
		},
		baseQPS: 4000,
	},
	{
		name: "churn_durable",
		mix:  directMix, shapes: poolSize,
		cacheTTL: 30 * time.Second, durable: true,
		pumpEvery: 50 * time.Millisecond,
		subs: []gridmon.Subscription{
			{System: gridmon.RGMA, Host: "node01", Expr: "SELECT * FROM siteinfo WHERE value >= 20"},
			{System: gridmon.RGMA, Host: "node02", Expr: "SELECT * FROM siteinfo WHERE metric = 'metric-01'"},
			{System: gridmon.RGMA, Host: "node03", Expr: "SELECT * FROM siteinfo WHERE value < 80", Attrs: []string{"host", "value"}},
			{System: gridmon.Hawkeye, Host: "node04", Expr: "TARGET.CpuLoad >= 0"},
			{System: gridmon.Hawkeye, Host: "node05", Expr: "TARGET.MemFreeMB >= 100", Attrs: []string{"Name", "MemFreeMB"}},
			{System: gridmon.Hawkeye, Expr: "TARGET.CpuLoad > 90"},
			{System: gridmon.MDS, Host: "node06", Expr: "(objectclass=MdsCpu)"},
			{System: gridmon.MDS, Expr: "(objectclass=MdsHostLoad)", PollEvery: 4},
		},
		writesPerSec: 200,
		baseQPS:      12000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
