// Package experiments reproduces the paper's four experiment sets
// (Figures 5–20) on the simulated Lucky/UC testbed, driving the real MDS,
// R-GMA and Hawkeye engines through the core component mapping.
package experiments

import (
	"repro/internal/core"
)

// Calibration converts the work a component performed (core.Work counts)
// into testbed demand (CPU seconds, hold times, wire bytes). The constants
// are fit so that the 2003 paper's qualitative results hold; every choice
// is justified next to its definition. No figure values are hard-coded —
// the curves emerge from these per-operation costs under the queueing
// model.
type Calibration struct {
	// --- MDS ---

	// GRISBaseCPU is slapd's per-query parse/ACL/dispatch CPU. With the
	// cache warm this is nearly the whole per-query cost, giving the
	// cached GRIS its high capacity (~250 q/s on two cores).
	GRISBaseCPU float64
	// ProviderForkCPU and ProviderForkHold split an information-provider
	// invocation into CPU (script execution) and worker-held I/O wait.
	// Ten providers at ~95 ms total yield the paper's ~2 q/s no-cache
	// ceiling on a two-worker slapd, with CPU load near 60%.
	ProviderForkCPU  float64
	ProviderForkHold float64
	// GIISAggVisitCPU/Hold and GIISAggReturnCPU/Hold price Experiment
	// Set 4's aggregate queries: per entry walked and per entry returned,
	// split between CPU and worker-held I/O (the slapd backend is not
	// CPU-bound — the paper's Figures 19-20 show the GIIS host at ~0.6
	// load1 and ~45% CPU even at its 1 q/s worst case). The return-side
	// costs are what make "query part" cheaper than "query all".
	GIISAggVisitCPU   float64
	GIISAggVisitHold  float64
	GIISAggReturnCPU  float64
	GIISAggReturnHold float64
	// GRISEntryCPU is the per-entry walk cost inside a GRIS's small
	// resource-local tree (fully cache-resident, far cheaper than the
	// GIIS's big aggregated index). Kept low so the cached GRIS stays in
	// its linear-throughput regime through 600 users, as measured.
	GRISEntryCPU float64
	// GRISPipelineHold is the fixed protocol pipeline latency of an MDS
	// query outside any worker. The paper measures a stable ~4-second
	// response time for the cached GRIS at every user count; this
	// constant reproduces that plateau.
	GRISPipelineHold float64

	// --- R-GMA ---

	// ServletBaseCPU and ServletBaseHold are the Java servlet
	// entry costs (thread dispatch, JDBC setup); the hold half models
	// JVM time off-CPU.
	ServletBaseCPU  float64
	ServletBaseHold float64
	// ProducerQuadCPU/Hold scale the per-query cost quadratically in the
	// number of producers behind the servlet: each producer's slice is
	// materialized and merged, and merge work grows with both producer
	// count and accumulated result size. This reproduces the paper's
	// collapse from ~12 q/s at 10 producers to under 1 q/s at 90.
	ProducerQuadCPU  float64
	ProducerQuadHold float64
	// RegistryLookupCPU and RegistryLookupHold price one Registry lookup
	// (thread spawn + indexed select), set so the Registry saturates
	// near 50 q/s — below the GIIS and Manager, with higher load, as the
	// paper observed and attributed to Java threading.
	RegistryLookupCPU  float64
	RegistryLookupHold float64
	// MediationRTTs is the extra round trips a ConsumerServlet-mediated
	// query pays (consumer to servlet to registry).
	MediationRTTs float64
	// CompositeRowCPU is the per-row cost of the extension composite
	// Consumer/Producer's local aggregated table (materialize + scan).
	CompositeRowCPU float64

	// --- Hawkeye ---

	// AgentBaseCPU/Hold are the Startd's per-query dispatch costs.
	AgentBaseCPU  float64
	AgentBaseHold float64
	// ModuleQuadCPU/Hold scale Agent query cost quadratically in the
	// module count: every query re-collects all k modules (forked
	// scripts — mostly worker-held I/O wait) and integrates each ad into
	// a Startd ClassAd that itself grows with k. At the standard 11
	// modules this lands near the paper's ~45-55 q/s Agent capacity; at
	// 90 modules service exceeds 8 s and capacity drops below 1 q/s,
	// matching Experiment Set 3.
	ModuleQuadCPU  float64
	ModuleQuadHold float64
	// ManagerBaseCPU and ManagerBaseHold price an indexed Manager
	// query; the indexed resident database makes this cheap, giving the
	// Manager roughly half the GIIS's CPU load in Experiment Set 2.
	ManagerBaseCPU  float64
	ManagerBaseHold float64
	// ManagerAdScanCPU/Hold split the per-ClassAd matchmaking cost of a
	// constraint scan (Experiment Set 4's worst case scans every ad)
	// into CPU and worker-held I/O, keeping the Manager's measured CPU
	// load near the paper's ~40-45% plateau once the scan saturates.
	ManagerAdScanCPU  float64
	ManagerAdScanHold float64
	// AdvertiseCPU is the Manager-side cost of ingesting one Startd
	// ClassAd from the advertise stream.
	AdvertiseCPU float64

	// --- directory-role costs (Experiment Set 2) ---

	// GIISDirCPU/Hold and ManagerDirCPU/Hold price the standard
	// directory lookup, set so both saturate near 100 q/s with the GIIS
	// burning about twice the Manager's CPU.
	GIISDirCPU      float64
	GIISDirEntryCPU float64
	GIISDirHold     float64
	ManagerDirCPU   float64
	ManagerDirHold  float64

	// RequestBytes is the size of a query request message.
	RequestBytes float64
}

// DefaultCalibration returns the constants used for every reported
// experiment. The paper's qualitative results they must reproduce are
// the tests in experiments_test.go (TestCachingDominatesInfoServerThroughput,
// TestQueryPartBeatsQueryAll, ...); a generated paper-vs-measured
// comparison is the ROADMAP item "Put the paper's four experiment sets
// on the live system".
func DefaultCalibration() Calibration {
	return Calibration{
		GRISBaseCPU:       0.006,
		ProviderForkCPU:   0.055,
		ProviderForkHold:  0.040,
		GIISAggVisitCPU:   0.00016,
		GIISAggVisitHold:  0.00020,
		GIISAggReturnCPU:  0.00014,
		GIISAggReturnHold: 0.00017,
		GRISEntryCPU:      0.0002,
		GRISPipelineHold:  3.8,

		ServletBaseCPU:     0.020,
		ServletBaseHold:    0.020,
		ProducerQuadCPU:    0.00060,
		ProducerQuadHold:   0.00060,
		RegistryLookupCPU:  0.030,
		RegistryLookupHold: 0.010,
		MediationRTTs:      2,
		CompositeRowCPU:    0.00008,

		AgentBaseCPU:   0.004,
		AgentBaseHold:  0.004,
		ModuleQuadCPU:  0.00015,
		ModuleQuadHold: 0.00095,

		ManagerBaseCPU:    0.004,
		ManagerBaseHold:   0.004,
		ManagerAdScanCPU:  0.0008,
		ManagerAdScanHold: 0.0012,
		AdvertiseCPU:      0.002,

		GIISDirCPU:      0.006,
		GIISDirEntryCPU: 0.00008,
		GIISDirHold:     0.007,
		ManagerDirCPU:   0.005,
		ManagerDirHold:  0.015,

		RequestBytes: 320,
	}
}

// Server configurations: worker-pool and backlog shapes of the measured
// daemons. Backlogs reflect the kernel's SOMAXCONN-era limit of 128
// pending connections.
func (c Calibration) GRISConfig() ServerConfig {
	return ServerConfig{Workers: 2, Backlog: 126, SetupRTTs: 2, PostHoldRampConns: 50}
}

// ServletConfig covers both the ProducerServlet and the Registry (the
// same servlet container). The modest connector queue drives the same
// post-threshold backoff collapse the paper reports for the
// ProducerServlet.
func (c Calibration) ServletConfig() ServerConfig {
	return ServerConfig{Workers: 2, Backlog: 12, SetupRTTs: 2, WorkerHeldDuringSend: true}
}

// AgentConfig is the single-process Startd. Its short accept queue is what
// produces the paper's post-threshold collapse: past the knee most users
// sit in connection backoff, the queue drains, and measured load falls.
func (c Calibration) AgentConfig() ServerConfig {
	return ServerConfig{Workers: 8, Backlog: 2, SetupRTTs: 2}
}

// GIISConfig and ManagerConfig shape the directory/aggregate servers.
func (c Calibration) GIISConfig() ServerConfig {
	return ServerConfig{Workers: 2, Backlog: 126, SetupRTTs: 2}
}

func (c Calibration) ManagerConfig() ServerConfig {
	return ServerConfig{Workers: 2, Backlog: 126, SetupRTTs: 2}
}

// GRISDemand converts GRIS query work into demand. nProviders is the
// number of providers behind the GRIS (response-size effects come through
// w.ResponseBytes from the real engine).
func (c Calibration) GRISDemand(w core.Work) Demand {
	return Demand{
		CPUSeconds:        c.GRISBaseCPU + w.CollectorInvocations*c.ProviderForkCPU + float64(w.RecordsVisited)*c.GRISEntryCPU,
		WorkerHoldSeconds: w.CollectorInvocations * c.ProviderForkHold,
		PostHoldSeconds:   c.GRISPipelineHold,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}

// ProducerServletDemand converts a (direct or mediated) R-GMA query into
// demand. nProducers is the producer count behind the servlet.
func (c Calibration) ProducerServletDemand(w core.Work, nProducers int) Demand {
	quad := float64(nProducers * nProducers)
	return Demand{
		CPUSeconds:        c.ServletBaseCPU + quad*c.ProducerQuadCPU,
		WorkerHoldSeconds: c.ServletBaseHold + quad*c.ProducerQuadHold,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}

// RegistryDemand converts a Registry lookup into demand.
func (c Calibration) RegistryDemand(w core.Work) Demand {
	return Demand{
		CPUSeconds:        c.RegistryLookupCPU,
		WorkerHoldSeconds: c.RegistryLookupHold,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}

// AgentDemand converts an Agent query into demand. nModules is the module
// count (the quadratic integration term).
func (c Calibration) AgentDemand(w core.Work, nModules int) Demand {
	quad := float64(nModules * nModules)
	return Demand{
		CPUSeconds:        c.AgentBaseCPU + quad*c.ModuleQuadCPU,
		WorkerHoldSeconds: c.AgentBaseHold + quad*c.ModuleQuadHold,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}

// ManagerScanDemand converts a Manager constraint scan into demand.
func (c Calibration) ManagerScanDemand(w core.Work) Demand {
	scanned := float64(w.RecordsVisited)
	return Demand{
		CPUSeconds:        c.ManagerBaseCPU + scanned*c.ManagerAdScanCPU,
		WorkerHoldSeconds: c.ManagerBaseHold + scanned*c.ManagerAdScanHold,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}

// GIISDirectoryDemand prices the Experiment Set 2 GIIS lookup (data always
// cached; cachettl effectively infinite).
func (c Calibration) GIISDirectoryDemand(w core.Work) Demand {
	return Demand{
		CPUSeconds:        c.GIISDirCPU + float64(w.RecordsVisited)*c.GIISDirEntryCPU,
		WorkerHoldSeconds: c.GIISDirHold,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}

// ManagerDirectoryDemand prices the Experiment Set 2 Manager lookup.
func (c Calibration) ManagerDirectoryDemand(w core.Work) Demand {
	return Demand{
		CPUSeconds:        c.ManagerDirCPU,
		WorkerHoldSeconds: c.ManagerDirHold,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}

// GIISAggregateDemand prices an Experiment Set 4 aggregate query: the
// per-entry LDAP walk and per-returned-entry serialization dominate as
// registered GRIS grow, split between CPU and worker-held backend I/O.
func (c Calibration) GIISAggregateDemand(w core.Work) Demand {
	visited := float64(w.RecordsVisited)
	returned := float64(w.RecordsReturned)
	return Demand{
		CPUSeconds:        c.GIISDirCPU + visited*c.GIISAggVisitCPU + returned*c.GIISAggReturnCPU,
		WorkerHoldSeconds: visited*c.GIISAggVisitHold + returned*c.GIISAggReturnHold,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}

// AdvertiseDemand prices one Startd ClassAd ingest at the Manager.
func (c Calibration) AdvertiseDemand(adBytes int) Demand {
	return Demand{
		CPUSeconds:    c.AdvertiseCPU,
		RequestBytes:  float64(adBytes),
		ResponseBytes: 64, // ack
	}
}

// CompositeDemand prices a query against the extension composite
// Consumer/Producer: row materialization and scan over the aggregated
// local table, with the servlet container's base costs. Upstream refresh
// work appears in the row counts whenever the composite's cache expired.
func (c Calibration) CompositeDemand(w core.Work) Demand {
	rows := float64(w.RecordsVisited)
	return Demand{
		CPUSeconds:        c.ServletBaseCPU + rows*c.CompositeRowCPU,
		WorkerHoldSeconds: c.ServletBaseHold + rows*c.CompositeRowCPU,
		RequestBytes:      c.RequestBytes,
		ResponseBytes:     float64(w.ResponseBytes),
	}
}
