// Package core holds what the three systems share once the paper puts
// them side by side: Table 1's functional component mapping as data
// (ComponentMapping, System, Role), the uniform cost of one request
// (Work, with MDSWork, RGMAWork and HawkeyeWork converting each engine's
// own statistics), and the uniform result shape (an Answer, the record
// section of a reply, rendered by one decoder per engine's native answer,
// and the Records decoded from it).
// The facade and the simulator both call the engines directly and meet
// here: the simulator prices Work, the facade returns Records and Work.
package core

// System identifies one of the three monitoring and information services.
type System string

// The three services under study.
const (
	SystemMDS     System = "MDS"
	SystemRGMA    System = "R-GMA"
	SystemHawkeye System = "Hawkeye"
)

// Role identifies a functional component role from Table 1.
type Role string

// The four component roles of Table 1.
const (
	RoleInformationCollector Role = "Information Collector"
	RoleInformationServer    Role = "Information Server"
	RoleAggregateServer      Role = "Aggregate Information Server"
	RoleDirectoryServer      Role = "Directory Server"
)

// ComponentMapping reproduces Table 1: for each role, the concrete
// component name in each system. R-GMA has no aggregate information
// server in the standard distribution (the paper notes one could be built
// from a composite Consumer/Producer).
var ComponentMapping = map[Role]map[System]string{
	RoleInformationCollector: {
		SystemMDS:     "Information Provider",
		SystemRGMA:    "Producer",
		SystemHawkeye: "Module",
	},
	RoleInformationServer: {
		SystemMDS:     "GRIS",
		SystemRGMA:    "ProducerServlet",
		SystemHawkeye: "Agent",
	},
	RoleAggregateServer: {
		SystemMDS:     "GIIS",
		SystemRGMA:    "", // none in the standard distribution
		SystemHawkeye: "Manager",
	},
	RoleDirectoryServer: {
		SystemMDS:     "GIIS",
		SystemRGMA:    "Registry",
		SystemHawkeye: "Manager",
	},
}

// Work quantifies what a component did to answer one request, in units
// common to all three systems. The testbed calibration converts Work into
// CPU seconds and wire bytes.
type Work struct {
	// CollectorInvocations is the weighted count of information-collector
	// executions (MDS provider forks, Hawkeye module runs): the dominant
	// cost the paper's caching experiments isolate.
	CollectorInvocations float64
	// RecordsVisited counts stored records examined (LDAP entries walked,
	// SQL rows scanned, ClassAds matched against).
	RecordsVisited int
	// RecordsReturned counts records in the response.
	RecordsReturned int
	// Subqueries counts internal fan-out calls (ConsumerServlet to
	// ProducerServlets, for example).
	Subqueries int
	// ThreadSpawns counts servlet-style worker threads created — the Java
	// overhead the paper credits for R-GMA's lower Registry throughput.
	ThreadSpawns int
	// ResponseBytes is the response payload size.
	ResponseBytes int
	// IndexHits counts records fetched from an index fast path (LDAP
	// attribute postings, the Registry's table-name index, the Manager's
	// name index)
	// instead of a scan. RecordsVisited still reports the logical scan
	// cost either way — IndexHits is how `gridmon-query -o json` shows
	// whether the fast path ran, it does not change simulated CPU.
	IndexHits int
	// ScanFallbacks counts sub-queries answered by a full scan because
	// no index applied (non-indexable filter, or an inherently
	// scan-everything request).
	ScanFallbacks int
	// CacheHits counts answers served whole from a result cache in front
	// of the component (the facade's GIIS-style query cache) — the
	// serving engine did no work at all, the regime behind the paper's
	// >10x "data in cache" throughput (Figures 5–6). Zero when no cache
	// is configured.
	CacheHits int
	// CacheMisses counts queries that went through a configured result
	// cache without finding a live entry (the engine Work fields describe
	// what answering then cost). Zero when no cache is configured.
	CacheMisses int
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.CollectorInvocations += o.CollectorInvocations
	w.RecordsVisited += o.RecordsVisited
	w.RecordsReturned += o.RecordsReturned
	w.Subqueries += o.Subqueries
	w.ThreadSpawns += o.ThreadSpawns
	w.ResponseBytes += o.ResponseBytes
	w.IndexHits += o.IndexHits
	w.ScanFallbacks += o.ScanFallbacks
	w.CacheHits += o.CacheHits
	w.CacheMisses += o.CacheMisses
}
