package core

import (
	"fmt"

	"repro/internal/classad"
	"repro/internal/hawkeye"
	"repro/internal/ldap"
	"repro/internal/mds"
	"repro/internal/rgma"
)

// --- MDS adapters ---

// GRISServer binds an mds.GRIS to the Information Server role.
type GRISServer struct {
	GRIS *mds.GRIS
	// Filter and Attrs shape the standard query (nil/empty = all data).
	Filter ldap.Filter
	Attrs  []string
}

func (s *GRISServer) ComponentName() string { return "GRIS" }
func (s *GRISServer) System() System        { return SystemMDS }
func (s *GRISServer) Role() Role            { return RoleInformationServer }

// QueryAll searches the GRIS for the configured data set.
func (s *GRISServer) QueryAll(now float64) (Work, error) {
	_, st := s.GRIS.Query(now, s.Filter, s.Attrs)
	return MDSWork(st), nil
}

// MDSWork converts MDS query statistics to the uniform Work measure.
//
//gridmon:nolint workacct ProvidersInvoked is the unweighted companion of ProviderForkWeight; the weighted count is what CollectorInvocations charges
func MDSWork(st mds.QueryStats) Work {
	return Work{
		CollectorInvocations: st.ProviderForkWeight,
		RecordsVisited:       st.EntriesVisited,
		RecordsReturned:      st.EntriesReturned,
		Subqueries:           0, // GRIS/GIIS fan-out is charged per entry, not per sub-query
		ThreadSpawns:         0, // MDS forks providers; the fork weight is CollectorInvocations
		ResponseBytes:        st.ResponseBytes,
		IndexHits:            st.IndexHits,
		ScanFallbacks:        st.ScanFallbacks,
		CacheHits:            0, // facade-level counters, set by the query cache
		CacheMisses:          0,
	}
}

// GIISServer binds an mds.GIIS to both the Directory Server and Aggregate
// Information Server roles (the GIIS plays both in Table 1).
type GIISServer struct {
	GIIS *mds.GIIS
	// AsDirectory selects which role this binding reports.
	AsDirectory bool
	// Filter and Attrs shape the standard query (nil/empty = all data).
	Filter ldap.Filter
	Attrs  []string
	// PartFilter and PartAttrs define the "query part" request of
	// Experiment Set 4.
	PartFilter ldap.Filter
	PartAttrs  []string
}

func (s *GIISServer) ComponentName() string { return "GIIS" }
func (s *GIISServer) System() System        { return SystemMDS }

func (s *GIISServer) Role() Role {
	if s.AsDirectory {
		return RoleDirectoryServer
	}
	return RoleAggregateServer
}

// QueryAll requests the configured data set from every registered GRIS
// (everything by default).
func (s *GIISServer) QueryAll(now float64) (Work, error) {
	_, st, err := s.GIIS.Query(now, s.Filter, s.Attrs)
	return MDSWork(st), err
}

// QueryPart requests the configured slice of each registered GRIS's data.
func (s *GIISServer) QueryPart(now float64) (Work, error) {
	filter := s.PartFilter
	if filter == nil {
		filter = ldap.MustParseFilter("(objectclass=MdsCpu)")
	}
	attrs := s.PartAttrs
	if len(attrs) == 0 {
		attrs = []string{"Mds-Cpu-Free-1minX100"}
	}
	_, st, err := s.GIIS.Query(now, filter, attrs)
	return MDSWork(st), err
}

// Lookup performs the directory query: the cached search that resolves
// which resources exist.
func (s *GIISServer) Lookup(now float64) (Work, error) {
	return s.QueryAll(now)
}

// --- R-GMA adapters ---

// ProducerServletServer binds an rgma.ProducerServlet to the Information
// Server role.
type ProducerServletServer struct {
	Servlet *rgma.ProducerServlet
	// SQL is the standard query (defaults to selecting the whole
	// "siteinfo" table).
	SQL string
	// Attrs projects decoded records to these columns (empty = all).
	Attrs []string
}

func (s *ProducerServletServer) ComponentName() string { return "ProducerServlet" }
func (s *ProducerServletServer) System() System        { return SystemRGMA }
func (s *ProducerServletServer) Role() Role            { return RoleInformationServer }

func (s *ProducerServletServer) sql() string {
	if s.SQL != "" {
		return s.SQL
	}
	return "SELECT * FROM siteinfo"
}

// QueryAll executes the standard SQL query directly against the servlet.
func (s *ProducerServletServer) QueryAll(now float64) (Work, error) {
	_, st, err := s.Servlet.Query(now, s.sql())
	return RGMAWork(st), err
}

// RGMAWork converts R-GMA query statistics to the uniform Work measure.
func RGMAWork(st rgma.QueryStats) Work {
	return Work{
		CollectorInvocations: 0, // producers materialize rows lazily; no collector forks
		RecordsVisited:       st.RowsScanned,
		RecordsReturned:      st.RowsReturned,
		Subqueries:           st.ProducersContacted + st.RegistryLookups,
		ThreadSpawns:         st.ThreadSpawns,
		ResponseBytes:        st.ResponseBytes,
		IndexHits:            st.IndexHits,
		ScanFallbacks:        st.ScanFallbacks,
		CacheHits:            0, // facade-level counters, set by the query cache
		CacheMisses:          0,
	}
}

// ConsumerServer binds an rgma.ConsumerServlet to the Information Server
// role: the mediated query path, where the consumer resolves producers
// through the Registry and fans the query out to their servlets. This is
// how an R-GMA user queries "the grid" rather than one known servlet.
type ConsumerServer struct {
	Consumer *rgma.ConsumerServlet
	// SQL is the standard query (defaults to selecting the whole
	// "siteinfo" table).
	SQL string
	// Attrs projects decoded records to these columns (empty = all).
	Attrs []string
}

func (s *ConsumerServer) ComponentName() string { return "ConsumerServlet" }
func (s *ConsumerServer) System() System        { return SystemRGMA }
func (s *ConsumerServer) Role() Role            { return RoleInformationServer }

func (s *ConsumerServer) sql() string {
	if s.SQL != "" {
		return s.SQL
	}
	return "SELECT * FROM siteinfo"
}

// QueryAll executes the standard SQL query through the mediator.
func (s *ConsumerServer) QueryAll(now float64) (Work, error) {
	_, st, err := s.Consumer.Query(now, s.sql())
	return RGMAWork(st), err
}

// RegistryServer binds an rgma.Registry to the Directory Server role.
type RegistryServer struct {
	Registry *rgma.Registry
	// Table is the table name the standard lookup resolves.
	Table string
	// Attrs projects decoded records to these fields (empty = all).
	Attrs []string
}

func (s *RegistryServer) ComponentName() string { return "Registry" }
func (s *RegistryServer) System() System        { return SystemRGMA }
func (s *RegistryServer) Role() Role            { return RoleDirectoryServer }

// Lookup resolves the producers of the configured table.
func (s *RegistryServer) Lookup(now float64) (Work, error) {
	table := s.Table
	if table == "" {
		table = "siteinfo"
	}
	_, st, err := s.Registry.LookupProducersStats(table, now)
	return RGMAWork(st), err
}

// --- Hawkeye adapters ---

// AgentServer binds a hawkeye.Agent to the Information Server role.
type AgentServer struct {
	Agent *hawkeye.Agent
	// Constraint shapes the standard query (nil = return the Startd ad).
	Constraint classad.Expr
	// Attrs projects decoded records to these attributes (empty = all).
	Attrs []string
}

func (s *AgentServer) ComponentName() string { return "Agent" }
func (s *AgentServer) System() System        { return SystemHawkeye }
func (s *AgentServer) Role() Role            { return RoleInformationServer }

// QueryAll queries the Agent directly, forcing a fresh module collection.
func (s *AgentServer) QueryAll(now float64) (Work, error) {
	_, st := s.Agent.Query(now, s.Constraint)
	return HawkeyeWork(st), nil
}

// HawkeyeWork converts Hawkeye query statistics to the uniform Work measure.
//
//gridmon:nolint workacct ModulesCollected is the unweighted companion of ModuleExecWeight; the weighted count is what CollectorInvocations charges
func HawkeyeWork(st hawkeye.QueryStats) Work {
	return Work{
		CollectorInvocations: st.ModuleExecWeight,
		RecordsVisited:       st.AdsScanned,
		RecordsReturned:      st.AdsReturned,
		Subqueries:           0, // the Manager answers from its own ad table; no fan-out
		ThreadSpawns:         0, // agent module runs are charged via CollectorInvocations
		ResponseBytes:        st.ResponseBytes,
		IndexHits:            st.IndexHits,
		ScanFallbacks:        st.ScanFallbacks,
		CacheHits:            0, // facade-level counters, set by the query cache
		CacheMisses:          0,
	}
}

// ManagerServer binds a hawkeye.Manager to the Directory Server and
// Aggregate Information Server roles.
type ManagerServer struct {
	Manager *hawkeye.Manager
	// AsDirectory selects which role this binding reports.
	AsDirectory bool
	// Constraint is the scan constraint; the paper's Experiment Set 4
	// uses a worst-case constraint met by no machine.
	Constraint classad.Expr
	// Attrs projects decoded records to these attributes (empty = all).
	Attrs []string
}

func (s *ManagerServer) ComponentName() string { return "Manager" }
func (s *ManagerServer) System() System        { return SystemHawkeye }

func (s *ManagerServer) Role() Role {
	if s.AsDirectory {
		return RoleDirectoryServer
	}
	return RoleAggregateServer
}

// QueryAll scans the pool with the configured constraint.
func (s *ManagerServer) QueryAll(now float64) (Work, error) {
	_, st := s.Manager.Query(now, s.Constraint)
	return HawkeyeWork(st), nil
}

// QueryPart scans the pool but returns only matching ads for a narrow
// constraint — the Manager's equivalent of a partial query.
func (s *ManagerServer) QueryPart(now float64) (Work, error) {
	constraint := s.Constraint
	if constraint == nil {
		constraint = classad.MustParseExpr("TARGET.CpuLoad > 200") // matches nothing
	}
	_, st := s.Manager.Query(now, constraint)
	return HawkeyeWork(st), nil
}

// Lookup performs the directory query: the pool-membership scan a status
// query triggers.
func (s *ManagerServer) Lookup(now float64) (Work, error) {
	return s.QueryAll(now)
}

// --- collectors ---

// ProviderCollector binds an MDS information provider to the Information
// Collector role.
type ProviderCollector struct {
	Provider *mds.Provider
	Host     string
}

func (c *ProviderCollector) ComponentName() string { return "Information Provider" }
func (c *ProviderCollector) System() System        { return SystemMDS }
func (c *ProviderCollector) Role() Role            { return RoleInformationCollector }

// Collect runs the provider once.
func (c *ProviderCollector) Collect(now float64) (int, error) {
	return len(c.Provider.Generate(c.Host, now)), nil
}

// ModuleCollector binds a Hawkeye module to the Information Collector
// role.
type ModuleCollector struct {
	Module *hawkeye.Module
	Host   string
}

func (c *ModuleCollector) ComponentName() string { return "Module" }
func (c *ModuleCollector) System() System        { return SystemHawkeye }
func (c *ModuleCollector) Role() Role            { return RoleInformationCollector }

// Collect runs the module once.
func (c *ModuleCollector) Collect(now float64) (int, error) {
	ad := c.Module.Collect(c.Host, now)
	if ad == nil {
		return 0, fmt.Errorf("core: module %q returned no ad", c.Module.Name)
	}
	return ad.Len(), nil
}

// ProducerCollector binds an R-GMA producer to the Information Collector
// role.
type ProducerCollector struct {
	Producer *rgma.Producer
}

func (c *ProducerCollector) ComponentName() string { return "Producer" }
func (c *ProducerCollector) System() System        { return SystemRGMA }
func (c *ProducerCollector) Role() Role            { return RoleInformationCollector }

// Collect materializes the producer's current rows.
func (c *ProducerCollector) Collect(now float64) (int, error) {
	return len(c.Producer.Rows(now)), nil
}

// Interface conformance checks: every adapter occupies its Table 1 role.
var (
	_ InformationServer          = (*GRISServer)(nil)
	_ InformationServer          = (*ProducerServletServer)(nil)
	_ InformationServer          = (*ConsumerServer)(nil)
	_ InformationServer          = (*AgentServer)(nil)
	_ DirectoryServer            = (*GIISServer)(nil)
	_ DirectoryServer            = (*RegistryServer)(nil)
	_ DirectoryServer            = (*ManagerServer)(nil)
	_ AggregateInformationServer = (*GIISServer)(nil)
	_ AggregateInformationServer = (*ManagerServer)(nil)
	_ InformationCollector       = (*ProviderCollector)(nil)
	_ InformationCollector       = (*ModuleCollector)(nil)
	_ InformationCollector       = (*ProducerCollector)(nil)
)

// CompositeServer binds an rgma.CompositeProducer to the Aggregate
// Information Server role — the Table 1 cell the paper leaves empty,
// built exactly as the paper suggests ("a composite Consumer/Producer
// that registered with the data streams of a number of Producers").
type CompositeServer struct {
	Composite *rgma.CompositeProducer
	// SQL is the standard query (defaults to selecting the whole
	// aggregated table).
	SQL string
	// PartSQL is the query-part request (defaults to a single-host
	// slice of the table).
	PartSQL string
	// Attrs projects decoded records to these columns (empty = all).
	Attrs []string
}

func (s *CompositeServer) ComponentName() string { return "Composite Consumer/Producer" }
func (s *CompositeServer) System() System        { return SystemRGMA }
func (s *CompositeServer) Role() Role            { return RoleAggregateServer }

// QueryAll requests the whole aggregated table.
func (s *CompositeServer) QueryAll(now float64) (Work, error) {
	_, st, err := s.Composite.Query(now, "SELECT * FROM "+s.Composite.Table)
	return RGMAWork(st), err
}

// QueryPart requests a slice of the aggregated table.
func (s *CompositeServer) QueryPart(now float64) (Work, error) {
	sql := s.PartSQL
	if sql == "" {
		sql = "SELECT host, value FROM " + s.Composite.Table + " WHERE metric = 'metric-00'"
	}
	_, st, err := s.Composite.Query(now, sql)
	return RGMAWork(st), err
}

var _ AggregateInformationServer = (*CompositeServer)(nil)
