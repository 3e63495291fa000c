package rgma

import (
	"sync"

	"repro/internal/gma"
	"repro/internal/relational"
)

// CompositeProducer is the aggregate information server the paper notes
// R-GMA lacks but "could easily be built... using a composite
// Consumer/Producer that registered with the data streams of a number of
// Producers, and served the data in an aggregated form". It consumes a
// table from every producer the Registry knows, materializes the union
// locally, and republishes it through its own Producer — so downstream
// Consumers query one place and the Registry gains an aggregated source.
type CompositeProducer struct {
	ID      string
	Table   string
	Address string

	registry *Registry
	resolve  func(address string) (*ProducerServlet, error)
	servlet  *ProducerServlet
	producer *Producer
	// RefreshTTL caches the upstream pull like a GIIS cache; RefreshTTL
	// seconds of staleness are tolerated (0 = refetch on every query).
	RefreshTTL float64

	// mu guards the staleness bookkeeping and serializes upstream pulls,
	// so concurrent queries double-check the refresh the way a GRIS
	// double-checks its provider cache. The serving itself (its servlet's
	// SELECT over the local copy) runs outside the lock.
	mu          sync.Mutex
	lastRefresh float64 // guarded by mu
	haveData    bool    // guarded by mu
}

// NewCompositeProducer builds a composite over the named table. The
// composite republishes through its own ProducerServlet at address.
func NewCompositeProducer(id, address, table string, reg *Registry,
	resolve func(string) (*ProducerServlet, error)) *CompositeProducer {
	cp := &CompositeProducer{
		ID:       id,
		Table:    table,
		Address:  address,
		registry: reg,
		resolve:  resolve,
		servlet:  NewProducerServlet(address),
	}
	cp.producer = NewProducer(id, table, MonitoringSchema)
	cp.servlet.Host(cp.producer)
	cp.lastRefresh = -1
	return cp
}

// Servlet exposes the composite's own producer servlet (for registering
// the composite with a Registry, or serving it over a transport).
func (cp *CompositeProducer) Servlet() *ProducerServlet { return cp.servlet }

// Refresh pulls the current rows of the aggregated table from every
// registered producer servlet and republishes the union. It returns the
// number of upstream servlets contacted.
func (cp *CompositeProducer) Refresh(now float64) (int, QueryStats, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.refreshLocked(now)
}

// refreshLocked performs the upstream pull. Callers hold mu.
func (cp *CompositeProducer) refreshLocked(now float64) (int, QueryStats, error) {
	var st QueryStats
	ads, lookupStats, err := cp.registry.LookupProducersStats(cp.Table, now)
	st.RegistryLookups++
	st.Add(lookupStats)
	if err != nil {
		return 0, st, err
	}
	seen := make(map[string]bool)
	contacted := 0
	// SELECT * FROM <Table>, one plan and one result for every servlet.
	q := relational.RowsQuery{Select: relational.SelectStmt{Table: cp.Table}}
	for _, ad := range ads {
		if ad.ProducerID == cp.ID {
			continue // never aggregate ourselves
		}
		if seen[ad.Address] {
			continue
		}
		seen[ad.Address] = true
		pserv, err := cp.resolve(ad.Address)
		if err != nil {
			return contacted, st, err
		}
		pStats, err := pserv.query(now, &q, QueryStats{ThreadSpawns: 1})
		contacted++
		st.ProducersContacted++
		st.Add(pStats)
		if err != nil {
			return contacted, st, err
		}
	}
	var rows [][]relational.Value
	if res := q.Result(); res != nil {
		rows = res.Rows
	}
	cp.producer.Publish(rows)
	cp.lastRefresh = now
	cp.haveData = true
	return contacted, st, nil
}

// Query answers a SQL SELECT from the composite's local copy, refreshing
// from upstream first when the cached data is older than RefreshTTL. This
// is the aggregated-form serving the paper describes. The staleness
// check is double-checked under the composite's mutex, so concurrent
// queries at the same instant refresh once and share the copy. A
// statement that does not parse fails after the refresh, as the query
// it names would have refreshed.
func (cp *CompositeProducer) Query(now float64, sql string) (*relational.Result, QueryStats, error) {
	sel, err := relational.Parse(sql)
	return cp.query(now, &relational.RowsQuery{Select: sel}, err)
}

// Refuse fails a statement that did not parse with err, as Query does:
// after the refresh it would have made, whose failure comes first.
func (cp *CompositeProducer) Refuse(now float64, err error) (QueryStats, error) {
	_, st, err := cp.query(now, nil, err)
	return st, err
}

// QueryInto is Query answering q's already-parsed Select on q, whose
// scratch the caller may reuse: the Result is q's (see
// RowsQuery.Result).
func (cp *CompositeProducer) QueryInto(now float64, q *relational.RowsQuery) (*relational.Result, QueryStats, error) {
	return cp.query(now, q, nil)
}

// query refreshes if stale, then answers q, or fails with parseErr.
func (cp *CompositeProducer) query(now float64, q *relational.RowsQuery, parseErr error) (*relational.Result, QueryStats, error) {
	var st QueryStats
	cp.mu.Lock()
	if !cp.haveData || now-cp.lastRefresh > cp.RefreshTTL {
		_, rSt, err := cp.refreshLocked(now)
		st.Add(rSt)
		if err != nil {
			cp.mu.Unlock()
			return nil, st, err
		}
	}
	cp.mu.Unlock()
	if parseErr != nil {
		st.Add(QueryStats{ThreadSpawns: 1})
		return nil, st, parseErr
	}
	res, qSt, err := cp.servlet.QueryInto(now, q)
	st.Add(qSt)
	return res, st, err
}

// Advertisements describes the composite for Registry registration: it
// offers the whole table (no predicate), an aggregated source downstream
// consumers can use in place of the per-resource producers.
func (cp *CompositeProducer) Advertisements() []gma.Advertisement {
	return cp.servlet.Advertisements()
}
