package rgma

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/gma"
	"repro/internal/relational"
	"repro/internal/storage"
)

// QueryStats counts the work an R-GMA component performed for one request.
type QueryStats struct {
	// RowsScanned counts rows examined by SQL execution.
	RowsScanned int
	// RowsReturned counts result rows.
	RowsReturned int
	// ResponseBytes is the serialized result size.
	ResponseBytes int
	// ProducersContacted counts the producer servlet round trips a
	// mediated query performed.
	ProducersContacted int
	// RegistryLookups counts Registry consultations.
	RegistryLookups int
	// ThreadSpawns counts servlet worker threads created (the Java
	// overhead the paper blames for the Registry's lower throughput).
	ThreadSpawns int
	// IndexHits counts rows fetched from hash-index postings
	// (RowsScanned still reports the logical scan cost either way).
	IndexHits int
	// ScanFallbacks counts SELECTs executed without a usable index.
	ScanFallbacks int
}

// Add accumulates other into s.
func (s *QueryStats) Add(o QueryStats) {
	s.RowsScanned += o.RowsScanned
	s.RowsReturned += o.RowsReturned
	s.ResponseBytes += o.ResponseBytes
	s.ProducersContacted += o.ProducersContacted
	s.RegistryLookups += o.RegistryLookups
	s.ThreadSpawns += o.ThreadSpawns
	s.IndexHits += o.IndexHits
	s.ScanFallbacks += o.ScanFallbacks
}

// Registry is R-GMA's directory: producer advertisements held in an
// RDBMS. Producers register a table name and their fixed predicate; the
// Registry answers Consumer lookups with the matching producers. It
// implements gma.Registry.
//
// The Registry is safe for concurrent use: lookups whose soft state has
// nothing to expire — the steady state under live registrations — run
// under a shared read lock; a lookup that must drop lapsed
// advertisements upgrades to the exclusive lock (double-checked, since a
// concurrent lookup may have expired them first). Registration and
// unregistration always take the exclusive lock.
//
// A registry opened on a durable store (OpenRegistry) additionally
// write-ahead-logs every mutation and reopens with its directory
// intact; see registry_durable.go for the record grammar and recovery
// semantics.
type Registry struct {
	Name string

	mu        sync.RWMutex
	producers *relational.Table // indexed by table_name; guarded by mu

	// Durable logging state (zero/nil for a volatile registry).
	store      storage.Store // WAL+snapshot engine; guarded by mu
	storeErr   error         // first logging failure, sticky; guarded by mu
	walRecords int           // records since the last snapshot; guarded by mu
	snapEvery  int           // snapshot cadence; immutable after construction
}

var _ gma.Registry = (*Registry)(nil)

// NewRegistry creates an empty registry with its producers table.
func NewRegistry(name string) *Registry {
	t := relational.NewTable("producers", []relational.Column{
		{Name: "producer_id", Type: relational.StringType},
		{Name: "address", Type: relational.StringType},
		{Name: "table_name", Type: relational.StringType},
		{Name: "predicate", Type: relational.StringType},
		{Name: "expires", Type: relational.RealType},
	})
	if err := t.CreateIndex("table_name"); err != nil {
		panic(err)
	}
	return &Registry{Name: name, producers: t}
}

// RegisterProducer records or renews an advertisement with a soft-state
// lifetime of ttl seconds.
func (r *Registry) RegisterProducer(ad gma.Advertisement, now, ttl float64) error {
	if ad.ProducerID == "" || ad.TableName == "" {
		return fmt.Errorf("rgma: advertisement needs producer id and table name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Replace any previous registration for this producer.
	if err := r.putProducer(ad, now+ttl); err != nil {
		return err
	}
	return r.log(encodeRegisterRec(ad, now+ttl))
}

// UnregisterProducer removes a producer's advertisement. A durable
// logging failure is sticky in Err (the bool return is the gma.Registry
// contract).
func (r *Registry) UnregisterProducer(producerID string, now float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.deleteProducer(producerID) {
		return false
	}
	// log records any failure in storeErr; see Err.
	_ = r.log(encodeUnregisterRec(producerID))
	return true
}

// anyExpired reports whether any advertisement's soft state has lapsed
// at time now. Callers hold mu (either mode).
func (r *Registry) anyExpired(now float64) bool {
	for _, row := range r.producers.Rows() {
		if row[4].R <= now {
			return true
		}
	}
	return false
}

// expire drops advertisements whose soft state lapsed, reporting how
// many. Callers hold mu exclusively.
func (r *Registry) expire(now float64) int {
	return r.producers.DeleteWhere(func(row []relational.Value) bool {
		return row[4].R <= now
	})
}

// expireAndLog drops lapsed advertisements and, when the sweep removed
// anything, records it in the WAL so a reopened registry does not
// resurrect dead producers. Callers hold mu exclusively.
func (r *Registry) expireAndLog(now float64) {
	if r.expire(now) > 0 {
		r.logExpire(now)
	}
}

// LookupProducers returns the live advertisements for a table via the
// registry's table-name index.
func (r *Registry) LookupProducers(table string, now float64) ([]gma.Advertisement, error) {
	ads, _, err := r.LookupProducersStats(table, now)
	return ads, err
}

// LookupProducersStats is LookupProducers with work accounting. The
// steady-state lookup (nothing to expire) runs under the read lock;
// expiry upgrades to the exclusive lock with a re-check.
func (r *Registry) LookupProducersStats(table string, now float64) ([]gma.Advertisement, QueryStats, error) {
	r.mu.RLock()
	if !r.anyExpired(now) {
		defer r.mu.RUnlock()
		return r.lookup(table)
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireAndLog(now)
	return r.lookup(table)
}

// lookup answers the table's producers from the table-name index.
// Callers hold mu (either mode).
func (r *Registry) lookup(table string) ([]gma.Advertisement, QueryStats, error) {
	rows, indexed := r.producers.LookupIndexed("table_name", relational.StrVal(table))
	st := QueryStats{ThreadSpawns: 1}
	if !indexed {
		return nil, st, fmt.Errorf("rgma: registry index missing")
	}
	st.IndexHits = len(rows) // served from the table-name hash index
	var out []gma.Advertisement
	for _, row := range rows {
		st.RowsScanned++
		out = append(out, gma.Advertisement{
			ProducerID: row[0].S,
			Address:    row[1].S,
			TableName:  row[2].S,
			Predicate:  row[3].S,
		})
	}
	st.RowsReturned = len(out)
	st.ResponseBytes = relational.SizeBytes(rows)
	return out, st, nil
}

// Tables lists the distinct tables currently advertised, sorted.
func (r *Registry) Tables(now float64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireAndLog(now)
	var out []string
	for _, row := range r.producers.Rows() {
		out = append(out, row[2].S) // table_name
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NumRegistered reports the number of live advertisements.
func (r *Registry) NumRegistered(now float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireAndLog(now)
	return r.producers.Len()
}
