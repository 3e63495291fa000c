package rgma

import (
	"fmt"
	"slices"
	"strings"
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
	// IndexHits counts rows found by key, as a Registry lookup finds its
	// table's (RowsScanned still reports the logical scan cost either way).
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

// Registry is R-GMA's directory: a soft-state list of producer
// advertisements. Producers register a table name and their fixed
// predicate; the Registry answers Consumer lookups with the matching
// producers in registration order: the GMA directory of the paper's
// Figure 2.
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

	mu   sync.RWMutex
	byID map[string]*registration // guarded by mu
	// order is the sentinel of the ring of registrations in registration
	// order: order.next is the oldest, order.prev the newest.
	order registration // guarded by mu
	wal   *storage.Log // nil for a volatile registry; guarded by mu
}

// registration is one live advertisement, with what a lookup compares
// and counts worked out once when it is registered.
type registration struct {
	ad      gma.Advertisement
	expires float64
	table   string // ad.TableName folded by strings.ToLower, which lookups match
	// size is relational.SizeBytes of the answer row (producer_id,
	// address, table_name, predicate, expires).
	size       int
	prev, next *registration
}

// NewRegistry creates an empty volatile registry.
func NewRegistry(name string) *Registry {
	r := &Registry{Name: name, byID: make(map[string]*registration)}
	r.order.prev, r.order.next = &r.order, &r.order
	return r
}

// RegisterProducer records or renews an advertisement with a soft-state
// lifetime of ttl seconds.
func (r *Registry) RegisterProducer(ad gma.Advertisement, now, ttl float64) error {
	if ad.ProducerID == "" || ad.TableName == "" {
		return fmt.Errorf("rgma: advertisement needs producer id and table name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.putProducer(ad, now+ttl)
	return r.wal.Append(func() []byte { return encodeRegisterRec(ad, now+ttl) })
}

// UnregisterProducer removes a producer's advertisement, reporting
// whether it was registered. A durable logging failure is sticky in Err.
func (r *Registry) UnregisterProducer(producerID string, now float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.deleteProducer(producerID) {
		return false
	}
	// The log keeps any failure; see Err.
	_ = r.wal.Append(func() []byte { return encodeUnregisterRec(producerID) })
	return true
}

// putProducer registers ad, or renews the producer's registration and
// moves it to the end of the registration order — the shared mutation
// core of RegisterProducer and replay. Callers hold mu exclusively.
func (r *Registry) putProducer(ad gma.Advertisement, expires float64) {
	reg := r.byID[ad.ProducerID]
	if reg == nil {
		reg = &registration{}
		r.byID[ad.ProducerID] = reg
	} else {
		reg.unlink()
	}
	reg.ad = ad
	reg.expires = expires
	reg.table = strings.ToLower(ad.TableName)
	reg.size = relational.SizeBytes([][]relational.Value{{
		relational.StrVal(ad.ProducerID),
		relational.StrVal(ad.Address),
		relational.StrVal(ad.TableName),
		relational.StrVal(ad.Predicate),
		relational.RealVal(expires),
	}})
	reg.prev, reg.next = r.order.prev, &r.order
	r.order.prev.next = reg
	r.order.prev = reg
}

// deleteProducer removes a producer's advertisement, reporting whether
// one existed. Callers hold mu exclusively.
func (r *Registry) deleteProducer(producerID string) bool {
	reg := r.byID[producerID]
	if reg == nil {
		return false
	}
	reg.unlink()
	delete(r.byID, producerID)
	return true
}

// unlink takes reg out of the registration order.
func (reg *registration) unlink() {
	reg.prev.next = reg.next
	reg.next.prev = reg.prev
}

// expire drops advertisements whose soft state lapsed, reporting how
// many. Callers hold mu exclusively.
func (r *Registry) expire(now float64) int {
	n := 0
	for reg := r.order.next; reg != &r.order; reg = reg.next {
		if reg.expires <= now {
			reg.unlink()
			delete(r.byID, reg.ad.ProducerID)
			n++
		}
	}
	return n
}

// expireAndLog drops lapsed advertisements and, when the sweep removed
// anything, records it in the WAL so a reopened registry does not
// resurrect dead producers. Callers hold mu exclusively.
func (r *Registry) expireAndLog(now float64) {
	if r.expire(now) > 0 {
		// The log keeps any failure; see Err.
		_ = r.wal.Append(func() []byte { return encodeExpireRec(now) })
	}
}

// LookupProducersStats returns the live advertisements for a table,
// matched case-insensitively, in registration order, with work
// accounting (nil when there are none).
func (r *Registry) LookupProducersStats(table string, now float64) ([]gma.Advertisement, QueryStats, error) {
	ads, st := r.LookupInto(table, now, nil)
	return ads, st, nil
}

// LookupInto is LookupProducersStats appending to dst. The steady-state
// lookup (nothing to expire) runs under the read lock; expiry upgrades
// to the exclusive lock with a re-check.
func (r *Registry) LookupInto(table string, now float64, dst []gma.Advertisement) ([]gma.Advertisement, QueryStats) {
	key := strings.ToLower(table)
	r.mu.RLock()
	n, lapsed := r.scan(key, now)
	if lapsed {
		r.mu.RUnlock()
		r.mu.Lock()
		defer r.mu.Unlock()
		r.expireAndLog(now)
		n, _ = r.scan(key, now)
	} else {
		defer r.mu.RUnlock()
	}
	st := QueryStats{ThreadSpawns: 1, RowsScanned: n, RowsReturned: n, IndexHits: n}
	dst = slices.Grow(dst, n)
	for reg := r.order.next; n > 0; reg = reg.next {
		if reg.table == key {
			dst = append(dst, reg.ad)
			st.ResponseBytes += reg.size
			n--
		}
	}
	return dst, st
}

// scan counts the advertisements for folded table name key and reports
// whether any advertisement's soft state has lapsed at time now.
// Callers hold mu (either mode).
func (r *Registry) scan(key string, now float64) (matches int, lapsed bool) {
	for reg := r.order.next; reg != &r.order; reg = reg.next {
		if reg.table == key {
			matches++
		}
		if reg.expires <= now {
			lapsed = true
		}
	}
	return matches, lapsed
}

// Tables lists the distinct tables currently advertised, sorted.
func (r *Registry) Tables(now float64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireAndLog(now)
	var out []string
	for reg := r.order.next; reg != &r.order; reg = reg.next {
		out = append(out, reg.ad.TableName)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NumRegistered reports the number of live advertisements.
func (r *Registry) NumRegistered(now float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireAndLog(now)
	return len(r.byID)
}
