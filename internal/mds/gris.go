package mds

import (
	"fmt"
	"sync"

	"repro/internal/ldap"
)

// QueryStats counts the work a GRIS or GIIS performed for one request.
// The testbed's calibration converts these counts into CPU seconds.
type QueryStats struct {
	// ProvidersInvoked counts information-provider forks (cache misses).
	ProvidersInvoked int
	// ProviderForkWeight sums the fork weights of invoked providers.
	ProviderForkWeight float64
	// EntriesVisited counts directory entries examined by the search.
	EntriesVisited int
	// EntriesReturned counts entries in the result.
	EntriesReturned int
	// ResponseBytes is the LDIF size of the result.
	ResponseBytes int
	// IndexHits counts entries served from the DIT's attribute postings
	// (EntriesVisited still reports the logical scan cost either way).
	IndexHits int
	// ScanFallbacks counts searches answered by a subtree walk.
	ScanFallbacks int
}

// Add accumulates other into s.
func (s *QueryStats) Add(other QueryStats) {
	s.ProvidersInvoked += other.ProvidersInvoked
	s.ProviderForkWeight += other.ProviderForkWeight
	s.EntriesVisited += other.EntriesVisited
	s.EntriesReturned += other.EntriesReturned
	s.ResponseBytes += other.ResponseBytes
	s.IndexHits += other.IndexHits
	s.ScanFallbacks += other.ScanFallbacks
}

// GRIS is a Grid Resource Information Service: the resource-level
// information server. It serves a DIT populated by information providers,
// refreshed through a TTL cache: a query first freshens any expired
// provider data (paying the provider fork cost), then searches the tree.
//
// GRIS is safe for concurrent use. Queries whose provider data is all in
// cache — the paper's "data always in cache" configuration, its headline
// >10x throughput case — run under a shared read lock, so independent
// clients are served in parallel; a query that must re-invoke expired
// providers upgrades to the exclusive lock (double-checked, since another
// query may have refreshed meanwhile) and pays the serial cost, exactly
// the cache-miss serialization the paper measured.
type GRIS struct {
	Host string
	// CacheTTL is the provider-data time-to-live in seconds. Zero means
	// data is never cached (every query re-invokes every provider);
	// a very large value keeps data always in cache after warmup.
	CacheTTL float64

	base      ldap.Base // the host's DN, normalized once: the base of every search
	mu        sync.RWMutex
	providers []*Provider // immutable after NewGRIS; len() is read lock-free
	expiry    []float64   // per-provider cache expiry; guarded by mu
	dit       *ldap.DIT   // cached provider entries; guarded by mu
}

// NewGRIS creates a GRIS for a host with the given providers. The cache
// starts cold; Warm can pre-populate it.
func NewGRIS(host string, cacheTTL float64, providers []*Provider) *GRIS {
	g := &GRIS{
		Host:      host,
		CacheTTL:  cacheTTL,
		base:      ldap.NewBase(hostDN(host)),
		providers: providers,
		expiry:    make([]float64, len(providers)),
		dit:       ldap.NewDIT(),
	}
	for i := range g.expiry {
		g.expiry[i] = -1 // cold
	}
	root := ldap.NewEntry(g.base.DN())
	root.Set("objectclass", "MdsHost")
	root.Set("Mds-Host-hn", host)
	if err := g.dit.Add(root); err != nil {
		panic(err) // fresh tree cannot collide
	}
	return g
}

// Warm refreshes every provider at time now, pre-populating the cache the
// way the paper's "data always in cache" configuration did.
func (g *GRIS) Warm(now float64) QueryStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var st QueryStats
	for i := range g.providers {
		st.Add(g.refresh(i, now))
	}
	return st
}

// fresh reports whether every provider's cached data is still live at
// time now (no query-path refresh needed). Callers hold mu.
func (g *GRIS) fresh(now float64) bool {
	for i := range g.expiry {
		if now >= g.expiry[i] {
			return false
		}
	}
	return true
}

// refresh invokes provider i and upserts its entries. Callers hold mu
// exclusively.
func (g *GRIS) refresh(i int, now float64) QueryStats {
	p := g.providers[i]
	entries := p.Generate(g.Host, now)
	for _, e := range entries {
		g.dit.Upsert(e)
	}
	g.expiry[i] = now + g.CacheTTL
	return QueryStats{ProvidersInvoked: 1, ProviderForkWeight: p.ForkWeight}
}

// Query runs an LDAP search over the GRIS data at time now, refreshing
// expired provider data first. A nil filter matches everything. It
// returns the stored entries that match, not copies: they are immutable
// snapshots (a refresh swaps in new ones), so the caller reads them after
// the lock is released and must not modify them. Non-empty attrs make the
// query a "query part", which only sizes ResponseBytes as the projected
// answer; the caller projects while decoding (core.MDSAnswer). Cache-hit
// queries run under the read lock and proceed in parallel; a query that
// must refresh takes the write lock.
func (g *GRIS) Query(now float64, filter ldap.Filter, attrs []string) ([]*ldap.Entry, QueryStats) {
	return g.QueryInto(now, filter, attrs, nil)
}

// QueryInto is Query appending the entries to dst.
func (g *GRIS) QueryInto(now float64, filter ldap.Filter, attrs []string, dst []*ldap.Entry) ([]*ldap.Entry, QueryStats) {
	g.mu.RLock()
	if g.fresh(now) {
		defer g.mu.RUnlock()
		return g.search(QueryStats{}, filter, attrs, dst)
	}
	g.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	var st QueryStats
	// Re-check under the write lock: another query may have refreshed
	// the expired providers while we waited.
	for i := range g.providers {
		if now >= g.expiry[i] {
			st.Add(g.refresh(i, now))
		}
	}
	return g.search(st, filter, attrs, dst)
}

// search runs the LDAP search, appending the entries to dst, and
// accumulates its accounting into st. Callers hold mu (either mode).
func (g *GRIS) search(st QueryStats, filter ldap.Filter, attrs []string, dst []*ldap.Entry) ([]*ldap.Entry, QueryStats) {
	results, info := g.dit.SearchInto(g.base, ldap.ScopeSub, filter, dst)
	st.EntriesVisited += info.Visited
	st.EntriesReturned += len(results) - len(dst)
	st.ResponseBytes += ldap.SizeBytes(results[len(dst):], attrs)
	st.IndexHits += info.IndexHits
	if info.Scanned {
		st.ScanFallbacks++
	}
	return results, st
}

// Snapshot returns a copy of the GRIS's current entries, the payload it
// pushes to a GIIS at registration time.
func (g *GRIS) Snapshot(now float64) []*ldap.Entry {
	g.mu.RLock()
	if g.fresh(now) {
		defer g.mu.RUnlock()
		return g.snapshot()
	}
	g.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.providers {
		if now >= g.expiry[i] {
			g.refresh(i, now)
		}
	}
	return g.snapshot()
}

// snapshot clones the current entries. Callers hold mu (either mode).
func (g *GRIS) snapshot() []*ldap.Entry {
	entries, _ := g.dit.SearchInto(g.base, ldap.ScopeSub, nil, nil)
	out := make([]*ldap.Entry, len(entries))
	for i, e := range entries {
		out[i] = e.Clone()
	}
	return out
}

// String identifies the GRIS.
func (g *GRIS) String() string {
	return fmt.Sprintf("GRIS(%s, %d providers)", g.Host, len(g.providers))
}
