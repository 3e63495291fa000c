package mds

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ldap"
	"repro/internal/storage"
)

// Registration limits observed by the paper: the GIIS crashed past 500
// registered GRIS, and could serve "query all" for at most 200.
const (
	// MaxRegistrants is the hard registration cap (the paper's GIIS
	// crashed when a 501st GRIS registered).
	MaxRegistrants = 500
)

// ErrGIISOverload reports that a registration or query exceeded the GIIS's
// capacity limits, reproducing the crashes the paper ran into.
type ErrGIISOverload struct{ Msg string }

func (e ErrGIISOverload) Error() string { return "mds: giis overload: " + e.Msg }

// registration is one source's soft-state entry in the GIIS.
type registration struct {
	id     string
	src    Source
	expiry float64
	// hostDNs are the host-level subtrees this source contributed, used
	// for cleanup when the registration lapses; hostOrder keeps listing
	// deterministic.
	hostDNs   map[string]ldap.DN
	hostOrder []string
}

// GIIS is a Grid Index Information Service: the aggregate directory.
// Sources — GRIS instances or lower-level GIISs — register with it under a
// soft-state protocol (registrations expire unless renewed) and the GIIS
// caches their data, answering queries from the cache while the cache TTL
// holds (the paper sets cachettl very large so the directory
// functionality is measured alone).
//
// GIIS is safe for concurrent use. Queries answered entirely from the
// cache — no lapsed registrations, no expired source data, the
// configuration the paper's cache experiments isolate — run under a
// shared read lock and proceed in parallel; a query that must expire
// registrations or re-pull sources upgrades to the exclusive lock
// (double-checked, since another query may have done the work meanwhile).
type GIIS struct {
	Name string
	// CacheTTL governs how long cached source data stays fresh. The
	// paper's directory-server experiments set this effectively infinite.
	CacheTTL float64
	// RegistrationTTL is the soft-state lifetime of a registration.
	RegistrationTTL float64

	mu        sync.RWMutex
	dit       *ldap.DIT                // aggregated directory; guarded by mu
	regs      map[string]*registration // guarded by mu
	regOrder  []string                 // registration order; guarded by mu
	cacheFill map[string]float64       // registration id -> cache expiry; guarded by mu

	wal *storage.Log // nil for a volatile GIIS (see giis_durable.go); guarded by mu
}

// NewGIIS creates an empty GIIS.
func NewGIIS(name string, cacheTTL, registrationTTL float64) *GIIS {
	return &GIIS{
		Name:            name,
		CacheTTL:        cacheTTL,
		RegistrationTTL: registrationTTL,
		dit:             ldap.NewDIT(),
		regs:            make(map[string]*registration),
		cacheFill:       make(map[string]float64),
	}
}

// fresh reports whether the GIIS can answer at time now without mutating
// anything: no registration has lapsed and every cached subtree is still
// within its TTL. Callers hold mu.
func (g *GIIS) fresh(now float64) bool {
	for _, id := range g.regOrder {
		if now >= g.regs[id].expiry || now >= g.cacheFill[id] {
			return false
		}
	}
	return true
}

// NumRegistered reports the number of live registrations at time now.
func (g *GIIS) NumRegistered(now float64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expireAndLog(now)
	return len(g.regs)
}

// Register records (or renews) a source registration under the given
// unique id and pulls its current data into the cache. Both GRIS and GIIS
// values register, enabling the multi-level hierarchy of the paper's
// Figure 1. It fails past MaxRegistrants, as the paper's GIIS did.
func (g *GIIS) Register(id string, src Source, now float64) (QueryStats, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expireAndLog(now)
	if _, renewing := g.regs[id]; !renewing && len(g.regs) >= MaxRegistrants {
		return QueryStats{}, ErrGIISOverload{Msg: fmt.Sprintf("registration %q exceeds %d sources", id, MaxRegistrants)}
	}
	reg := g.upsertRegistration(id, now+g.RegistrationTTL)
	reg.src = src
	if err := g.wal.Append(func() []byte { return encodeUpsertRec(id, reg.expiry) }); err != nil {
		return QueryStats{}, err
	}
	return g.fill(reg, now), nil
}

// upsertRegistration creates or renews the registration entry for id —
// the shared mutation core of Register and WAL replay (replay leaves
// src nil: a detached registration whose data returns when its source
// re-registers). Callers hold mu exclusively.
func (g *GIIS) upsertRegistration(id string, expiry float64) *registration {
	reg, ok := g.regs[id]
	if !ok {
		reg = &registration{id: id, hostDNs: make(map[string]ldap.DN)}
		g.regs[id] = reg
		g.regOrder = append(g.regOrder, id)
	}
	reg.expiry = expiry
	return reg
}

// hostLevelDN returns the host-level ancestor of dn (one RDN below the
// MDS suffix), or nil when dn is at or above the suffix.
func hostLevelDN(dn ldap.DN) ldap.DN {
	hostDepth := SuffixDN.Depth() + 1
	if dn.Depth() < hostDepth {
		return nil
	}
	return ldap.DN(dn[dn.Depth()-hostDepth:])
}

// fill refreshes the cached subtree for one registration, dropping host
// subtrees the source no longer reports (a downstream resource died and
// its soft state lapsed below us). Callers hold mu exclusively.
func (g *GIIS) fill(reg *registration, now float64) QueryStats {
	var st QueryStats
	if reg.src == nil {
		// A detached registration recovered from the WAL: its source has
		// not re-registered since the restart, so there is nothing to
		// pull yet. Stamp the cache anyway — the entry holds its
		// directory slot (and counts against MaxRegistrants) until the
		// source returns or its soft state lapses.
		g.cacheFill[reg.id] = now + g.CacheTTL
		return st
	}
	entries := reg.src.Snapshot(now)
	fresh := make(map[string]ldap.DN)
	var freshOrder []string
	for _, e := range entries {
		g.dit.Upsert(e)
		st.EntriesVisited++
		if host := hostLevelDN(e.DN); host != nil {
			key := host.Norm()
			if _, ok := fresh[key]; !ok {
				fresh[key] = host
				freshOrder = append(freshOrder, key)
			}
		}
	}
	for key, dn := range reg.hostDNs {
		if _, stillThere := fresh[key]; !stillThere {
			g.dit.Delete(dn)
		}
	}
	reg.hostDNs = fresh
	reg.hostOrder = freshOrder
	g.cacheFill[reg.id] = now + g.CacheTTL
	return st
}

// expire drops registrations whose soft state lapsed, removing their
// cached subtrees — the "dynamic cleaning of dead resources" the paper
// describes — and reports how many lapsed. Callers hold mu
// exclusively.
func (g *GIIS) expire(now float64) int {
	dropped := 0
	kept := g.regOrder[:0]
	for _, id := range g.regOrder {
		reg := g.regs[id]
		if now >= reg.expiry {
			for _, dn := range reg.hostDNs {
				g.dit.Delete(dn)
			}
			delete(g.regs, id)
			delete(g.cacheFill, id)
			dropped++
			continue
		}
		kept = append(kept, id)
	}
	g.regOrder = kept
	return dropped
}

// expireAndLog drops lapsed registrations and, when the sweep removed
// anything, records it in the WAL so a reopened GIIS does not
// resurrect dead sources. Callers hold mu exclusively.
func (g *GIIS) expireAndLog(now float64) {
	if g.expire(now) > 0 {
		// The log keeps any failure; see Err.
		_ = g.wal.Append(func() []byte { return encodeExpireRec(now) })
	}
}

// Query searches the aggregated directory at time now. Expired cache
// subtrees are refreshed from their sources first (a no-op when CacheTTL
// is effectively infinite). A nil filter matches everything. Like
// GRIS.Query it returns the stored entries that match, which the caller
// must not modify, and non-empty attrs ("query part") only size
// ResponseBytes as the projected answer.
func (g *GIIS) Query(now float64, filter ldap.Filter, attrs []string) ([]*ldap.Entry, QueryStats, error) {
	//gridmon:nolint ctxflow compat entry point: pre-context callers have no deadline to propagate
	return g.QueryCtx(context.Background(), now, filter, attrs)
}

// QueryCtx is Query with a cancellation point between each registered
// source's cache refresh and before the directory search, so a caller
// abandoning a fan-heavy aggregate query stops the work mid-flight
// rather than only at the edges. It returns stored entries and sizes
// ResponseBytes by attrs, as Query does: the caller decodes the entries
// after the lock is released, which is safe because a refill swaps in
// new entries instead of editing the ones handed out. Cache-hit queries
// run under the read lock and proceed in parallel; a query that must
// expire or refill takes the write lock.
func (g *GIIS) QueryCtx(ctx context.Context, now float64, filter ldap.Filter, attrs []string) ([]*ldap.Entry, QueryStats, error) {
	return g.QueryInto(ctx, now, filter, attrs, nil)
}

// QueryInto is QueryCtx appending the entries to dst.
func (g *GIIS) QueryInto(ctx context.Context, now float64, filter ldap.Filter, attrs []string, dst []*ldap.Entry) ([]*ldap.Entry, QueryStats, error) {
	g.mu.RLock()
	if g.fresh(now) {
		defer g.mu.RUnlock()
		if err := ctx.Err(); err != nil {
			return dst, QueryStats{}, err
		}
		return g.search(QueryStats{}, filter, attrs, dst)
	}
	g.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expireAndLog(now)
	var st QueryStats
	for _, id := range g.regOrder {
		if err := ctx.Err(); err != nil {
			return dst, st, err
		}
		if now >= g.cacheFill[id] {
			st.Add(g.fill(g.regs[id], now))
		}
	}
	if err := ctx.Err(); err != nil {
		return dst, st, err
	}
	return g.search(st, filter, attrs, dst)
}

// search runs the directory search into dst (clearing the glue it drops
// past the length) and adds its accounting to st. Callers hold mu.
func (g *GIIS) search(st QueryStats, filter ldap.Filter, attrs []string, dst []*ldap.Entry) ([]*ldap.Entry, QueryStats, error) {
	results, info := g.dit.SearchInto(suffixBase, ldap.ScopeSub, filter, dst)
	// Structural glue entries materialized for tree shape are not data.
	data := results[:len(dst)]
	for _, e := range results[len(dst):] {
		if e.First("objectclass") != "MdsStructure" {
			data = append(data, e)
		}
	}
	clear(results[len(data):])
	st.EntriesVisited += info.Visited
	st.EntriesReturned += len(data) - len(dst)
	st.ResponseBytes += ldap.SizeBytes(data[len(dst):], attrs)
	st.IndexHits += info.IndexHits
	if info.Scanned {
		st.ScanFallbacks++
	}
	return data, st, nil
}

// Hosts lists hostnames currently served, in registration order (each
// source's hosts in first-contribution order is not guaranteed; within
// one registration the order follows the cached tree).
func (g *GIIS) Hosts(now float64) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expireAndLog(now)
	var out []string
	seen := make(map[string]bool)
	for _, id := range g.regOrder {
		reg := g.regs[id]
		for _, key := range reg.hostOrder {
			dn := reg.hostDNs[key]
			if _, ok := g.dit.Get(dn); !ok {
				continue
			}
			host := dn[0].Value
			if !seen[host] {
				seen[host] = true
				out = append(out, host)
			}
		}
	}
	return out
}

// String identifies the GIIS.
func (g *GIIS) String() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return fmt.Sprintf("GIIS(%s, %d registered)", g.Name, len(g.regs))
}
