package ldap

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Scope selects how much of the tree a search covers, mirroring LDAP.
type Scope int

const (
	// ScopeBase searches only the base entry.
	ScopeBase Scope = iota
	// ScopeOne searches the base entry's immediate children.
	ScopeOne
	// ScopeSub searches the base entry and its whole subtree.
	ScopeSub
)

func (s Scope) String() string {
	switch s {
	case ScopeBase:
		return "base"
	case ScopeOne:
		return "one"
	case ScopeSub:
		return "sub"
	}
	return "invalid"
}

// DIT is a Directory Information Tree — the in-memory backend a GRIS or
// GIIS serves from. It is not safe for concurrent mutation; the services
// built on it serialize access the way a single slapd backend does.
//
// Every entry is indexed by attribute value on insert (see index.go), so
// equality, presence and range filters are served from postings instead
// of subtree walks. Entries belong to the tree once added: mutating an
// Entry in place after Add leaves the index stale — replace it with
// Upsert instead.
type DIT struct {
	entries  map[string]*Entry   // normalized DN -> entry
	children map[string][]string // normalized parent DN -> child keys, insertion order

	ids     map[string]int // entry key -> id
	byID    []*Entry       // id -> entry (nil when freed)
	keyByID []string       // id -> entry key
	freeIDs []int
	idx     map[string]*attrIndex       // lowercase attr -> postings
	indexed map[int]map[string][]string // id -> indexed value snapshot
	counts  map[string]int              // normalized DN -> subtree entry count

	// The DFS ordinals are the one piece of state a read path maintains
	// lazily, so they are the one piece guarded for concurrent readers:
	// ordMu serializes rebuilds and ordsValid publishes them (see
	// ensureOrdinals). All other mutation requires external exclusion.
	ordMu     sync.Mutex
	ords      []int // id -> global DFS position; guarded by ordMu
	ordsValid atomic.Bool
}

// NewDIT returns an empty tree containing only the implicit root.
func NewDIT() *DIT {
	return &DIT{
		entries:  make(map[string]*Entry),
		children: make(map[string][]string),
		ids:      make(map[string]int),
		idx:      make(map[string]*attrIndex),
		indexed:  make(map[int]map[string][]string),
		counts:   make(map[string]int),
	}
}

// Len reports the number of entries.
func (t *DIT) Len() int { return len(t.entries) }

// Add inserts an entry. The parent must already exist unless the entry is
// a suffix (depth-1) entry or its parent chain is missing entirely — MDS
// creates suffix entries like "Mds-Vo-name=local, o=grid" directly, so any
// missing ancestors are created as empty structural entries.
func (t *DIT) Add(e *Entry) error {
	key := e.DN.Norm()
	if key == "" {
		return fmt.Errorf("ldap: cannot add entry with empty DN")
	}
	if _, exists := t.entries[key]; exists {
		return fmt.Errorf("ldap: entry %q already exists", e.DN)
	}
	// Materialize missing ancestors as structural glue entries.
	for depth := 1; depth < e.DN.Depth(); depth++ {
		anc := DN(e.DN[e.DN.Depth()-depth:])
		if _, ok := t.entries[anc.Norm()]; !ok {
			glue := NewEntry(anc)
			glue.Set("objectclass", "MdsStructure")
			t.link(glue)
		}
	}
	t.link(e)
	return nil
}

func (t *DIT) link(e *Entry) {
	key := e.DN.Norm()
	e.memoize()
	t.entries[key] = e
	parent := e.DN.Parent().Norm()
	t.children[parent] = append(t.children[parent], key)
	t.indexEntry(t.allocID(key, e), e)
	t.bumpCounts(e.DN, 1)
	t.ordsValid.Store(false)
}

// Upsert inserts or replaces the entry at its DN. Replacement swaps the
// stored *Entry pointer rather than mutating the old entry in place, so
// a result set handed out before the Upsert keeps reading a consistent
// snapshot — the property the concurrent query path relies on when a
// refresh (under the owning service's write lock) overlaps a caller
// still decoding the previous answer.
func (t *DIT) Upsert(e *Entry) {
	key := e.DN.Norm()
	if _, ok := t.entries[key]; ok {
		// Keep tree links, replace content. Structure is unchanged so the
		// DFS ordinals survive; only the value postings are refreshed.
		id := t.ids[key]
		t.unindexEntry(id)
		fresh := e.Clone()
		fresh.memoize()
		t.entries[key] = fresh
		t.byID[id] = fresh
		t.indexEntry(id, fresh)
		return
	}
	if err := t.Add(e); err != nil {
		// Add only fails for duplicates (checked) or empty DN.
		panic(err)
	}
}

// Get returns the entry at dn.
func (t *DIT) Get(dn DN) (*Entry, bool) {
	e, ok := t.entries[dn.Norm()]
	return e, ok
}

// Delete removes the entry at dn and its entire subtree, returning the
// number of entries removed.
func (t *DIT) Delete(dn DN) int {
	key := dn.Norm()
	if _, ok := t.entries[key]; !ok {
		return 0
	}
	removed := 0
	var rec func(k string)
	rec = func(k string) {
		for _, c := range t.children[k] {
			rec(c)
		}
		delete(t.children, k)
		if _, ok := t.entries[k]; ok {
			delete(t.entries, k)
			t.unindexEntry(t.ids[k])
			t.freeID(k)
			delete(t.counts, k)
			removed++
		}
	}
	rec(key)
	for d := dn.Parent(); ; d = d.Parent() {
		t.counts[d.Norm()] -= removed
		if len(d) == 0 {
			break
		}
	}
	t.ordsValid.Store(false)
	// Unlink from parent.
	parent := dn.Parent().Norm()
	kids := t.children[parent]
	for i, c := range kids {
		if c == key {
			t.children[parent] = append(kids[:i], kids[i+1:]...)
			break
		}
	}
	return removed
}

// A Base is a search base normalized once, for a service that searches
// from the same entry on every query.
type Base struct {
	dn  DN
	key string // dn.Norm()
}

// NewBase normalizes dn as a search base.
func NewBase(dn DN) Base { return Base{dn: dn, key: dn.Norm()} }

// DN returns the base's DN.
func (b Base) DN() DN { return b.dn }

// Search walks the tree from base with the given scope and returns entries
// matching filter, in deterministic (depth-first insertion) order. A nil
// filter matches everything. The returned visited count is the logical
// scan cost — the number of entries a subtree walk examines, the quantity
// the testbed charges CPU for — and is identical whether the filter was
// served from the index or by scanning (see SearchInto).
func (t *DIT) Search(base DN, scope Scope, filter Filter) ([]*Entry, int) {
	results, info := t.SearchInto(NewBase(base), scope, filter, nil)
	return results, info.Visited
}

// SearchInto is Search from a normalized base, appending the results to
// dst, with execution-path accounting. Subtree searches with an indexable
// filter (equality, presence, >=/<= and AND/OR combinations of them —
// see planFilter) are answered from attribute postings in pooled
// scratch; everything else walks the subtree. Both paths return the same
// entries in the same depth-first order and the same Visited count;
// Info.IndexHits and Info.Scanned record which path ran.
func (t *DIT) SearchInto(base Base, scope Scope, filter Filter, dst []*Entry) ([]*Entry, SearchInfo) {
	baseEntry, ok := t.entries[base.key]
	if !ok && base.dn.Depth() > 0 {
		return dst, SearchInfo{}
	}
	if scope == ScopeSub && filter != nil {
		sc := scratches.Get().(*searchScratch)
		defer sc.release()
		if plan, _, planned := t.planFilter(filter, sc); planned {
			return t.searchIndexed(base.key, plan, filter, sc, dst)
		}
	}
	w := walk{t: t, filter: filter, results: dst}
	switch scope {
	case ScopeBase:
		if baseEntry != nil {
			w.match(baseEntry)
		}
	case ScopeOne:
		for _, k := range t.children[base.key] {
			if e, ok := t.entries[k]; ok {
				w.match(e)
			}
		}
	case ScopeSub:
		if base.dn.Depth() == 0 {
			// Whole tree: every suffix under the root.
			for _, c := range t.children[""] {
				w.subtree(c)
			}
		} else {
			w.subtree(base.key)
		}
	}
	return w.results, SearchInfo{Visited: w.visited, Scanned: true}
}

// walk is one scanning search.
type walk struct {
	t       *DIT
	filter  Filter
	results []*Entry
	visited int
}

func (w *walk) match(e *Entry) {
	w.visited++
	if w.filter == nil || w.filter.Matches(e) {
		w.results = append(w.results, e)
	}
}

// subtree examines the entry keyed key and its subtree, depth first.
func (w *walk) subtree(key string) {
	if e, ok := w.t.entries[key]; ok {
		w.match(e)
	}
	for _, c := range w.t.children[key] {
		w.subtree(c)
	}
}

// SizeBytes is the LDIF size of a result set projected onto attrs (the
// whole entries when attrs is empty; see Entry.Keeps).
func SizeBytes(entries []*Entry, attrs []string) int {
	n := 0
	for _, e := range entries {
		n += e.ProjectedSizeBytes(attrs) + 1
	}
	return n
}
