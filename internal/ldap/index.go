package ldap

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// The DIT maintains attribute indexes over every entry: each entry gets a
// small integer id, and every (attribute, value) pair keeps a bitset of
// the ids carrying it (the equality index) alongside a presence bitset.
// Add, Upsert and Delete keep the postings current. The filter planner
// below serves equality, presence and >=/<= assertions from these
// postings — candidate sets combine with word-level AND/OR — instead of
// walking the subtree; filters it cannot plan (substring wildcards, NOT)
// fall back to the scan in Search. Range terms are answered by testing
// each *distinct* value of the attribute — O(distinct values) instead of
// O(entries) — with the same comparison the scan uses, so the
// two paths agree on every entry.
//
// Work accounting: SearchInfo.Visited always reports the logical scan
// cost (the number of entries a subtree walk would examine), identical on
// both paths, so the testbed's CPU model — calibrated against the 2003
// systems, which did scan — is unchanged. IndexHits reports the
// candidates the postings produced when the fast path ran.

// bitset is a growable set of small non-negative ints.
type bitset []uint64

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// with returns b with bit i set, growing as needed.
func (b bitset) with(i int) bitset {
	w := i >> 6
	for len(b) <= w {
		b = append(b, 0)
	}
	b[w] |= 1 << uint(i&63)
	return b
}

func (b bitset) without(i int) {
	w := i >> 6
	if w < len(b) {
		b[w] &^= 1 << uint(i&63)
	}
}

// and intersects o into b in place (b is truncated to o's length).
func (b bitset) and(o bitset) bitset {
	if len(o) < len(b) {
		b = b[:len(o)]
	}
	for i := range b {
		b[i] &= o[i]
	}
	return b
}

// or unions o into b, growing as needed.
func (b bitset) or(o bitset) bitset {
	for len(b) < len(o) {
		b = append(b, 0)
	}
	for i, w := range o {
		b[i] |= w
	}
	return b
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// posting is the id set for one attribute value (or for presence), with
// its cardinality maintained so empty postings can be dropped.
type posting struct {
	bits bitset
	n    int
}

func (p *posting) add(id int) {
	if !p.bits.has(id) {
		p.bits = p.bits.with(id)
		p.n++
	}
}

func (p *posting) remove(id int) {
	if p.bits.has(id) {
		p.bits.without(id)
		p.n--
	}
}

// attrIndex holds the postings for one attribute.
type attrIndex struct {
	// values maps a lowercased attribute value to the entries carrying it.
	values map[string]*posting
	// present holds the entries carrying the attribute with >=1 value.
	present posting
}

// SearchInfo describes how a search was answered.
type SearchInfo struct {
	// Visited is the logical scan cost: the number of entries the
	// equivalent subtree walk examines. It is identical whether or not
	// the index served the query, so simulation work accounting is
	// independent of the execution strategy.
	Visited int
	// IndexHits counts the candidate entries the index postings produced
	// (before subtree restriction and verification); zero on the scan
	// path.
	IndexHits int
	// Scanned reports that the filter fell back to the subtree walk.
	Scanned bool
}

// allocID assigns an entry id, reusing freed slots so long-lived trees
// with churn (a GIIS expiring registrations) keep their bitsets compact.
func (t *DIT) allocID(key string, e *Entry) int {
	var id int
	if n := len(t.freeIDs); n > 0 {
		id = t.freeIDs[n-1]
		t.freeIDs = t.freeIDs[:n-1]
		t.byID[id] = e
		t.keyByID[id] = key
	} else {
		id = len(t.byID)
		t.byID = append(t.byID, e)
		t.keyByID = append(t.keyByID, key)
	}
	t.ids[key] = id
	return id
}

func (t *DIT) freeID(key string) {
	id, ok := t.ids[key]
	if !ok {
		return
	}
	delete(t.ids, key)
	t.byID[id] = nil
	t.keyByID[id] = ""
	t.freeIDs = append(t.freeIDs, id)
}

// indexEntry records e's attribute values under id, snapshotting them in
// t.indexed so a later unindex removes exactly what was added even if the
// caller mutated the entry in place afterwards.
func (t *DIT) indexEntry(id int, e *Entry) {
	snap := make(map[string][]string, len(e.order))
	for _, attr := range e.order {
		vals := e.attrs[attr].values
		if len(vals) == 0 {
			continue
		}
		ix := t.idx[attr]
		if ix == nil {
			ix = &attrIndex{values: make(map[string]*posting)}
			t.idx[attr] = ix
		}
		ix.present.add(id)
		lowered := make([]string, len(vals))
		for i, v := range vals {
			lv := strings.ToLower(v)
			lowered[i] = lv
			p := ix.values[lv]
			if p == nil {
				p = &posting{}
				ix.values[lv] = p
			}
			p.add(id)
		}
		snap[attr] = lowered
	}
	t.indexed[id] = snap
}

// unindexEntry removes id's postings using the snapshot taken at index
// time.
func (t *DIT) unindexEntry(id int) {
	snap, ok := t.indexed[id]
	if !ok {
		return
	}
	for attr, vals := range snap {
		ix := t.idx[attr]
		if ix == nil {
			continue
		}
		ix.present.remove(id)
		for _, lv := range vals {
			if p := ix.values[lv]; p != nil {
				p.remove(id)
				if p.n == 0 {
					delete(ix.values, lv)
				}
			}
		}
	}
	delete(t.indexed, id)
}

// bumpCounts adjusts the subtree entry counts of dn and every ancestor up
// to and including the root.
func (t *DIT) bumpCounts(dn DN, delta int) {
	for d := dn; ; d = d.Parent() {
		t.counts[d.Norm()] += delta
		if len(d) == 0 {
			break
		}
	}
}

// ensureOrdinals lazily assigns every entry its position in the global
// depth-first traversal. A subtree's DFS order is a contiguous slice of
// the global order, so sorting index candidates by ordinal reproduces
// exactly the order the scan returns. Structure changes (Add, Delete)
// invalidate the ordinals; value-only Upserts do not.
//
// The rebuild is double-checked so concurrent read-locked searches (the
// facade's parallel query path) can trigger it safely: the valid flag is
// an atomic — its store after the rebuild publishes the ords slice to
// lock-free fast-path readers — and ordMu serializes the rebuild itself.
// Structural writers run exclusively (the services' write locks), so
// clearing the flag never races a reader holding the slice.
func (t *DIT) ensureOrdinals() []int {
	if t.ordsValid.Load() {
		return t.ords
	}
	t.ordMu.Lock()
	defer t.ordMu.Unlock()
	if t.ordsValid.Load() {
		return t.ords
	}
	if cap(t.ords) < len(t.byID) {
		t.ords = make([]int, len(t.byID))
	}
	t.ords = t.ords[:len(t.byID)]
	n := 0
	var rec func(key string)
	rec = func(key string) {
		if id, ok := t.ids[key]; ok {
			t.ords[id] = n
			n++
		}
		for _, c := range t.children[key] {
			rec(c)
		}
	}
	for _, c := range t.children[""] {
		rec(c)
	}
	t.ordsValid.Store(true)
	return t.ords
}

// filterPlan is the index's answer for one filter: bits holds the
// candidate entry ids. When exact is true the candidates equal the
// filter's match set and no per-entry verification is needed; otherwise
// they are a superset (some conjuncts were not indexable) and each
// candidate is re-checked against the full filter.
type filterPlan struct {
	bits  bitset
	exact bool
}

// searchScratch is one indexed search's pooled memory: the words its
// bitsets are cut from and the candidate ids it orders. It holds no entry.
type searchScratch struct {
	words []uint64
	used  int // words handed out to this search
	ids   []int
}

var scratches = sync.Pool{New: func() any { return new(searchScratch) }}

// bitset cuts a zeroed bitset of n words from s, moving to a larger array
// when s runs out (the bitsets already cut keep the old one).
func (s *searchScratch) bitset(n int) bitset {
	if s.used+n > len(s.words) {
		s.words, s.used = make([]uint64, 2*(len(s.words)+n)), 0
	}
	b := s.words[s.used : s.used+n : s.used+n]
	s.used += n
	clear(b)
	return b
}

// release empties s and returns it to the pool.
func (s *searchScratch) release() {
	s.used, s.ids = 0, s.ids[:0]
	scratches.Put(s)
}

// planFilter maps a filter to a candidate plan. ok is false when the
// filter (or every usable part of it) is not indexable and the caller
// must scan. plan.bits may alias live postings when owned is false;
// owned bitsets come from sc, as wide as the id space.
func (t *DIT) planFilter(f Filter, sc *searchScratch) (plan filterPlan, owned, ok bool) {
	width := (len(t.byID) + 63) / 64
	switch f := f.(type) {
	case *cmpFilter:
		ix := t.idx[f.key]
		switch f.op {
		case "=", "~=":
			if f.value == "*" {
				if ix == nil {
					return filterPlan{exact: true}, true, true
				}
				return filterPlan{bits: ix.present.bits, exact: true}, false, true
			}
			if f.parts != nil {
				return filterPlan{}, false, false // substring pattern: scan
			}
			if ix == nil {
				return filterPlan{exact: true}, true, true
			}
			p := ix.values[f.lower]
			if p == nil {
				return filterPlan{exact: true}, true, true
			}
			return filterPlan{bits: p.bits, exact: true}, false, true
		case ">=", "<=":
			if ix == nil {
				return filterPlan{exact: true}, true, true
			}
			// Test each distinct value once — O(distinct values) instead
			// of O(entries) — with the same orders the scan path uses.
			bits := sc.bitset(width)
			for v, p := range ix.values {
				if f.orders(v) {
					bits = bits.or(p.bits)
				}
			}
			return filterPlan{bits: bits, exact: true}, true, true
		}
		return filterPlan{}, false, false
	case andFilter:
		// Intersect the indexable conjuncts; non-indexable ones are
		// enforced by the verification pass, so any indexable conjunct
		// yields a sound superset.
		var out filterPlan
		outOwned, planned := false, false
		out.exact = true
		for _, sub := range f.subs {
			p, pOwned, ok := t.planFilter(sub, sc)
			if !ok {
				out.exact = false
				continue
			}
			out.exact = out.exact && p.exact
			if !planned {
				out.bits, outOwned, planned = p.bits, pOwned, true
				continue
			}
			if !outOwned {
				own := sc.bitset(width)
				copy(own, out.bits)
				out.bits, outOwned = own[:len(out.bits)], true
			}
			out.bits = out.bits.and(p.bits)
		}
		if !planned {
			return filterPlan{}, false, false
		}
		return out, outOwned, true
	case orFilter:
		// Every branch must be indexable, or matches could be missed.
		out := filterPlan{bits: sc.bitset(width), exact: true}
		for _, sub := range f.subs {
			p, _, ok := t.planFilter(sub, sc)
			if !ok {
				return filterPlan{}, false, false
			}
			out.exact = out.exact && p.exact
			out.bits = out.bits.or(p.bits)
		}
		return out, true, true
	}
	return filterPlan{}, false, false // notFilter, unknown: scan
}

// searchIndexed answers a ScopeSub search from a candidate plan: restrict
// to the base subtree, verify against the full filter when the plan is
// inexact, and order by global DFS position, appending to dst.
func (t *DIT) searchIndexed(baseKey string, plan filterPlan, filter Filter, sc *searchScratch, dst []*Entry) ([]*Entry, SearchInfo) {
	info := SearchInfo{IndexHits: plan.bits.count()}
	info.Visited = t.counts[baseKey]
	ids := sc.ids[:0]
	for wi, w := range plan.bits {
		for ; w != 0; w &= w - 1 {
			id := wi<<6 + bits.TrailingZeros64(w)
			if baseKey != "" && !inSubtree(t.keyByID[id], baseKey) {
				continue
			}
			if !plan.exact && !filter.Matches(t.byID[id]) {
				continue
			}
			ids = append(ids, id)
		}
	}
	sortIDsByOrdinal(ids, t.ensureOrdinals())
	for _, id := range ids {
		dst = append(dst, t.byID[id])
	}
	sc.ids = ids
	return dst, info
}

// inSubtree reports whether the entry keyed k is the one keyed baseKey
// or lies under it: k is baseKey or ends in ","+baseKey.
func inSubtree(k, baseKey string) bool {
	if len(k) == len(baseKey) {
		return k == baseKey
	}
	cut := len(k) - len(baseKey) - 1
	return cut >= 0 && k[cut] == ',' && k[cut+1:] == baseKey
}

// sortIDsByOrdinal orders entry ids by DFS position. Ordinals are unique
// (and small), so the comparison can subtract without overflow and needs
// no stability.
func sortIDsByOrdinal(ids []int, ord []int) {
	slices.SortFunc(ids, func(a, b int) int { return ord[a] - ord[b] })
}
