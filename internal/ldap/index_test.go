package ldap

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// scanOracle is an independent reference implementation of the ScopeSub
// search: a plain depth-first walk evaluating the filter on every entry.
// It shares no code with the planner, so the differential tests below
// catch divergence in either direction.
func scanOracle(t *DIT, base DN, filter Filter) (results []*Entry, visited int) {
	var rec func(key string)
	rec = func(key string) {
		if e, ok := t.entries[key]; ok {
			visited++
			if filter == nil || filter.Matches(e) {
				results = append(results, e)
			}
		}
		for _, c := range t.children[key] {
			rec(c)
		}
	}
	if base.Depth() == 0 {
		for _, c := range t.children[""] {
			rec(c)
		}
		return results, visited
	}
	if _, ok := t.entries[base.Norm()]; !ok {
		return nil, 0
	}
	rec(base.Norm())
	return results, visited
}

// randomDIT builds a tree of nHosts host entries under two suffixes, each
// with randomized attributes drawn from a small pool so filters hit real
// value collisions (multi-valued attributes included).
func randomDIT(rng *rand.Rand, nHosts int) *DIT {
	t := NewDIT()
	classes := []string{"MdsHost", "MdsCpu", "MdsFs", "MdsNet"}
	oses := []string{"Linux", "Solaris", "AIX"}
	for i := 0; i < nHosts; i++ {
		vo := "local"
		if rng.Intn(3) == 0 {
			vo = "remote"
		}
		dn := MustParseDN(fmt.Sprintf("Mds-Host-hn=h%03d, Mds-Vo-name=%s, o=grid", i, vo))
		e := NewEntry(dn)
		e.Set("objectclass", classes[rng.Intn(len(classes))])
		e.Set("Mds-Cpu-Free-1minX100", fmt.Sprintf("%d", rng.Intn(100)))
		if rng.Intn(2) == 0 {
			e.Set("Mds-Os-name", oses[rng.Intn(len(oses))])
		}
		if rng.Intn(4) == 0 {
			// Multi-valued attribute: postings must dedupe entries.
			e.Set("Mds-Service", "ldap", "gris")
		}
		if rng.Intn(5) == 0 {
			e.Set("Mds-Memory-Ram-Total-freeMB", fmt.Sprintf("%d", 64+rng.Intn(1000)))
		}
		if err := t.Add(e); err != nil {
			panic(err)
		}
	}
	return t
}

// filterCorpus mixes indexable shapes (equality, presence, ranges,
// AND/OR) with scan-only shapes (substrings, NOT, mixed trees).
var filterCorpus = []string{
	"(objectclass=MdsHost)",
	"(objectclass=mdshost)", // case-insensitive equality
	"(objectclass=*)",
	"(nosuchattr=*)",
	"(nosuchattr=value)",
	"(Mds-Cpu-Free-1minX100>=50)",
	"(Mds-Cpu-Free-1minX100<=10)",
	"(Mds-Os-name>=Linux)", // string-ordered range
	"(&(objectclass=MdsHost)(Mds-Cpu-Free-1minX100>=50))",
	"(&(objectclass=MdsHost)(Mds-Cpu-Free-1minX100>=50)(Mds-Os-name=Linux))",
	"(|(objectclass=MdsHost)(objectclass=MdsCpu))",
	"(|(Mds-Cpu-Free-1minX100<=5)(Mds-Cpu-Free-1minX100>=95))",
	"(&(|(objectclass=MdsHost)(objectclass=MdsFs))(Mds-Service=ldap))",
	"(Mds-Host-hn=h0*)",                              // substring: scan path
	"(!(objectclass=MdsHost))",                       // NOT: scan path
	"(&(objectclass=MdsHost)(Mds-Host-hn=*1*))",      // indexable + substring conjunct
	"(&(Mds-Host-hn=*1*)(Mds-Cpu-Free-1minX100>=0))", // substring first
	"(|(objectclass=MdsHost)(Mds-Host-hn=h0*))",      // OR with scan branch: scan
	"(&(objectclass=MdsStructure)(objectclass=*))",
}

func dnList(entries []*Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.DN.Norm()
	}
	return out
}

func assertSameSearch(t *testing.T, dit *DIT, base DN, src string) {
	t.Helper()
	filter := MustParseFilter(src)
	got, info := dit.SearchInto(NewBase(base), ScopeSub, filter, nil)
	want, visited := scanOracle(dit, base, filter)
	gotDNs, wantDNs := dnList(got), dnList(want)
	if strings.Join(gotDNs, "\n") != strings.Join(wantDNs, "\n") {
		t.Fatalf("filter %s base %q:\nindexed: %v\noracle:  %v", src, base, gotDNs, wantDNs)
	}
	if info.Visited != visited {
		t.Fatalf("filter %s base %q: Visited = %d, oracle visited %d", src, base, info.Visited, visited)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("filter %s: result %d is a different *Entry than the oracle's", src, i)
		}
	}
}

// TestSearchDifferential holds the indexed path to byte-identical results
// (same entries, same order, same visited accounting) with the scan
// oracle over randomized trees and the whole filter corpus, from both the
// root and a suffix base.
func TestSearchDifferential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dit := randomDIT(rng, 120)
		bases := []DN{nil, MustParseDN("Mds-Vo-name=local, o=grid"), MustParseDN("o=grid"),
			MustParseDN("Mds-Vo-name=nosuch, o=grid")}
		for _, base := range bases {
			for _, src := range filterCorpus {
				assertSameSearch(t, dit, base, src)
			}
		}
	}
}

// TestSearchDifferentialAfterChurn exercises the index maintenance:
// upserts that change attribute values, deletes of whole subtrees, and
// re-adds must leave the postings exactly consistent with the tree.
func TestSearchDifferentialAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dit := randomDIT(rng, 100)
	for round := 0; round < 30; round++ {
		switch rng.Intn(3) {
		case 0: // upsert with fresh attribute values
			i := rng.Intn(100)
			dn := MustParseDN(fmt.Sprintf("Mds-Host-hn=h%03d, Mds-Vo-name=local, o=grid", i))
			e := NewEntry(dn)
			e.Set("objectclass", "MdsHost")
			e.Set("Mds-Cpu-Free-1minX100", fmt.Sprintf("%d", rng.Intn(100)))
			dit.Upsert(e)
		case 1: // delete a host subtree (may be absent: Delete returns 0)
			i := rng.Intn(100)
			vo := "local"
			if rng.Intn(2) == 0 {
				vo = "remote"
			}
			dit.Delete(MustParseDN(fmt.Sprintf("Mds-Host-hn=h%03d, Mds-Vo-name=%s, o=grid", i, vo)))
		case 2: // add a brand-new entry
			dn := MustParseDN(fmt.Sprintf("Mds-Host-hn=x%03d, Mds-Vo-name=local, o=grid", round))
			e := NewEntry(dn)
			e.Set("objectclass", "MdsHost")
			e.Set("Mds-Cpu-Free-1minX100", fmt.Sprintf("%d", rng.Intn(100)))
			dit.Upsert(e)
		}
		for _, src := range filterCorpus {
			assertSameSearch(t, dit, nil, src)
		}
	}
}

// TestSearchIndexStats pins the fast-path accounting: an indexable filter
// reports IndexHits with Scanned false, a substring filter the reverse,
// and both report the identical logical Visited count.
func TestSearchIndexStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dit := randomDIT(rng, 50)
	_, indexed := dit.SearchInto(NewBase(nil), ScopeSub, MustParseFilter("(objectclass=MdsHost)"), nil)
	if indexed.Scanned {
		t.Fatal("equality filter took the scan path")
	}
	if indexed.IndexHits == 0 {
		t.Fatal("equality filter reported no index hits")
	}
	_, scanned := dit.SearchInto(NewBase(nil), ScopeSub, MustParseFilter("(Mds-Host-hn=h0*)"), nil)
	if !scanned.Scanned || scanned.IndexHits != 0 {
		t.Fatalf("substring filter should scan: %+v", scanned)
	}
	if indexed.Visited != scanned.Visited {
		t.Fatalf("logical visited differs across paths: %d vs %d", indexed.Visited, scanned.Visited)
	}
	if indexed.Visited != dit.Len() {
		t.Fatalf("whole-tree Visited = %d, want %d entries", indexed.Visited, dit.Len())
	}
}

// TestSearchScratchComesBackEmpty: the scratch an indexed search plans,
// unions, verifies and orders its candidates in goes back to the pool
// with nothing handed out and no candidate listed, and a search lent
// the same slice from search to search returns what a new one does,
// allocating nothing once both have grown.
func TestSearchScratchComesBackEmpty(t *testing.T) {
	dit := randomDIT(rand.New(rand.NewSource(5)), 40)
	for _, src := range []string{
		"(|(objectclass=MdsCpu)(objectclass=MdsHost))",
		"(&(objectclass=MdsCpu)(Mds-Cpu-Free-1minX100>=50))",
		"(|(Mds-Cpu-Free-1minX100<=10)(&(objectclass=MdsHost)(!(Mds-Host-hn=h1*))))",
	} {
		f := MustParseFilter(src)
		sc := new(searchScratch)
		plan, _, ok := dit.planFilter(f, sc)
		if !ok {
			t.Fatalf("%s: not planned", src)
		}
		got, _ := dit.searchIndexed("", plan, f, sc, nil)
		sc.release()
		if sc.used != 0 || len(sc.ids) != 0 {
			t.Errorf("%s: the scratch came back with %d words handed out and %d ids", src, sc.used, len(sc.ids))
		}
		want, _ := scanOracle(dit, nil, f)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, the scan finds %d", src, len(got), len(want))
		}
		var lent []*Entry
		for i := 0; i < 3; i++ {
			lent, _ = dit.SearchInto(NewBase(nil), ScopeSub, f, lent[:0])
		}
		if !slices.Equal(lent, want) {
			t.Fatalf("%s: a lent search found %d entries, the scan %d", src, len(lent), len(want))
		}
		if !raceEnabled {
			if n := testing.AllocsPerRun(50, func() { lent, _ = dit.SearchInto(NewBase(nil), ScopeSub, f, lent[:0]) }); n != 0 {
				t.Errorf("%s: %.0f allocs per lent search, want 0", src, n)
			}
		}
	}
}
