package ldap

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The oracles below are the bodies Entry had while SizeBytes still meant
// "build the LDIF, take its length" and every lookup went through
// strings.ToLower. They stay as the reference the counted size, the
// memoized renderings and the stack-folded lookups are held to.

func oracleDNString(d DN) string {
	parts := make([]string, len(d))
	for i, r := range d {
		parts[i] = r.Attr + "=" + r.Value
	}
	return strings.Join(parts, ", ")
}

func oracleLDIF(e *Entry) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dn: %s\n", oracleDNString(e.DN))
	for _, k := range e.order {
		av := e.attrs[k]
		for _, v := range av.values {
			fmt.Fprintf(&sb, "%s: %s\n", av.name, v)
		}
	}
	return sb.String()
}

func oracleGet(e *Entry, attr string) []string {
	if av, ok := e.attrs[strings.ToLower(attr)]; ok {
		return av.values
	}
	return nil
}

func oracleSortedAttributes(e *Entry) []string {
	out := e.Attributes()
	sort.Slice(out, func(i, j int) bool {
		return strings.ToLower(out[i]) < strings.ToLower(out[j])
	})
	return out
}

// checkEntry holds every rendering and lookup of e to the oracles.
func checkEntry(t *testing.T, e *Entry, probes []string) {
	t.Helper()
	want := oracleLDIF(e)
	if got := e.LDIF(); got != want {
		t.Fatalf("LDIF() = %q, oracle %q", got, want)
	}
	if got := e.SizeBytes(); got != len(want) {
		t.Fatalf("SizeBytes() = %d, len(oracle LDIF) = %d for %q", got, len(want), want)
	}
	if got, want := e.DNString(), oracleDNString(e.DN); got != want || e.DN.String() != want {
		t.Fatalf("DNString() = %q, DN.String() = %q, oracle %q", got, e.DN.String(), want)
	}
	if got, want := e.SortedAttributes(), oracleSortedAttributes(e); !equalStrings(got, want) {
		t.Fatalf("SortedAttributes() = %q, oracle %q", got, want)
	}
	for _, p := range probes {
		if got, want := e.Get(p), oracleGet(e, p); !equalStrings(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Get(%q) = %q, the ToLower key gives %q", p, got, want)
		}
	}
	for i := 0; i < e.Len(); i++ {
		name, values := e.At(i)
		if name != e.Attributes()[i] || !equalStrings(values, oracleGet(e, name)) {
			t.Fatalf("At(%d) = %q %q, want %q %q", i, name, values, e.Attributes()[i], oracleGet(e, name))
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkProjection holds the in-place projection of entries onto attrs —
// Keeps, ProjectedSizeBytes and SizeBytes(entries, attrs) — to the
// copies the ProjectAll oracle builds.
func checkProjection(t *testing.T, entries []*Entry, attrs []string) {
	t.Helper()
	copies := ProjectAll(entries, attrs)
	if got, want := SizeBytes(entries, attrs), SizeBytes(copies, nil); got != want {
		t.Fatalf("SizeBytes(entries, %q) = %d, the ProjectAll copies measure %d", attrs, got, want)
	}
	for i, e := range entries {
		var kept []string
		for j := 0; j < e.Len(); j++ {
			if e.Keeps(j, attrs) {
				name, _ := e.At(j)
				kept = append(kept, name)
			}
		}
		if want := copies[i].Attributes(); !equalStrings(kept, want) {
			t.Fatalf("projecting %q onto %q keeps %q, ProjectAll %q", e.Attributes(), attrs, kept, want)
		}
		if got, want := e.ProjectedSizeBytes(attrs), copies[i].SizeBytes(); got != want {
			t.Fatalf("ProjectedSizeBytes(%q) = %d, the ProjectAll copy measures %d", attrs, got, want)
		}
	}
}

// FuzzEntrySize: entries built from arbitrary names and values —
// multi-valued, empty, mixed-case, non-ASCII, longer than the fold
// buffer — measure as long as their LDIF and answer lookups in any
// spelling exactly as the strings.ToLower path did; the same holds for
// the copy a DIT stores (memoized) and after the stored copy is edited.
// Projected onto attribute lists cut from the same fuzzed strings (mixed
// case, duplicates, "", nil versus empty, names that match nothing, 'ſ',
// the Kelvin sign, 'İ', invalid UTF-8), an entry keeps and measures
// exactly what a ProjectAll copy of it holds.
func FuzzEntrySize(f *testing.F) {
	f.Add("objectclass", "MdsCpu", "Mds-Cpu-Free-1minX100", "", "lucky7")
	f.Add("ObjectClass", "a", "OBJECTCLASS", "b", "h")
	f.Add("Émile", "é", "éMILE", "ü", "hôte")
	f.Add("K", "kelvin", "k", "plain", "x")
	f.Add(strings.Repeat("LongAttributeName", 5), "v", "İ", "dotted", "y")
	f.Add("", "", "", "", "")
	f.Add("a: b", "c\nd", "e=f", ", ", "g, h")
	f.Add("ſ", "S", "K", "k", "İ")
	f.Add("s", "ſ", "K", "K", "i")
	f.Add("\xff", "\xc5", "İ", "\xc4\xb0x", "I")
	f.Fuzz(func(t *testing.T, n1, v1, n2, v2, host string) {
		dn := DN{{Attr: "Mds-Device-Group-name", Value: v2}, {Attr: "Mds-Host-hn", Value: host}, {Attr: "o", Value: "grid"}}
		e := NewEntry(dn)
		e.Set(n1, v1)
		e.Add(n2, v2)
		e.Add(n1, v1+v2) // multi-valued (or a third value when n1 folds onto n2)
		e.Set("Empty")   // present, no values
		e.Set("objectClass", "Fuzz")
		probes := []string{n1, n2, strings.ToUpper(n1), strings.ToLower(n2), strings.ToUpper(n2[:len(n2)/2]) + n2[len(n2)/2:], "objectclass", "EMPTY", "nosuch", ""}
		checkEntry(t, e, probes)

		dit := NewDIT()
		if err := dit.Add(e.Clone()); err != nil {
			t.Fatal(err)
		}
		stored, ok := dit.Get(dn)
		if !ok {
			t.Fatalf("stored entry %q not found", dn)
		}
		checkEntry(t, stored, probes)
		for _, attrs := range [][]string{
			nil, {}, {""}, {n1}, {n2, n2},
			{strings.ToUpper(n1), strings.ToLower(n2)},
			{strings.ToUpper(n2), "objectclass", "nosuch"},
			{v1, v2, host},
			{"OBJECTCLASS", "empty", "Empty"},
		} {
			checkProjection(t, []*Entry{e, stored}, attrs)
		}
		stored.Add(n2, "later")
		stored.Set("fresh", v1)
		checkEntry(t, stored, probes)
		dit.Upsert(e)
		stored, _ = dit.Get(dn)
		checkEntry(t, stored, probes)
	})
}

// TestRandomDITSizes runs the same checks over the randomized tree the
// index differential tests search, holds the result-set size to the sum
// of the oracle's entry sizes, and holds its projections to ProjectAll.
func TestRandomDITSizes(t *testing.T) {
	dit := randomDIT(rand.New(rand.NewSource(11)), 120)
	all, _ := dit.Search(nil, ScopeSub, nil)
	probes := []string{"objectclass", "OBJECTCLASS", "Mds-Cpu-Free-1minX100", "mds-os-name", "Mds-Service", "nosuch"}
	want := 0
	for _, e := range all {
		checkEntry(t, e, probes)
		want += len(oracleLDIF(e)) + 1
	}
	if got := SizeBytes(all, nil); got != want {
		t.Fatalf("SizeBytes(all) = %d, oracle %d", got, want)
	}
	for _, attrs := range [][]string{{"mds-service", "ObjectClass"}, {"MDS-CPU-FREE-1MINX100"}, {"nosuch"}, {""}} {
		checkProjection(t, all, attrs)
	}
}

// TestReassignedDNDropsMemo: DN is an exported field, so an entry a
// search returned may be given another DN — one that renders to the same
// length included; every rendering follows it.
func TestReassignedDNDropsMemo(t *testing.T) {
	dit := randomDIT(rand.New(rand.NewSource(13)), 30)
	stored, _ := dit.Search(nil, ScopeSub, nil)
	for _, e := range stored {
		if len(e.DN) == 0 {
			continue
		}
		was := e.DNString()
		if !e.DN.rendersAs(was) || e.DN.rendersAs(was+" ") || e.DN.rendersAs(was[1:]) {
			t.Fatalf("rendersAs disagrees with String() = %q", was)
		}
		sameLen := append(DN(nil), e.DN...)
		sameLen[0].Value = strings.Repeat("z", len(sameLen[0].Value))
		for _, dn := range []DN{sameLen, e.DN[1:], append(DN{{Attr: "cn", Value: "a, b=c"}}, e.DN...)} {
			e.DN = dn
			checkEntry(t, e, nil)
			checkProjection(t, []*Entry{e}, []string{"objectclass"})
		}
	}
}

// TestSizeBytesZeroAlloc: measuring entries — stored (memoized), built
// outside a tree (counted), or projected onto ASCII names in any case
// (counted in place) — and looking attributes up in any ASCII spelling
// allocates nothing.
func TestSizeBytesZeroAlloc(t *testing.T) {
	dit := randomDIT(rand.New(rand.NewSource(12)), 30)
	stored, _ := dit.Search(nil, ScopeSub, nil)
	built := make([]*Entry, len(stored))
	for i, e := range stored {
		built[i] = e.Clone()
	}
	for _, c := range []struct {
		name    string
		entries []*Entry
		attrs   []string
	}{
		{"stored", stored, nil},
		{"built", built, nil},
		{"stored, projected", stored, []string{"objectclass", "MDS-SERVICE"}},
		{"stored, projected onto non-ASCII names", stored, []string{"ſ", "K", "İ", "\xff"}},
	} {
		if allocs := testing.AllocsPerRun(100, func() { SizeBytes(c.entries, c.attrs) }); allocs != 0 {
			t.Errorf("SizeBytes(%s entries): %.1f allocs/op, want 0", c.name, allocs)
		}
	}
	e := stored[0]
	if allocs := testing.AllocsPerRun(100, func() { e.Get("ObjectClass"); e.Has("MDS-CPU-FREE-1MINX100"); e.DNString() }); allocs != 0 {
		t.Errorf("mixed-case Get/Has + DNString: %.1f allocs/op, want 0", allocs)
	}
}
