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

func oracleProject(e *Entry, attrs []string) *Entry {
	out := NewEntry(e.DN)
	want := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		want[strings.ToLower(a)] = true
	}
	for _, k := range e.order {
		if want[k] {
			av := e.attrs[k]
			out.Set(av.name, av.values...)
		}
	}
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

// FuzzEntrySize: entries built from arbitrary names and values —
// multi-valued, empty, mixed-case, non-ASCII, longer than the fold
// buffer — measure as long as their LDIF and answer lookups in any
// spelling exactly as the strings.ToLower path did; the same holds for
// the copy a DIT stores (memoized), for a projection of it, and after
// the stored copy is edited.
func FuzzEntrySize(f *testing.F) {
	f.Add("objectclass", "MdsCpu", "Mds-Cpu-Free-1minX100", "", "lucky7")
	f.Add("ObjectClass", "a", "OBJECTCLASS", "b", "h")
	f.Add("Émile", "é", "éMILE", "ü", "hôte")
	f.Add("K", "kelvin", "k", "plain", "x")
	f.Add(strings.Repeat("LongAttributeName", 5), "v", "İ", "dotted", "y")
	f.Add("", "", "", "", "")
	f.Add("a: b", "c\nd", "e=f", ", ", "g, h")
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

		attrs := []string{strings.ToUpper(n2), "objectclass", "nosuch"}
		p, want := e.Project(attrs), oracleProject(e, attrs)
		if p.LDIF() != oracleLDIF(want) {
			t.Fatalf("Project(%q) = %q, oracle %q", attrs, p.LDIF(), oracleLDIF(want))
		}
		checkEntry(t, p, probes)

		dit := NewDIT()
		if err := dit.Add(e.Clone()); err != nil {
			t.Fatal(err)
		}
		stored, ok := dit.Get(dn)
		if !ok {
			t.Fatalf("stored entry %q not found", dn)
		}
		checkEntry(t, stored, probes)
		checkEntry(t, ProjectAll([]*Entry{stored}, attrs)[0], probes)
		stored.Add(n2, "later")
		stored.Set("fresh", v1)
		checkEntry(t, stored, probes)
		dit.Upsert(e)
		stored, _ = dit.Get(dn)
		checkEntry(t, stored, probes)
	})
}

// TestRandomDITSizes runs the same checks over the randomized tree the
// index differential tests search, and holds the result-set size to the
// sum of the oracle's entry sizes.
func TestRandomDITSizes(t *testing.T) {
	dit := randomDIT(rand.New(rand.NewSource(11)), 120)
	all, _ := dit.Search(nil, ScopeSub, nil)
	probes := []string{"objectclass", "OBJECTCLASS", "Mds-Cpu-Free-1minX100", "mds-os-name", "Mds-Service", "nosuch"}
	want := 0
	for _, e := range all {
		checkEntry(t, e, probes)
		want += len(oracleLDIF(e)) + 1
	}
	if got := SizeBytes(all); got != want {
		t.Fatalf("SizeBytes(all) = %d, oracle %d", got, want)
	}
	attrs := []string{"mds-service", "ObjectClass"}
	for i, p := range ProjectAll(all, attrs) {
		if p.LDIF() != oracleLDIF(oracleProject(all[i], attrs)) {
			t.Fatalf("ProjectAll entry %d = %q, oracle %q", i, p.LDIF(), oracleLDIF(oracleProject(all[i], attrs)))
		}
	}
}

// TestReassignedDNDropsMemo: DN is an exported field, so an entry a
// search returned (stored or projected) may be given another DN — one
// that renders to the same length included; every rendering follows it.
func TestReassignedDNDropsMemo(t *testing.T) {
	dit := randomDIT(rand.New(rand.NewSource(13)), 30)
	stored, _ := dit.Search(nil, ScopeSub, nil)
	projected := ProjectAll(stored, []string{"objectclass"})
	for _, entries := range [][]*Entry{stored, projected} {
		for _, e := range entries {
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
			}
		}
	}
}

// TestSizeBytesZeroAlloc: measuring entries — stored (memoized) or
// freshly projected (counted) — and looking attributes up in any ASCII
// spelling allocates nothing.
func TestSizeBytesZeroAlloc(t *testing.T) {
	dit := randomDIT(rand.New(rand.NewSource(12)), 30)
	stored, _ := dit.Search(nil, ScopeSub, nil)
	projected := ProjectAll(stored, []string{"objectclass", "Mds-Service"})
	for name, entries := range map[string][]*Entry{"stored": stored, "projected": projected} {
		if allocs := testing.AllocsPerRun(100, func() { SizeBytes(entries) }); allocs != 0 {
			t.Errorf("SizeBytes(%s entries): %.1f allocs/op, want 0", name, allocs)
		}
	}
	e := stored[0]
	if allocs := testing.AllocsPerRun(100, func() { e.Get("ObjectClass"); e.Has("MDS-CPU-FREE-1MINX100"); e.DNString() }); allocs != 0 {
		t.Errorf("mixed-case Get/Has + DNString: %.1f allocs/op, want 0", allocs)
	}
}
