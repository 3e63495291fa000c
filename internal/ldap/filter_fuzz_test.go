package ldap

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/allocmeter"
)

// textMatches is Filter.Matches as it was before ParseFilter normalized
// assertions: every entry compared with the assertion's text, lowered,
// split and parsed again. The normalized filter must match exactly the
// entries it matches.
func textMatches(f Filter, e *Entry) bool {
	switch f := f.(type) {
	case andFilter:
		for _, s := range f.subs {
			if !textMatches(s, e) {
				return false
			}
		}
		return true
	case orFilter:
		for _, s := range f.subs {
			if textMatches(s, e) {
				return true
			}
		}
		return false
	case notFilter:
		return !textMatches(f.sub, e)
	}
	c := f.(*cmpFilter)
	values := e.Get(c.attr)
	for _, v := range values {
		switch c.op {
		case "=", "~=":
			if c.value == "*" || textPattern(c.value, v) {
				return true
			}
		case ">=", "<=":
			if textOrdered(c.op, v, c.value) {
				return true
			}
		}
	}
	return false
}

// textPattern is the case-insensitive, '*'-wildcard equality textMatches
// applies.
func textPattern(pattern, value string) bool {
	p, v := strings.ToLower(pattern), strings.ToLower(value)
	if !strings.Contains(p, "*") {
		return p == v
	}
	parts := strings.Split(p, "*")
	if !strings.HasPrefix(v, parts[0]) {
		return false
	}
	v = v[len(parts[0]):]
	last := parts[len(parts)-1]
	if !strings.HasSuffix(v, last) {
		return false
	}
	v = v[:len(v)-len(last)]
	for _, mid := range parts[1 : len(parts)-1] {
		i := strings.Index(v, mid)
		if i < 0 {
			return false
		}
		v = v[i+len(mid):]
	}
	return true
}

// textOrdered is the >= and <= comparison textMatches applies.
func textOrdered(op, a, b string) bool {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	cmp := strings.Compare(strings.ToLower(a), strings.ToLower(b))
	if errA == nil && errB == nil {
		cmp = 0
		if fa < fb {
			cmp = -1
		} else if fa > fb {
			cmp = 1
		}
	}
	if op == ">=" {
		return cmp >= 0
	}
	return cmp <= 0
}

// mixedCaseDIT is a small fixed tree whose attribute names are spelled
// in several cases and whose values mix case, numbers with and without
// padding, wildcard characters, and runes that lower to other lengths or
// to ASCII ("İ", the Kelvin sign) or to other bytes ("É"), under two
// suffixes.
func mixedCaseDIT() *DIT {
	t := NewDIT()
	for i, attrs := range [][]string{
		{"objectclass", "MdsHost", "Mds-Os-name", "Linux", "Mds-Cpu-Free-1minX100", "42"},
		{"OBJECTCLASS", "mdshost", "MDS-OS-NAME", "LINUX", "mds-cpu-free-1minx100", " 7 "},
		{"ObjectClass", "MdsCpu", "Mds-Os-Name", "linux-2.4*", "MDS-CPU-FREE-1MINX100", "1e2"},
		{"objectclass", "MDSCPU", "mds-os-name", "İstanbul", "Mds-Cpu-Free-1minX100", "NaN"},
		{"objectClass", "MdsFs", "Mds-Fs-mount", "/Scratch", "Mds-Fs-freeMB", "\u212a9", "MDS-Os-Name", "Élan"},
		{"objectclass", "MdsFs", "MDS-FS-MOUNT", "/scratch/Tmp", "mds-fs-freemb", "-3.5"},
		{"objectclass", "MdsNet", "Mds-Net-name", "eth0", "Mds-Net-name", "ETH1"},
	} {
		vo := "local"
		if i%3 == 2 {
			vo = "Remote"
		}
		e := NewEntry(MustParseDN(fmt.Sprintf("Mds-Host-hn=H%d, Mds-Vo-name=%s, o=grid", i, vo)))
		for j := 0; j < len(attrs); j += 2 {
			e.Add(attrs[j], attrs[j+1])
		}
		if err := t.Add(e); err != nil {
			panic(err)
		}
	}
	return t
}

// FuzzLDAPFilter: every input parses or is refused with an error —
// never a panic, never a stack overflow — the bytes a parse allocates
// stay within a fixed multiple of the input, and an accepted filter's
// String() is canonical: it parses again and renders to itself. On
// mixedCaseDIT an accepted filter matches each entry as textMatches
// does, and searches the same entries indexed as scanned, from the root
// and from a suffix. The checked-in corpus includes a filter nested
// exactly at maxFilterDepth (1,000 levels, accepted) and one level past
// it (refused).
func FuzzLDAPFilter(f *testing.F) {
	for _, src := range []string{
		"",
		"(objectclass=MdsCpu)",
		"(&(objectclass=MdsHost)(Mds-Cpu-Free-1minX100>=50))",
		"(|(a=b*)(!(c<=1))(d~=x))",
		" ( & ( a = b ) ( c=* ) ) ",
		"(a=(b)",
		"(a b=c d)",
		"(a=b)(c=d)",
		"(&)",
		"(a>b)",
		strings.Repeat("(&", 4<<10),
		"(OBJECTCLASS=mdsHOST)",
		"(mds-os-name=LIN*X*)",
		"(Mds-Os-Name=*2.4*)",
		"(mds-os-name=ISTANBUL)",
		"(Mds-Os-Name=éL*)",
		"(mds-os-name>=j)",
		"(MDS-OS-NAME<=ÉLAN)",
		"(Mds-Cpu-Free-1minX100>=8)",
		"(MDS-FS-FREEMB<=k9)",
		"(&(objectclass=mdsfs)(mds-fs-mount>=/scratch))",
		"(|(mds-net-name=Eth1)(!(objectclass=MdsNet)))",
	} {
		f.Add(src)
	}
	dit := mixedCaseDIT()
	bases := []DN{nil, MustParseDN("mds-vo-name=LOCAL, o=Grid")}
	f.Fuzz(func(t *testing.T, src string) {
		budget := uint64(256*len(src) + 64<<10)
		var filter Filter
		var err error
		if n, ok := allocmeter.Bytes(budget, nil, func() { filter, err = ParseFilter(src) }); !ok {
			t.Fatalf("parsing %d bytes allocated %d", len(src), n)
		}
		if err != nil {
			return
		}
		canon := filter.String()
		again, err := ParseFilter(canon)
		if err != nil {
			t.Fatalf("%q rendered as %q, which does not parse: %v", src, canon, err)
		}
		if s := again.String(); s != canon {
			t.Fatalf("%q rendered as %q, which renders as %q", src, canon, s)
		}
		for _, e := range dit.byID {
			if got, want := filter.Matches(e), textMatches(filter, e); got != want {
				t.Fatalf("%q on %s: Matches %v, the text comparison %v", src, e.DN, got, want)
			}
		}
		for _, base := range bases {
			assertSameSearch(t, dit, base, src)
		}
	})
}
