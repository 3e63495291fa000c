package ldap

import (
	"runtime"
	"strings"
	"testing"
)

// FuzzLDAPFilter: every input parses or is refused with an error —
// never a panic, never a stack overflow — the bytes a parse allocates
// stay within a fixed multiple of the input, and an accepted filter's
// String() is canonical: it parses again and renders to itself. The
// checked-in corpus includes a filter nested exactly at maxFilterDepth
// (1,000 levels, accepted) and one level past it (refused).
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
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		budget := uint64(256*len(src) + 64<<10)
		var before, after runtime.MemStats
		var filter Filter
		var err error
		for try := 0; try < 3; try++ {
			// Other goroutines' allocations land in the same counter, so
			// only a reading that repeats counts as the parser's.
			runtime.ReadMemStats(&before)
			filter, err = ParseFilter(src)
			runtime.ReadMemStats(&after)
			if after.TotalAlloc-before.TotalAlloc <= budget {
				break
			}
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > budget {
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
	})
}
