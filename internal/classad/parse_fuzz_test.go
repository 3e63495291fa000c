package classad

import (
	"runtime"
	"strings"
	"testing"
)

// FuzzClassAdParse: every input parses or is refused with an error —
// never a panic, never a stack overflow — the bytes a parse allocates
// stay within a fixed multiple of the input, and an accepted
// expression's String() is canonical: it parses again and renders to
// itself. The one exception is the nesting bound: String() parenthesizes
// every operation, so a tree renders about three parser levels per tree
// level deep (a unary operation, "(!x)", is the costliest), and a tree
// more than 332 levels deep may render past maxParseDepth and be refused
// with the nesting error. A flat chain like a+a+…+a, which the parser
// reads in a loop, is as deep as it is long: past 1,000 links it is
// refused at parse, and from about 500 links its rendering is. The
// checked-in corpus holds such chains (one rendering too deep, one at
// the 1,000-link bound, one past it), expressions nested exactly at
// maxParseDepth (accepted) and one level past it (refused), and a string
// literal holding a NUL byte, which renders as {"\x00"}, an escape the
// lexer used to refuse.
//
// The allocation budget is 1,024 bytes per input byte plus 64 KiB. The
// lexer reads all of an expression before parsing it, and a token costs
// up to ~250 bytes with the slice's growth; the most measured per input
// byte is ~370, for a list of one-digit numbers ("{1,1,…}").
func FuzzClassAdParse(f *testing.F) {
	for _, src := range []string{
		"",
		`TARGET.OpSys == "LINUX" && TARGET.CpuLoad > 50`,
		"MY.x + target.Y * -3 % 2",
		"-5", "-(5)", "- 5.0", "--5", `-"s"`,
		"{\"\a\xff\u2028\", \"\x7f\"}",
		"[ a = 1; b = [ c = MY.a ] ]",
		`ifThenElse(x =?= UNDEFINED, size({1, 2}), strcat("a", error))`,
		"true ? 1e21 : .5",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		budget := uint64(1024*len(src) + 64<<10)
		var before, after runtime.MemStats
		var e Expr
		var err error
		for try := 0; try < 3; try++ {
			// Other goroutines' allocations land in the same counter, so
			// only a reading that repeats counts as the parser's.
			runtime.ReadMemStats(&before)
			e, err = ParseExpr(src)
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
		canon := e.String()
		again, err := ParseExpr(canon)
		if err != nil {
			if strings.Contains(err.Error(), "nested deeper than") && deeperThan(e, (maxParseDepth-3)/3) {
				return
			}
			t.Fatalf("%q rendered as %q, which does not parse: %v", src, canon, err)
		}
		if s := again.String(); s != canon {
			t.Fatalf("%q rendered as %q, which renders as %q", src, canon, s)
		}
	})
}
