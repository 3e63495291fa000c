package relational

import (
	"strings"
	"testing"
)

// oracleLikeMatch is likeMatch as first written: memoized recursion over
// rune positions, a stack frame per pattern rune and a map entry per pair
// of positions. It is kept as the oracle the iterative matcher is held to.
func oracleLikeMatch(pattern, s string) bool {
	p, n := []rune(pattern), []rune(s)
	memo := make(map[[2]int]bool)
	var rec func(i, j int) bool
	rec = func(i, j int) bool {
		if i == len(p) {
			return j == len(n)
		}
		key := [2]int{i, j}
		if v, ok := memo[key]; ok {
			return v
		}
		var out bool
		switch p[i] {
		case '%':
			out = rec(i+1, j) || (j < len(n) && rec(i, j+1))
		case '_':
			out = j < len(n) && rec(i+1, j+1)
		default:
			out = j < len(n) && equalFoldRune(p[i], n[j]) && rec(i+1, j+1)
		}
		memo[key] = out
		return out
	}
	return rec(0, 0)
}

// FuzzLikeMatch: for every pattern and value the iterative matcher
// answers what the recursive oracle does, with and without its % runs
// collapsed as the parser collapses a literal pattern, and allocates
// nothing.
func FuzzLikeMatch(f *testing.F) {
	for _, seed := range [][2]string{
		{"lucky%", "lucky3"},
		{"_c0_", "uc01"},
		{"", ""},
		{"%", ""},
		{"", "x"},
		{"LUCKY_-SENSOR%", "lucky3-sensor00"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		// The oracle's memo grows with the product of the lengths.
		if len(pattern) > 128 {
			pattern = pattern[:128]
		}
		if len(s) > 128 {
			s = s[:128]
		}
		want := oracleLikeMatch(pattern, s)
		if got := likeMatch(pattern, s); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, oracle %v", pattern, s, got, want)
		}
		if got := likeMatch(collapsePercents(pattern), s); got != want {
			t.Fatalf("likeMatch(collapsePercents(%q), %q) = %v, oracle %v", pattern, s, got, want)
		}
		if allocs := testing.AllocsPerRun(1, func() { likeMatch(pattern, s) }); allocs != 0 {
			t.Fatalf("likeMatch(%q, %q): %.0f allocs", pattern, s, allocs)
		}
	})
}

// TestLikeMatchHostilePatterns: the patterns that overflowed the stack
// or built a quadratic memo answer, without allocating, and a literal
// pattern's % runs reach the matcher collapsed.
func TestLikeMatchHostilePatterns(t *testing.T) {
	const value = "lucky3-sensor00.uc" // 18 bytes
	for _, tc := range []struct {
		pattern string
		want    bool
	}{
		{strings.Repeat("%", 4<<20) + "x", false},
		{strings.Repeat("%", 64<<10) + "c", true},
		{strings.Repeat("%a", 2<<20), false},
		{strings.Repeat("%_", 18) + "%", true},
		{strings.Repeat("%_", 19) + "%", false},
	} {
		if got := likeMatch(tc.pattern, value); got != tc.want {
			t.Errorf("%d-byte pattern: %v, want %v", len(tc.pattern), got, tc.want)
		}
		if allocs := testing.AllocsPerRun(2, func() { likeMatch(tc.pattern, value) }); allocs != 0 {
			t.Errorf("%d-byte pattern: %.0f allocs", len(tc.pattern), allocs)
		}
	}
	sel, err := Parse("SELECT * FROM t WHERE host LIKE '" + strings.Repeat("%", 4<<20) + "x%%'")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Where.(cmpExpr).right.val.S; got != "%x%" {
		t.Fatalf("parsed pattern %.20q, want %%x%%", got)
	}
}
