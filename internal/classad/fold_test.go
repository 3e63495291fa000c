package classad

import (
	"math/rand"
	"strings"
	"testing"
)

// lowerCompare is the string order ClassAd comparisons had before
// compareFold: both operands lowered whole, then compared.
func lowerCompare(a, b string) int {
	return strings.Compare(strings.ToLower(a), strings.ToLower(b))
}

// foldCases pairs strings whose folded order an in-place ASCII fold gets
// right with pairs only Unicode lowering orders: "İ" lowers to two runes,
// the long s and the Kelvin sign lower to other runes, and invalid UTF-8
// lowers to U+FFFD.
var foldCases = [][2]string{
	{"", ""},
	{"", "a"},
	{"LINUX", "linux"},
	{"Linux", "LINUX2"},
	{"abc", "ABD"},
	{"ABD", "abc"},
	{"a_b", "A`B"}, // '_' sorts between the upper and lower letters
	{"[", "a"},
	{"Z", "["},
	{"İ", "i"},
	{"İ", "I"},
	{"İstanbul", "ISTANBUL"},
	{"ſ", "s"},
	{"ſ", "S"},
	{"\u212a", "k"}, // Kelvin sign
	{"\u212a", "L"},
	{"K", "\u212a"},
	{"é", "É"},
	{"\xff", "a"},
	{"a\xff", "A\xfe"},
}

// TestCompareFoldMatchesLowered holds compareFold to the lowered
// comparison on a table of ASCII and non-ASCII pairs, both ways round.
func TestCompareFoldMatchesLowered(t *testing.T) {
	for _, c := range foldCases {
		for _, p := range [][2]string{c, {c[1], c[0]}} {
			if got, want := compareFold(p[0], p[1]), lowerCompare(p[0], p[1]); got != want {
				t.Errorf("compareFold(%q, %q) = %d, lowered comparison %d", p[0], p[1], got, want)
			}
		}
	}
}

// TestCompareFoldProperty: on random strings over an alphabet of ASCII
// letters of both cases, the bytes between them, and runes whose lowering
// is not an ASCII fold, compareFold orders every pair as the lowered
// comparison does, and so does a ClassAd comparison of them.
func TestCompareFoldProperty(t *testing.T) {
	alphabet := []string{"a", "A", "z", "Z", "k", "K", "s", "S", "i", "I", "_", "[", "`", "0",
		"İ", "ſ", "\u212a", "é", "É", "\xff"}
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 20000; i++ {
		a, b := word(), word()
		want := lowerCompare(a, b)
		if got := compareFold(a, b); got != want {
			t.Fatalf("compareFold(%q, %q) = %d, lowered comparison %d", a, b, got, want)
		}
		if got := evalCompare("<", Str(a), Str(b)); !got.SameAs(Bool(want < 0)) {
			t.Fatalf("%q < %q evaluated to %v, want %v", a, b, got, want < 0)
		}
	}
}
