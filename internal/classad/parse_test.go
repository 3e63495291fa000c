package classad

import (
	"fmt"
	"strings"
	"testing"
)

func mustEval(t *testing.T, src string) Value {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return NewAd().EvalExpr(e)
}

func TestParseLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"3.5", Real(3.5)},
		{"1e3", Real(1000)},
		{"2.5e-1", Real(0.25)},
		{`"hello"`, Str("hello")},
		{`"a\"b"`, Str(`a"b`)},
		{`"tab\there"`, Str("tab\there")},
		{"true", Bool(true)},
		{"FALSE", Bool(false)},
		{"UNDEFINED", Undefined()},
		{"{1, 2, 3}", List(Int(1), Int(2), Int(3))},
		{"{}", List()},
	}
	for _, c := range cases {
		got := mustEval(t, c.src)
		if !got.SameAs(c.want) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"1 + 2 * 3", Int(7)},
		{"(1 + 2) * 3", Int(9)},
		{"10 - 4 - 3", Int(3)}, // left assoc
		{"2 * 3 % 4", Int(2)},
		{"1 < 2 && 3 < 2", Bool(false)},
		{"1 < 2 || 3 < 2", Bool(true)},
		{"true ? 1 : 2", Int(1)},
		{"false ? 1 : 2 + 3", Int(5)},
		{"1 + 1 == 2", Bool(true)},
		{"!false && true", Bool(true)},
		{"-2 * 3", Int(-6)},
		{"1 < 2 == true", Bool(true)},
	}
	for _, c := range cases {
		got := mustEval(t, c.src)
		if !got.SameAs(c.want) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"1 +",
		"(1",
		`"unterminated`,
		"1 & 2",
		"1 | 2",
		"foo(",
		"? : 1",
		"{1, }",
		"nosuchfunc(1)",
		`"bad \q escape"`,
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) succeeded, want error", src)
		}
	}
}

// TestParseDeepNestingIsError: an expression nested past maxParseDepth is
// an ordinary parse error. Unbounded, 4 Mi "(" overflowed the goroutine
// stack, which kills the process rather than panicking. These inputs
// are smaller, because the lexer reads all of one before parsing starts
// (~250 bytes allocated per "("), but would parse without the bound.
func TestParseDeepNestingIsError(t *testing.T) {
	// A parenthesis costs two levels: parseExpr, then parseUnary.
	paren := func(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) }
	if _, err := ParseExpr(paren(maxParseDepth/2 - 1)); err != nil {
		t.Fatalf("%d parentheses: %v", maxParseDepth/2-1, err)
	}
	for name, src := range map[string]string{
		"parentheses": paren(maxParseDepth / 2),
		"64 Ki (":     paren(64 << 10),
		"!":           strings.Repeat("!", maxParseDepth) + "true",
		"-":           strings.Repeat("-", maxParseDepth) + "1",
		"?:":          strings.Repeat("true ? ", maxParseDepth) + "1" + strings.Repeat(" : 0", maxParseDepth),
		"lists":       strings.Repeat("{", maxParseDepth) + strings.Repeat("}", maxParseDepth),
		"ads":         "[a = " + strings.Repeat("[a = ", maxParseDepth) + "1" + strings.Repeat("]", maxParseDepth+1),
		"calls":       strings.Repeat("size(", maxParseDepth) + "1" + strings.Repeat(")", maxParseDepth),
	} {
		_, err := ParseExpr(src)
		if err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Errorf("%s: err = %v, want the nesting bound", name, err)
		}
	}
	if _, err := ParseAd("a = " + paren(maxParseDepth) + "\nb = 1"); err == nil {
		t.Error("ParseAd accepted an attribute nested past the bound")
	}
}

func TestParseTrailingInput(t *testing.T) {
	if _, err := ParseExpr("1 2"); err == nil {
		t.Fatal("trailing input accepted")
	}
}

func TestCommentsSkipped(t *testing.T) {
	got := mustEval(t, "1 + // comment\n 2")
	if !got.SameAs(Int(3)) {
		t.Fatalf("got %v, want 3", got)
	}
	got = mustEval(t, "1 + # hash comment\n 2")
	if !got.SameAs(Int(3)) {
		t.Fatalf("got %v, want 3", got)
	}
}

func TestParseAdOldStyle(t *testing.T) {
	ad, err := ParseAd("Name = \"lucky4\"\nCpus = 2\nLoadAvg = 0.25\nRequirements = LoadAvg < 0.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if ad.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ad.Len())
	}
	if v := ad.Eval("Cpus"); !v.SameAs(Int(2)) {
		t.Fatalf("Cpus = %v", v)
	}
	if v := ad.Eval("Requirements"); !v.SameAs(Bool(true)) {
		t.Fatalf("Requirements = %v", v)
	}
}

func TestParseAdNewStyle(t *testing.T) {
	ad, err := ParseAd(`[ a = 1; b = "x"; c = a + 1 ]`)
	if err != nil {
		t.Fatal(err)
	}
	if v := ad.Eval("c"); !v.SameAs(Int(2)) {
		t.Fatalf("c = %v", v)
	}
}

func TestParseAdCaseInsensitiveNames(t *testing.T) {
	ad := MustParseAd("CpuLoad = 55\n")
	if v := ad.Eval("cpuload"); !v.SameAs(Int(55)) {
		t.Fatalf("cpuload = %v", v)
	}
	if v := ad.Eval("CPULOAD"); !v.SameAs(Int(55)) {
		t.Fatalf("CPULOAD = %v", v)
	}
}

func TestParseAdMultilineParenExpr(t *testing.T) {
	// A bracketed expression may span lines in old-style ads.
	ad, err := ParseAd("x = (1 +\n 2)\ny = 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if v := ad.Eval("x"); !v.SameAs(Int(3)) {
		t.Fatalf("x = %v", v)
	}
	if v := ad.Eval("y"); !v.SameAs(Int(3)) {
		t.Fatalf("y = %v", v)
	}
}

func TestUnparseRoundTrip(t *testing.T) {
	src := "Name = \"agent7\"\nLoad = 0.5\nOk = Load < 1.0\n"
	ad := MustParseAd(src)
	again := MustParseAd(ad.Unparse())
	if !ad.sameAs(again) {
		t.Fatalf("round trip changed ad:\n%s\nvs\n%s", ad.Unparse(), again.Unparse())
	}
}

// TestUnparseRoundTripsEveryByte: a string holding control bytes, DEL,
// invalid UTF-8 or a non-printable rune renders with the escapes Go
// quoting writes (\x00, \a, \x7f, \xff, \u2028), and the lexer reads
// every one of them back — alone, inside a list, and as an ad attribute.
func TestUnparseRoundTripsEveryByte(t *testing.T) {
	for _, s := range []string{"\x00", "\a\b\f\v", "\x7f", "\xff", "a\xc3", "\u2028", "\U0001f600", "\x01\"\\\n\t\r"} {
		e := Lit(Str(s))
		again, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("%q renders as %s, which does not parse: %v", s, e, err)
		}
		if got, _ := NewAd().EvalExpr(again).StringVal(); got != s {
			t.Errorf("%q renders as %s, which reads back as %q", s, e, got)
		}
		if list := fmt.Sprintf("{%s}", e); MustParseExpr(list).String() != list {
			t.Errorf("%s does not render to itself", list)
		}
		ad := NewAd()
		ad.SetString("S", s)
		back, err := ParseAd(ad.Unparse())
		if err != nil {
			t.Fatalf("ParseAd(%q): %v", ad.Unparse(), err)
		}
		if !ad.sameAs(back) {
			t.Errorf("ParseAd(Unparse()) changed %q into %q", ad.Unparse(), back.Unparse())
		}
	}
}

func TestExprStringIdempotent(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3",
		"a && b || !c",
		`strcat("x", 1, true)`,
		"MY.Load < TARGET.Threshold",
		"x =?= UNDEFINED",
		"{1, 2.5, \"s\"}",
		"(a ? b : c) + 1",
		"ifThenElse(x != 0, 1/x, 0)",
	}
	for _, src := range srcs {
		e1, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		s1 := e1.String()
		e2, err := ParseExpr(s1)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", s1, src, err)
		}
		if s2 := e2.String(); s2 != s1 {
			t.Errorf("String not canonical: %q -> %q -> %q", src, s1, s2)
		}
	}
}

func TestScopedRefPrinting(t *testing.T) {
	e := MustParseExpr("my.x + target.y")
	s := e.String()
	if !strings.Contains(s, "MY.x") || !strings.Contains(s, "TARGET.y") {
		t.Fatalf("scoped refs printed as %q", s)
	}
}
