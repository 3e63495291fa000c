package classad

import (
	"strings"
	"testing"

	"repro/internal/allocmeter"
)

// FuzzClassAdParse: every input parses or is refused with an error —
// never a panic, never a stack overflow — the bytes a parse allocates
// stay within a fixed multiple of the input, the parser answers what
// oracleParseExpr (the parser that lexed the whole input first) answers,
// and an accepted expression's String() is canonical: it parses again
// and renders to itself. The one exception is the nesting bound:
// String() parenthesizes every operation, so a tree renders about three
// parser levels per tree level deep (a unary operation, "(!x)", is the
// costliest), and a tree more than 332 levels deep may render past
// maxParseDepth and be refused with the nesting error. A flat chain like
// a+a+…+a, which the parser reads in a loop, is as deep as it is long:
// past 1,000 links it is refused at parse, and from about 500 links its
// rendering is. The checked-in corpus holds such chains (one rendering
// too deep, one at the 1,000-link bound, one past it), expressions
// nested exactly at maxParseDepth (accepted) and one level past it
// (refused), and a string literal holding a NUL byte, which renders as
// {"\x00"}, an escape the lexer used to refuse.
//
// Agreeing with the oracle means the same inputs accepted, the same
// String() and the same error text: a malformed token anywhere wins
// over a parse error ("a + ) @" is refused for the '@'), and numbers
// read with strconv accept and refuse what fmt.Sscanf did ("1e999" and
// 2^63 are refused). Keywords fold ASCII only, so "falſe" is an
// attribute reference.
//
// The allocation budget is 256 bytes per input byte plus 64 KiB. The
// parser lexes one token ahead, so what it allocates is the tree it
// builds, not a token per input byte with a slice growing under them
// (the old bound, 1,024 per byte, covered ~370 for a list of one-digit
// numbers). The most measured per input byte is now ~80, for a chain of
// minus signs on a number ("--…-1"), which folds into a new literal at
// every sign; a list of one-digit numbers costs ~63.
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
		"a + ) @", "1e999", "99999999999999999999", "fal\u017fe",
		"9223372036854775807", "9223372036854775808", "007", "1.", "1e", "12eggs",
		`"plain" + "esc\"aped\t"`, "TARGET.x \n + \n 1", "TAR\u212aET.x", "\u212a", "\u0130f(1)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		budget := uint64(256*len(src) + 64<<10)
		var e Expr
		var err error
		if n, ok := allocmeter.Bytes(budget, nil, func() { e, err = ParseExpr(src) }); !ok {
			t.Fatalf("parsing %d bytes allocated %d", len(src), n)
		}
		want, wantErr := oracleParseExpr(src)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ParseExpr(%q) error %v, oracle %v", src, err, wantErr)
			}
			return
		}
		canon := e.String()
		if w := want.String(); canon != w {
			t.Fatalf("ParseExpr(%q) = %q, oracle %q", src, canon, w)
		}
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

// FuzzParseAd: ParseAd, which reads ClassAds in record or old-style
// syntax, answers every input as oracleParseAd (the parser that lexed the
// whole input first) does: the same inputs accepted, the same Unparse()
// and the same error text. The old-style syntax is where the two could
// part: a line ends at a newline or ';' outside brackets, found there by
// scanning the token slice ahead and here by counting brackets while
// lexing. The checked-in corpus holds both syntaxes, a newline inside
// parentheses, unbalanced brackets before a newline, a ';' at bracket
// depth 0 and 1, and values nested exactly at maxParseDepth.
func FuzzParseAd(f *testing.F) {
	for _, src := range []string{
		"",
		"a = 1\nb = \"x\"\n",
		"[ a = 1; b = [ c = MY.a ] ]",
		"a = (1 +\n 2)\nb = 3",
		"a = (1\nb = 2", "a = 1)\nb = 2", "a = 1) b = 2\nc = 3",
		"a = 1; b = 2", "a = [ x = 1; y = 2 ]; b = {1, 2}",
		"a = 1 b = 2", "a = 1 2\n", "a = 1 b = (2\n) c = 3",
		"a = ) \n b = @", "a = \n b = 1", "a\n=\n1", "[ a = 1 ] x",
		"# comment\nOpSys = \"LINUX\" // trailing\nCpuLoad = 0.5;",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ad, err := ParseAd(src)
		want, wantErr := oracleParseAd(src)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ParseAd(%q) error %v, oracle %v", src, err, wantErr)
			}
			return
		}
		if got, w := ad.Unparse(), want.Unparse(); got != w {
			t.Fatalf("ParseAd(%q) = %q, oracle %q", src, got, w)
		}
	})
}
