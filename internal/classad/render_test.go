package classad

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The oracles below are the rendering bodies this package had while
// SizeBytes still meant "build the text, take its length": string
// concatenation all the way down. They stay as the reference the
// append forms and the counted sizes are held to.

func oracleValueString(v Value) string {
	switch v.kind {
	case UndefinedKind:
		return "undefined"
	case ErrorKind:
		return "error"
	case BoolKind:
		if v.b {
			return "true"
		}
		return "false"
	case IntKind:
		return strconv.FormatInt(v.i, 10)
	case RealKind:
		s := strconv.FormatFloat(v.r, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		return s
	case StringKind:
		return strconv.Quote(v.s)
	case ListKind:
		parts := make([]string, len(v.list))
		for i, it := range v.list {
			parts[i] = oracleValueString(it)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case AdKind:
		return oracleAdString(v.ad)
	}
	return "invalid"
}

func oracleExprString(e Expr) string {
	join := func(items []Expr) string {
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = oracleExprString(it)
		}
		return strings.Join(parts, ", ")
	}
	switch e := e.(type) {
	case *literal:
		return oracleValueString(e.v)
	case attrRef:
		switch e.sc {
		case scopeMy:
			return "MY." + e.name
		case scopeTarget:
			return "TARGET." + e.name
		}
		return e.name
	case unary:
		return "(" + e.op + oracleExprString(e.x) + ")"
	case binary:
		return "(" + oracleExprString(e.l) + " " + e.op + " " + oracleExprString(e.r) + ")"
	case cond:
		return "(" + oracleExprString(e.c) + " ? " + oracleExprString(e.t) + " : " + oracleExprString(e.f) + ")"
	case call:
		return e.name + "(" + join(e.args) + ")"
	case listExpr:
		return "{" + join(e.items) + "}"
	case adExpr:
		parts := make([]string, len(e.names))
		for i := range e.names {
			parts[i] = e.names[i] + " = " + oracleExprString(e.exprs[i])
		}
		return "[ " + strings.Join(parts, "; ") + " ]"
	}
	panic(fmt.Sprintf("oracle: unknown expression type %T", e))
}

func oracleAdString(a *Ad) string {
	parts := make([]string, 0, len(a.order))
	for _, k := range a.order {
		e := a.attrs[k]
		parts = append(parts, e.name+" = "+oracleExprString(e.expr))
	}
	return "[ " + strings.Join(parts, "; ") + " ]"
}

func oracleUnparse(a *Ad) string {
	var sb strings.Builder
	for _, k := range a.order {
		e := a.attrs[k]
		fmt.Fprintf(&sb, "%s = %s\n", e.name, oracleExprString(e.expr))
	}
	return sb.String()
}

// checkExprRendering holds every rendering of e to the oracle.
func checkExprRendering(t *testing.T, e Expr) {
	t.Helper()
	want := oracleExprString(e)
	if got := e.String(); got != want {
		t.Fatalf("String() = %q, oracle %q", got, want)
	}
	if got := string(e.AppendTo(nil)); got != want {
		t.Fatalf("AppendTo(nil) = %q, oracle %q", got, want)
	}
	if got := string(e.AppendTo([]byte("prefix "))); got != "prefix "+want {
		t.Fatalf("AppendTo(prefix) = %q, oracle %q", got, "prefix "+want)
	}
}

// checkAdRendering holds the ad's renderings and its counted size to
// the oracle.
func checkAdRendering(t *testing.T, ad *Ad) {
	t.Helper()
	want := oracleUnparse(ad)
	if got := ad.Unparse(); got != want {
		t.Fatalf("Unparse() = %q, oracle %q", got, want)
	}
	if got := ad.SizeBytes(); got != len(want) {
		t.Fatalf("SizeBytes() = %d, len(oracle Unparse) = %d for %q", got, len(want), want)
	}
	if got, want := ad.String(), oracleAdString(ad); got != want {
		t.Fatalf("String() = %q, oracle %q", got, want)
	}
}

// FuzzExprAppend: for any parseable expression the append form, String
// and the pre-append oracle agree, and an ad carrying it — beside
// literals made from the raw inputs — reports exactly the length of its
// unparsed text.
func FuzzExprAppend(f *testing.F) {
	for _, src := range requirementsCorpus {
		f.Add(src, 50.0, int64(3))
	}
	f.Add(`strcat("a\"b", "\\", "\x7f", "é", "\n")`, math.Inf(1), int64(math.MinInt64))
	f.Add(`{1, 2.0, "three", {4}}`, math.NaN(), int64(math.MaxInt64))
	f.Add(`[ a = 1; b = [ c = MY.a ] ]`, math.Copysign(0, -1), int64(0))
	f.Add(`-x ? +y : !z`, 5e-324, int64(-1))
	f.Add(`1e21 + 1e-7 + 100000000000000000000.0`, 1e21, int64(10))
	f.Fuzz(func(t *testing.T, src string, r float64, i int64) {
		literals := func(ad *Ad) *Ad {
			ad.SetString("Name", "m01")
			ad.SetString("Raw", src)
			ad.SetReal("R", r)
			ad.SetInt("I", i)
			ad.SetBool("B", i%2 == 0)
			ad.SetValue("U", Undefined())
			ad.SetValue("E", ErrorValue("%s", src))
			ad.SetValue("L", List(Int(i), Real(r), Str(src), List()))
			return ad
		}
		ad := literals(NewAd())
		ad.SetValue("A", AdValue(literals(NewAd())))
		if e, err := ParseExpr(src); err == nil {
			checkExprRendering(t, e)
			ad.Set(AttrRequirements, e)
		}
		for n := 0; n < ad.Len(); n++ {
			_, e := ad.At(n)
			checkExprRendering(t, e)
		}
		checkAdRendering(t, ad)
	})
}

// TestRandomAdRendering runs the same checks over the randomized ads the
// matchmaking differential tests use.
func TestRandomAdRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		checkAdRendering(t, randomAd(rng, trial%2 == 0))
	}
}

// TestLookupFoldMatchesToLower: the stack-folded lookup finds exactly
// what a strings.ToLower key finds — mixed case, names too long for the
// fold buffer, and non-ASCII names whose folding only ToLower knows.
func TestLookupFoldMatchesToLower(t *testing.T) {
	names := []string{
		"Name", "CPULOAD", "cpuload", "Mixed_Case-9",
		strings.Repeat("LongName", 9), // 72 bytes: past the fold buffer
		"Émile", "ÉMILE", "K", "straße", "İstanbul",
	}
	ad := NewAd()
	for i, n := range names {
		ad.SetInt(n, int64(i))
	}
	probes := append([]string{"NAME", "name", "CpuLoad", "mixed_case-9", "émile", "k", "K", "nosuch", ""}, names...)
	probes = append(probes, strings.ToUpper(names[4]), strings.ToLower(names[4]))
	for _, p := range probes {
		want, wantOK := ad.attrs[strings.ToLower(p)]
		got, ok := ad.Lookup(p)
		// Every attribute holds a distinct integer, so text identifies it.
		if ok != wantOK || (ok && got.String() != want.expr.String()) {
			t.Errorf("Lookup(%q) = %v, %v; the ToLower key gives %v, %v", p, got, ok, want.expr, wantOK)
		}
	}
}

// TestSetKeepsSpellingAndOrder: rebinding a name — through Set or
// through a pre-folded Name, in any case — replaces the expression but
// keeps the first spelling and position, and a rebound constant does not
// disturb the constants bound before it.
func TestSetKeepsSpellingAndOrder(t *testing.T) {
	a := MustParseAd("[ Name = \"m\"; CpuLoad = 1; Keep = 2 ]")
	a.Set("CPULOAD", MustParseExpr("5"))
	a.SetNamed(NewName("Extra"), Int(6))
	if got, want := a.Unparse(), "Name = \"m\"\nCpuLoad = 5\nKeep = 2\nExtra = 6\n"; got != want {
		t.Fatalf("Set: %q, want %q", got, want)
	}
	a.SetNamed(NewName("KEEP"), Int(7))
	a.SetNamed(NewName("extra"), Str("x"))
	if got, want := a.Unparse(), "Name = \"m\"\nCpuLoad = 5\nKeep = 7\nExtra = \"x\"\n"; got != want {
		t.Fatalf("SetNamed: %q, want %q", got, want)
	}
	// Past its first slab, an ad's earlier constants keep their values.
	b := NewAdSized(2)
	for i := 0; i < 40; i++ {
		b.SetNamed(NewName(fmt.Sprintf("A%d", i%20)), Int(int64(i)))
	}
	for i := 0; i < 20; i++ {
		if v, _ := b.Eval(fmt.Sprintf("a%d", i)).IntVal(); v != int64(20+i) {
			t.Fatalf("A%d = %d, want %d", i, v, 20+i)
		}
	}
	if b.Len() != 20 {
		t.Fatalf("Len = %d, want 20", b.Len())
	}
}

// TestSizeBytesZeroAlloc: measuring an ad of constants — all a Startd
// ad holds — allocates nothing.
func TestSizeBytesZeroAlloc(t *testing.T) {
	ad := randomAd(rand.New(rand.NewSource(3)), false)
	ad.SetString("Quoted", `say "hi" \ bye`)
	ad.SetBool("Flag", true)
	ad.SetValue("Undef", Undefined())
	want := len(oracleUnparse(ad))
	var got int
	if allocs := testing.AllocsPerRun(100, func() { got = ad.SizeBytes() }); allocs != 0 {
		t.Errorf("SizeBytes of a literal ad: %.1f allocs/op, want 0", allocs)
	}
	if got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { ad.Lookup("CPULOAD"); ad.Eval("Name") }); allocs != 0 {
		t.Errorf("mixed-case Lookup + literal Eval: %.1f allocs/op, want 0", allocs)
	}
}
