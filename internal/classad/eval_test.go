package classad

import (
	"math"
	"testing"
)

func TestArithmeticTypes(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"7 / 2", Int(3)},      // integer division truncates
		{"7.0 / 2", Real(3.5)}, // real promotes
		{"7 % 3", Int(1)},
		{"7.5 % 2", Real(1.5)},
		{"1 + 2.5", Real(3.5)},
		{"true + 1", Real(2)}, // booleans promote to numbers
	}
	for _, c := range cases {
		if got := mustEval(t, c.src); !got.SameAs(c.want) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestDivisionByZeroIsError(t *testing.T) {
	for _, src := range []string{"1 / 0", "1 % 0", "1.0 / 0.0"} {
		if got := mustEval(t, src); !got.IsError() {
			t.Errorf("eval(%q) = %v, want error", src, got)
		}
	}
}

func TestUndefinedPropagation(t *testing.T) {
	for _, src := range []string{
		"undefined + 1", "1 - undefined", "undefined < 3", "!undefined",
		"undefined == undefined",
	} {
		if got := mustEval(t, src); !got.IsUndefined() {
			t.Errorf("eval(%q) = %v, want undefined", src, got)
		}
	}
}

func TestTriStateAnd(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"false && undefined", Bool(false)}, // false dominates
		{"undefined && false", Bool(false)},
		{"true && undefined", Undefined()},
		{"undefined && true", Undefined()},
		{"true && true", Bool(true)},
		{"true && false", Bool(false)},
	}
	for _, c := range cases {
		if got := mustEval(t, c.src); !got.SameAs(c.want) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestTriStateOr(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"true || undefined", Bool(true)}, // true dominates
		{"undefined || true", Bool(true)},
		{"false || undefined", Undefined()},
		{"undefined || false", Undefined()},
		{"false || false", Bool(false)},
	}
	for _, c := range cases {
		if got := mustEval(t, c.src); !got.SameAs(c.want) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestMetaOperators(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"undefined =?= undefined", true},
		{"undefined =?= 1", false},
		{"1 =?= 1", true},
		{"1 =?= 1.0", false}, // type-strict
		{`"A" =?= "a"`, false},
		{`"a" =?= "a"`, true},
		{"undefined =!= undefined", false},
		{"1 =!= 2", true},
	}
	for _, c := range cases {
		if got := mustEval(t, c.src); !got.SameAs(Bool(c.want)) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestStringComparisonCaseInsensitive(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`"LINUX" == "linux"`, true},
		{`"a" < "B"`, true},
		{`"abc" != "abd"`, true},
	}
	for _, c := range cases {
		if got := mustEval(t, c.src); !got.SameAs(Bool(c.want)) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestMixedTypeComparisonIsError(t *testing.T) {
	if got := mustEval(t, `"x" < 1`); !got.IsError() {
		t.Fatalf("string<int = %v, want error", got)
	}
}

func TestAttrReferenceChain(t *testing.T) {
	ad := MustParseAd("a = 1\nb = a + 1\nc = b * 2\n")
	if v := ad.Eval("c"); !v.SameAs(Int(4)) {
		t.Fatalf("c = %v, want 4", v)
	}
}

func TestMissingAttrIsUndefined(t *testing.T) {
	ad := MustParseAd("a = missing + 1\n")
	if v := ad.Eval("a"); !v.IsUndefined() {
		t.Fatalf("a = %v, want undefined", v)
	}
}

func TestSelfReferenceHitsRecursionLimit(t *testing.T) {
	ad := MustParseAd("a = a + 1\n")
	if v := ad.Eval("a"); !v.IsError() {
		t.Fatalf("self-referential attr = %v, want error", v)
	}
}

func TestMutualRecursionHitsLimit(t *testing.T) {
	ad := MustParseAd("a = b\nb = a\n")
	if v := ad.Eval("a"); !v.IsError() {
		t.Fatalf("mutually recursive attr = %v, want error", v)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{`strcat("a", "b", 1)`, Str("ab1")},
		{`substr("monitor", 3)`, Str("itor")},
		{`substr("monitor", 0, 3)`, Str("mon")},
		{`substr("monitor", -3)`, Str("tor")},
		{`substr("monitor", 1, -1)`, Str("onito")},
		{`size("grid")`, Int(4)},
		{`size({1,2,3})`, Int(3)},
		{`toUpper("mds")`, Str("MDS")},
		{`toLower("GIIS")`, Str("giis")},
		{"int(3.9)", Int(3)},
		{"int(-3.9)", Int(-3)},
		{`int("42")`, Int(42)},
		{"real(3)", Real(3)},
		{`string(42)`, Str("42")},
		{"floor(3.7)", Int(3)},
		{"ceiling(3.2)", Int(4)},
		{"round(3.5)", Int(4)},
		{"abs(-4)", Int(4)},
		{"abs(-4.5)", Real(4.5)},
		{"min(3, 1, 2)", Int(1)},
		{"max(3, 1.5, 2)", Real(3)},
		{"member(2, {1, 2, 3})", Bool(true)},
		{"member(9, {1, 2, 3})", Bool(false)},
		{`member("B", {"a", "b"})`, Bool(true)}, // case-insensitive ==
		{"isUndefined(undefined)", Bool(true)},
		{"isUndefined(1)", Bool(false)},
		{"isError(1/0)", Bool(true)},
		{"isString(\"x\")", Bool(true)},
		{"isInteger(1)", Bool(true)},
		{"isReal(1.0)", Bool(true)},
		{"isBoolean(true)", Bool(true)},
		{"isList({1})", Bool(true)},
		{"ifThenElse(true, 1, 1/0)", Int(1)}, // lazy branch
		{"ifThenElse(false, 1/0, 2)", Int(2)},
		{`regexp("^lucky[0-9]$", "lucky7")`, Bool(true)},
		{`regexp("^lucky[0-9]$", "uc07")`, Bool(false)},
	}
	for _, c := range cases {
		if got := mustEval(t, c.src); !got.SameAs(c.want) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestBuiltinErrorPropagation(t *testing.T) {
	for _, src := range []string{
		`strcat("a", 1/0)`,
		"size(1/0)",
		"min(1, undefined)",
	} {
		got := mustEval(t, src)
		if !got.IsError() && !got.IsUndefined() {
			t.Errorf("eval(%q) = %v, want error/undefined", src, got)
		}
	}
}

func TestAdSetValueAndDelete(t *testing.T) {
	ad := NewAd()
	ad.SetInt("x", 1)
	ad.SetString("name", "n")
	if ad.Len() != 2 {
		t.Fatalf("Len = %d", ad.Len())
	}
	if !ad.Delete("X") { // case-insensitive
		t.Fatal("Delete failed")
	}
	if ad.Len() != 1 {
		t.Fatalf("Len after delete = %d", ad.Len())
	}
	if ad.Delete("x") {
		t.Fatal("second Delete succeeded")
	}
}

func TestAdSetOverwrites(t *testing.T) {
	a := MustParseAd("x = 1\ny = 2\n")
	a.SetInt("Y", 20)
	a.SetNamed(NewName("z"), Int(30))
	if v := a.Eval("y"); !v.SameAs(Int(20)) {
		t.Fatalf("y = %v, want 20", v)
	}
	if v := a.Eval("z"); !v.SameAs(Int(30)) {
		t.Fatalf("z = %v, want 30", v)
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
}

func TestAdNamesPreserveOrderAndSpelling(t *testing.T) {
	ad := MustParseAd("Zeta = 1\nAlpha = 2\n")
	names := ad.Names()
	if names[0] != "Zeta" || names[1] != "Alpha" {
		t.Fatalf("Names = %v", names)
	}
	sorted := ad.SortedNames()
	if sorted[0] != "Alpha" {
		t.Fatalf("SortedNames = %v", sorted)
	}
}

func TestNumberPromotion(t *testing.T) {
	if n, ok := Real(2.5).Number(); !ok || n != 2.5 {
		t.Fatal("Real Number failed")
	}
	if n, ok := Bool(true).Number(); !ok || n != 1 {
		t.Fatal("Bool Number failed")
	}
	if _, ok := Str("x").Number(); ok {
		t.Fatal("Str Number should fail")
	}
}

func TestRealFormatting(t *testing.T) {
	if s := Real(2).String(); s != "2.0" {
		t.Fatalf("Real(2).String() = %q, want 2.0", s)
	}
	v := mustEval(t, Real(2).String())
	if v.Kind() != RealKind {
		t.Fatalf("re-parsed real has kind %v", v.Kind())
	}
	if s := Real(0.5).String(); s != "0.5" {
		t.Fatalf("Real(0.5).String() = %q", s)
	}
	if r := mustEval(t, Real(1e300).String()); math.Abs(mustReal(t, r)-1e300) > 1e285 {
		t.Fatalf("big real round trip = %v", r)
	}
}

func mustReal(t *testing.T, v Value) float64 {
	t.Helper()
	r, ok := v.RealVal()
	if !ok {
		t.Fatalf("value %v is not real", v)
	}
	return r
}

func TestStringListBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{`stringListMember("linux", "osx, linux, solaris")`, Bool(true)},
		{`stringListMember("LINUX", "osx, linux")`, Bool(true)}, // case-insensitive
		{`stringListMember("bsd", "osx, linux")`, Bool(false)},
		{`stringListMember("a", "a;b;c", ";")`, Bool(true)},
		{`stringListSize("a, b, c")`, Int(3)},
		{`stringListSize("")`, Int(0)},
		{`stringListSize("a;b", ";")`, Int(2)},
		{`stringListSum("1, 2, 3.5")`, Real(6.5)},
		{`stringListAvg("2, 4")`, Real(3)},
		{`stringListMin("5, 1, 3")`, Real(1)},
		{`stringListMax("5, 1, 3")`, Real(5)},
	}
	for _, c := range cases {
		if got := mustEval(t, c.src); !got.SameAs(c.want) {
			t.Errorf("eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestStringListErrors(t *testing.T) {
	for _, src := range []string{
		`stringListMember(1, "a")`,
		`stringListSum("a, b")`,
		`stringListSize(42)`,
	} {
		if got := mustEval(t, src); !got.IsError() {
			t.Errorf("eval(%q) = %v, want error", src, got)
		}
	}
	if got := mustEval(t, `stringListAvg("")`); !got.IsUndefined() {
		t.Errorf("avg of empty list = %v, want undefined", got)
	}
}
