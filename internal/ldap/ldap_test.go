package ldap

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDN(t *testing.T) {
	dn := MustParseDN("Mds-Host-hn=lucky7, Mds-Vo-name=local, o=grid")
	if dn.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", dn.Depth())
	}
	if dn[0].Attr != "Mds-Host-hn" || dn[0].Value != "lucky7" {
		t.Fatalf("leaf RDN = %v", dn[0])
	}
	if got := dn.String(); got != "Mds-Host-hn=lucky7, Mds-Vo-name=local, o=grid" {
		t.Fatalf("String = %q", got)
	}
}

func TestParseDNErrors(t *testing.T) {
	for _, s := range []string{"noequals", "=value", "attr=", "a=b,,c=d"} {
		if _, err := ParseDN(s); err == nil {
			t.Errorf("ParseDN(%q) succeeded, want error", s)
		}
	}
}

func TestParseDNEmptyIsRoot(t *testing.T) {
	dn, err := ParseDN("")
	if err != nil || dn.Depth() != 0 {
		t.Fatalf("empty DN: %v, %v", dn, err)
	}
}

func TestDNEqualityCaseInsensitive(t *testing.T) {
	a := MustParseDN("O=Grid")
	b := MustParseDN("o=grid")
	if !a.Equal(b) {
		t.Fatal("case-insensitive DNs not equal")
	}
}

func TestDNParentChild(t *testing.T) {
	base := MustParseDN("o=grid")
	child := base.Child("Mds-Vo-name", "local")
	if child.String() != "Mds-Vo-name=local, o=grid" {
		t.Fatalf("child = %q", child)
	}
	if !child.Parent().Equal(base) {
		t.Fatal("parent mismatch")
	}
	if !child.IsDescendantOf(base) {
		t.Fatal("descendant check failed")
	}
	if base.IsDescendantOf(child) {
		t.Fatal("ancestor claimed to be descendant")
	}
	if base.IsDescendantOf(base) {
		t.Fatal("DN claimed to descend from itself")
	}
}

func TestEntryAttributes(t *testing.T) {
	e := NewEntry(MustParseDN("o=grid"))
	e.Add("objectclass", "MdsHost")
	e.Add("objectclass", "MdsComputer")
	e.Set("Mds-Host-hn", "lucky7")
	if got := e.Get("OBJECTCLASS"); len(got) != 2 {
		t.Fatalf("multi-valued get = %v", got)
	}
	if e.First("mds-host-hn") != "lucky7" {
		t.Fatalf("First = %q", e.First("mds-host-hn"))
	}
	if !e.Has("objectclass") || e.Has("missing") {
		t.Fatal("Has misbehaved")
	}
}

func TestEntryProject(t *testing.T) {
	e := NewEntry(MustParseDN("o=grid"))
	e.Set("a", "1")
	e.Set("b", "2")
	e.Set("c", "3")
	attrs := []string{"A", "c"}
	var kept []string
	for i := 0; i < e.Len(); i++ {
		if e.Keeps(i, attrs) {
			name, _ := e.At(i)
			kept = append(kept, name)
		}
	}
	if !equalStrings(kept, []string{"a", "c"}) {
		t.Fatalf("projection kept %v", kept)
	}
	size := e.ProjectedSizeBytes(attrs)
	if size >= e.SizeBytes() {
		t.Fatal("projection did not shrink entry")
	}
	if want := e.Project(attrs).SizeBytes(); size != want {
		t.Fatalf("ProjectedSizeBytes = %d, the projected copy measures %d", size, want)
	}
}

func TestLDIFFormat(t *testing.T) {
	e := NewEntry(MustParseDN("Mds-Host-hn=lucky7, o=grid"))
	e.Set("Mds-Cpu-Total-count", "2")
	ldif := e.LDIF()
	if !strings.HasPrefix(ldif, "dn: Mds-Host-hn=lucky7, o=grid\n") {
		t.Fatalf("LDIF = %q", ldif)
	}
	if !strings.Contains(ldif, "Mds-Cpu-Total-count: 2\n") {
		t.Fatalf("LDIF = %q", ldif)
	}
}

func makeHostEntry(host string, freePct int) *Entry {
	e := NewEntry(MustParseDN("Mds-Host-hn=" + host + ", Mds-Vo-name=local, o=grid"))
	e.Set("objectclass", "MdsHost")
	e.Set("Mds-Host-hn", host)
	e.Set("Mds-Cpu-Free-1minX100", fmt.Sprintf("%d", freePct))
	return e
}

func TestFilterEquality(t *testing.T) {
	f := MustParseFilter("(Mds-Host-hn=lucky7)")
	if !f.Matches(makeHostEntry("lucky7", 50)) {
		t.Fatal("equality filter missed")
	}
	if f.Matches(makeHostEntry("lucky3", 50)) {
		t.Fatal("equality filter over-matched")
	}
}

func TestFilterCaseInsensitiveValue(t *testing.T) {
	f := MustParseFilter("(Mds-Host-hn=LUCKY7)")
	if !f.Matches(makeHostEntry("lucky7", 50)) {
		t.Fatal("value comparison should be case-insensitive")
	}
}

func TestFilterPresence(t *testing.T) {
	f := MustParseFilter("(objectclass=*)")
	if !f.Matches(makeHostEntry("lucky7", 50)) {
		t.Fatal("presence filter missed")
	}
	g := MustParseFilter("(nosuchattr=*)")
	if g.Matches(makeHostEntry("lucky7", 50)) {
		t.Fatal("presence filter over-matched")
	}
}

func TestFilterSubstring(t *testing.T) {
	cases := []struct {
		pattern string
		match   bool
	}{
		{"(Mds-Host-hn=lucky*)", true},
		{"(Mds-Host-hn=*7)", true},
		{"(Mds-Host-hn=l*y*)", true},
		{"(Mds-Host-hn=*uck*)", true},
		{"(Mds-Host-hn=uc*)", false},
		{"(Mds-Host-hn=*8)", false},
	}
	e := makeHostEntry("lucky7", 50)
	for _, c := range cases {
		f := MustParseFilter(c.pattern)
		if f.Matches(e) != c.match {
			t.Errorf("%s matches=%v, want %v", c.pattern, !c.match, c.match)
		}
	}
}

func TestFilterNumericOrder(t *testing.T) {
	e := makeHostEntry("lucky7", 75)
	if !MustParseFilter("(Mds-Cpu-Free-1minX100>=50)").Matches(e) {
		t.Fatal(">= filter missed")
	}
	if MustParseFilter("(Mds-Cpu-Free-1minX100>=80)").Matches(e) {
		t.Fatal(">= filter over-matched")
	}
	if !MustParseFilter("(Mds-Cpu-Free-1minX100<=75)").Matches(e) {
		t.Fatal("<= filter missed")
	}
	// Numeric, not lexicographic: "9" <= "75" must be false numerically.
	e2 := makeHostEntry("lucky3", 9)
	if MustParseFilter("(Mds-Cpu-Free-1minX100>=75)").Matches(e2) {
		t.Fatal("lexicographic comparison leaked through")
	}
}

func TestFilterBooleanCombinators(t *testing.T) {
	e := makeHostEntry("lucky7", 75)
	if !MustParseFilter("(&(objectclass=MdsHost)(Mds-Cpu-Free-1minX100>=50))").Matches(e) {
		t.Fatal("and filter missed")
	}
	if MustParseFilter("(&(objectclass=MdsHost)(Mds-Cpu-Free-1minX100>=80))").Matches(e) {
		t.Fatal("and filter over-matched")
	}
	if !MustParseFilter("(|(Mds-Host-hn=lucky3)(Mds-Host-hn=lucky7))").Matches(e) {
		t.Fatal("or filter missed")
	}
	if !MustParseFilter("(!(Mds-Host-hn=lucky3))").Matches(e) {
		t.Fatal("not filter missed")
	}
}

func TestFilterParseErrors(t *testing.T) {
	for _, s := range []string{
		"", "(", "()", "(a)", "(=b)", "(a=)", "(a=b", "(&)", "(a=b)(c=d)",
		"(a>b)", "(!)",
	} {
		if _, err := ParseFilter(s); err == nil {
			t.Errorf("ParseFilter(%q) succeeded, want error", s)
		}
	}
}

// TestParseDeepNestingIsError: a filter nested past maxFilterDepth is an
// ordinary parse error. Unbounded, 4 Mi "(&" — 8 MiB, one v3 frame —
// overflowed the goroutine stack, which kills the process rather than
// panicking.
func TestParseDeepNestingIsError(t *testing.T) {
	nest := func(op string, n int) string {
		return strings.Repeat("("+op, n) + "(a=b)" + strings.Repeat(")", n)
	}
	if _, err := ParseFilter(nest("&", maxFilterDepth-1)); err != nil {
		t.Fatalf("%d levels: %v", maxFilterDepth, err)
	}
	for name, s := range map[string]string{
		"&":       nest("&", maxFilterDepth),
		"|":       nest("|", maxFilterDepth),
		"!":       nest("!", maxFilterDepth),
		"4 Mi (&": strings.Repeat("(&", 4<<20),
	} {
		_, err := ParseFilter(s)
		if err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Errorf("%s: err = %v, want the nesting bound", name, err)
		}
		if err != nil && len(err.Error()) > 200 {
			t.Errorf("%s: the error is %d bytes long", name, len(err.Error()))
		}
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	srcs := []string{
		"(a=b)",
		"(&(a=b)(c>=5))",
		"(|(a=b)(!(c=*)))",
		"(a=lucky*)",
	}
	for _, s := range srcs {
		f := MustParseFilter(s)
		again := MustParseFilter(f.String())
		if f.String() != again.String() {
			t.Errorf("round trip: %q -> %q -> %q", s, f.String(), again.String())
		}
	}
}

func buildTestDIT(t *testing.T) *DIT {
	t.Helper()
	dit := NewDIT()
	root := NewEntry(MustParseDN("o=grid"))
	root.Set("objectclass", "GlobusTop")
	if err := dit.Add(root); err != nil {
		t.Fatal(err)
	}
	vo := NewEntry(MustParseDN("Mds-Vo-name=local, o=grid"))
	vo.Set("objectclass", "MdsVo")
	if err := dit.Add(vo); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"lucky3", "lucky4", "lucky7"} {
		if err := dit.Add(makeHostEntry(h, 50)); err != nil {
			t.Fatal(err)
		}
	}
	return dit
}

func TestDITAddAndGet(t *testing.T) {
	dit := buildTestDIT(t)
	if dit.Len() != 5 {
		t.Fatalf("Len = %d, want 5", dit.Len())
	}
	e, ok := dit.Get(MustParseDN("mds-host-hn=LUCKY7, mds-vo-name=local, o=grid"))
	if !ok || e.First("Mds-Host-hn") != "lucky7" {
		t.Fatal("case-insensitive Get failed")
	}
}

func TestDITAddDuplicateFails(t *testing.T) {
	dit := buildTestDIT(t)
	if err := dit.Add(makeHostEntry("lucky7", 10)); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
}

func TestDITAddCreatesGlueAncestors(t *testing.T) {
	dit := NewDIT()
	deep := NewEntry(MustParseDN("a=1, b=2, c=3"))
	deep.Set("objectclass", "X")
	if err := dit.Add(deep); err != nil {
		t.Fatal(err)
	}
	if dit.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (entry + 2 glue)", dit.Len())
	}
	if _, ok := dit.Get(MustParseDN("c=3")); !ok {
		t.Fatal("glue suffix missing")
	}
}

func TestDITUpsertReplaces(t *testing.T) {
	dit := buildTestDIT(t)
	dit.Upsert(makeHostEntry("lucky7", 99))
	e, _ := dit.Get(MustParseDN("Mds-Host-hn=lucky7, Mds-Vo-name=local, o=grid"))
	if e.First("Mds-Cpu-Free-1minX100") != "99" {
		t.Fatalf("upsert did not replace: %v", e.First("Mds-Cpu-Free-1minX100"))
	}
	if dit.Len() != 5 {
		t.Fatalf("Len changed to %d", dit.Len())
	}
}

func TestDITDeleteSubtree(t *testing.T) {
	dit := buildTestDIT(t)
	n := dit.Delete(MustParseDN("Mds-Vo-name=local, o=grid"))
	if n != 4 {
		t.Fatalf("deleted %d, want 4 (vo + 3 hosts)", n)
	}
	if dit.Len() != 1 {
		t.Fatalf("Len = %d, want 1", dit.Len())
	}
	if dit.Delete(MustParseDN("Mds-Vo-name=local, o=grid")) != 0 {
		t.Fatal("second delete removed something")
	}
}

func TestSearchScopes(t *testing.T) {
	dit := buildTestDIT(t)
	vo := MustParseDN("Mds-Vo-name=local, o=grid")

	base, _ := dit.Search(vo, ScopeBase, nil)
	if len(base) != 1 {
		t.Fatalf("base search = %d entries, want 1", len(base))
	}
	one, _ := dit.Search(vo, ScopeOne, nil)
	if len(one) != 3 {
		t.Fatalf("one search = %d entries, want 3", len(one))
	}
	sub, _ := dit.Search(vo, ScopeSub, nil)
	if len(sub) != 4 {
		t.Fatalf("sub search = %d entries, want 4", len(sub))
	}
	all, _ := dit.Search(nil, ScopeSub, nil)
	if len(all) != 5 {
		t.Fatalf("root sub search = %d entries, want 5", len(all))
	}
}

func TestSearchWithFilter(t *testing.T) {
	dit := buildTestDIT(t)
	f := MustParseFilter("(Mds-Host-hn=lucky4)")
	got, visited := dit.Search(nil, ScopeSub, f)
	if len(got) != 1 || got[0].First("Mds-Host-hn") != "lucky4" {
		t.Fatalf("filtered search = %v", got)
	}
	if visited != 5 {
		t.Fatalf("visited = %d, want 5 (full subtree walk)", visited)
	}
}

func TestSearchMissingBase(t *testing.T) {
	dit := buildTestDIT(t)
	got, _ := dit.Search(MustParseDN("o=nowhere"), ScopeSub, nil)
	if got != nil {
		t.Fatalf("search under missing base = %v", got)
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	dit := buildTestDIT(t)
	first, _ := dit.Search(nil, ScopeSub, nil)
	for i := 0; i < 5; i++ {
		again, _ := dit.Search(nil, ScopeSub, nil)
		for j := range first {
			if first[j].DN.Norm() != again[j].DN.Norm() {
				t.Fatal("search order varies between calls")
			}
		}
	}
}

func TestProjectAllAndSize(t *testing.T) {
	dit := buildTestDIT(t)
	all, _ := dit.Search(nil, ScopeSub, MustParseFilter("(objectclass=MdsHost)"))
	attrs := []string{"Mds-Host-hn"}
	full := SizeBytes(all, nil)
	part := SizeBytes(all, attrs)
	if part >= full {
		t.Fatalf("projected size %d not smaller than full %d", part, full)
	}
	if copied := SizeBytes(ProjectAll(all, attrs), nil); part != copied {
		t.Fatalf("projected size %d, the projected copies measure %d", part, copied)
	}
	if empty := SizeBytes(all, []string{}); empty != full {
		t.Fatalf("empty projection measures %d, full %d", empty, full)
	}
}

// Property: De Morgan for filters — (!(&(a)(b))) matches exactly when
// (|(!(a))(!(b))) matches.
func TestFilterDeMorganProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		e := NewEntry(MustParseDN("o=grid"))
		e.Set("x", fmt.Sprintf("%d", x%4))
		e.Set("y", fmt.Sprintf("%d", y%4))
		lhs := MustParseFilter("(!(&(x=1)(y=1)))")
		rhs := MustParseFilter("(|(!(x=1))(!(y=1)))")
		return lhs.Matches(e) == rhs.Matches(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: double negation is identity.
func TestFilterDoubleNegationProperty(t *testing.T) {
	f := func(v uint8) bool {
		e := NewEntry(MustParseDN("o=grid"))
		e.Set("x", fmt.Sprintf("%d", v%8))
		inner := MustParseFilter("(x=3)")
		doubled := MustParseFilter("(!(!(x=3)))")
		return inner.Matches(e) == doubled.Matches(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: >= and <= together imply equality on numeric attributes.
func TestFilterOrderConsistencyProperty(t *testing.T) {
	f := func(a, b int16) bool {
		e := NewEntry(MustParseDN("o=grid"))
		e.Set("v", fmt.Sprintf("%d", a))
		ge := MustParseFilter(fmt.Sprintf("(v>=%d)", b))
		le := MustParseFilter(fmt.Sprintf("(v<=%d)", b))
		both := ge.Matches(e) && le.Matches(e)
		return both == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
