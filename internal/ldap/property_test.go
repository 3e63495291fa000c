package ldap

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// Property: DN String/ParseDN round-trips for well-formed components.
func TestDNRoundTripProperty(t *testing.T) {
	clean := func(s string, fallback string) string {
		var sb strings.Builder
		for _, c := range s {
			if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
				sb.WriteRune(c)
			}
		}
		if sb.Len() == 0 {
			return fallback
		}
		return sb.String()
	}
	f := func(attrs, values []string) bool {
		n := len(attrs)
		if len(values) < n {
			n = len(values)
		}
		if n == 0 {
			return true
		}
		if n > 6 {
			n = 6
		}
		var dn DN
		for i := 0; i < n; i++ {
			dn = append(dn, RDN{
				Attr:  clean(attrs[i], fmt.Sprintf("a%d", i)),
				Value: clean(values[i], fmt.Sprintf("v%d", i)),
			})
		}
		again, err := ParseDN(dn.String())
		if err != nil {
			return false
		}
		return again.Equal(dn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Child/Parent are inverse.
func TestDNChildParentProperty(t *testing.T) {
	f := func(depth uint8) bool {
		dn := MustParseDN("o=grid")
		for i := 0; i < int(depth%6); i++ {
			dn = dn.Child("cn", fmt.Sprintf("n%d", i))
		}
		child := dn.Child("cn", "leaf")
		return child.Parent().Equal(dn) && child.IsDescendantOf(dn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a filter and its double negation match the same entries.
func TestFilterNegationInvarianceProperty(t *testing.T) {
	f := func(v uint8, ge uint8) bool {
		e := NewEntry(MustParseDN("o=grid"))
		e.Set("load", fmt.Sprintf("%d", v%100))
		base := fmt.Sprintf("(load>=%d)", ge%100)
		pos := MustParseFilter(base)
		neg := MustParseFilter("(!(!" + base + "))")
		return pos.Matches(e) == neg.Matches(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: conjunction is commutative.
func TestFilterAndCommutativeProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		e := NewEntry(MustParseDN("o=grid"))
		e.Set("a", fmt.Sprintf("%d", x%8))
		e.Set("b", fmt.Sprintf("%d", y%8))
		ab := MustParseFilter("(&(a=3)(b=5))")
		ba := MustParseFilter("(&(b=5)(a=3))")
		return ab.Matches(e) == ba.Matches(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: search with ScopeSub from the root returns every entry that a
// presence filter matches, and projection never increases entry sizes.
func TestSearchProjectionShrinksProperty(t *testing.T) {
	f := func(n uint8) bool {
		dit := NewDIT()
		count := int(n%12) + 1
		for i := 0; i < count; i++ {
			e := NewEntry(MustParseDN(fmt.Sprintf("cn=e%d, o=grid", i)))
			e.Set("objectclass", "X")
			e.Set("payload", strings.Repeat("p", i+1))
			if err := dit.Add(e); err != nil {
				return false
			}
		}
		all, _ := dit.Search(nil, ScopeSub, MustParseFilter("(objectclass=X)"))
		if len(all) != count {
			return false
		}
		for _, e := range all {
			if e.ProjectedSizeBytes([]string{"objectclass"}) > e.SizeBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
