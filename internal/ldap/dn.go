// Package ldap implements the directory engine underneath MDS: a
// hierarchical Directory Information Tree of attribute-valued entries,
// RFC 1960-style search filters, and base/one-level/subtree search. MDS 2.1
// was built on OpenLDAP; this package supplies the same data model and
// query semantics without the wire protocol.
package ldap

import (
	"fmt"
	"strings"
)

// RDN is a single relative distinguished name component, attr=value.
type RDN struct {
	Attr  string
	Value string
}

// String renders the RDN as attr=value.
func (r RDN) String() string { return r.Attr + "=" + r.Value }

// DN is a distinguished name: RDNs ordered leaf-first, as in
// "Mds-Host-hn=lucky7, Mds-Vo-name=local, o=grid".
type DN []RDN

// ParseDN parses a comma-separated DN. The empty string is the root DN.
func ParseDN(s string) (DN, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	dn := make(DN, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		eq := strings.IndexByte(part, '=')
		if eq <= 0 || eq == len(part)-1 {
			return nil, fmt.Errorf("ldap: bad RDN %q in DN %q", part, s)
		}
		dn = append(dn, RDN{
			Attr:  strings.TrimSpace(part[:eq]),
			Value: strings.TrimSpace(part[eq+1:]),
		})
	}
	return dn, nil
}

// MustParseDN is ParseDN that panics on error, for statically known DNs.
func MustParseDN(s string) DN {
	dn, err := ParseDN(s)
	if err != nil {
		panic(err)
	}
	return dn
}

// String renders the DN in the usual leaf-first comma form.
func (d DN) String() string {
	var sb strings.Builder
	sb.Grow(d.stringLen())
	for i, r := range d {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(r.Attr)
		sb.WriteByte('=')
		sb.WriteString(r.Value)
	}
	return sb.String()
}

// stringLen is len(d.String()).
func (d DN) stringLen() int {
	n := 0
	for i, r := range d {
		if i > 0 {
			n += len(", ")
		}
		n += len(r.Attr) + len("=") + len(r.Value)
	}
	return n
}

// rendersAs reports whether s == d.String(), without building it.
func (d DN) rendersAs(s string) bool {
	for i, r := range d {
		if i > 0 {
			if !strings.HasPrefix(s, ", ") {
				return false
			}
			s = s[len(", "):]
		}
		a, v := len(r.Attr), len(r.Value)
		if len(s) < a+1+v || s[:a] != r.Attr || s[a] != '=' || s[a+1:a+1+v] != r.Value {
			return false
		}
		s = s[a+1+v:]
	}
	return s == ""
}

// Norm returns the case-normalized comparison key for the DN: each RDN
// as attr=value, lower-cased with the value trimmed, joined by commas.
// An ASCII DN — every MDS DN — is folded as it is written, in one
// allocation; any other is lowered whole, which strings.ToLower does
// rune by rune, as lowering each part would.
func (d DN) Norm() string {
	var b strings.Builder
	b.Grow(d.stringLen()) // enough: "," joins where ", " does, and values are trimmed
	ascii := true
	for i, r := range d {
		if i > 0 {
			b.WriteByte(',')
		}
		ascii = writeLowerASCII(&b, r.Attr) && ascii
		b.WriteByte('=')
		ascii = writeLowerASCII(&b, strings.TrimSpace(r.Value)) && ascii
	}
	if !ascii {
		return strings.ToLower(b.String())
	}
	return b.String()
}

// writeLowerASCII writes s to b with its ASCII letters lower-cased and
// reports whether s is all ASCII.
func writeLowerASCII(b *strings.Builder, s string) bool {
	ascii := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		ascii = ascii && c < 0x80
		b.WriteByte(c)
	}
	return ascii
}

// Parent returns the DN with the leaf RDN removed; the parent of a
// single-RDN DN (or the root) is the root DN.
func (d DN) Parent() DN {
	if len(d) == 0 {
		return nil
	}
	return d[1:]
}

// Child returns the DN extended with a new leaf RDN.
func (d DN) Child(attr, value string) DN {
	child := make(DN, 0, len(d)+1)
	child = append(child, RDN{Attr: attr, Value: value})
	child = append(child, d...)
	return child
}

// Depth reports the number of RDNs.
func (d DN) Depth() int { return len(d) }

// Equal reports case-insensitive equality of two DNs.
func (d DN) Equal(o DN) bool { return d.Norm() == o.Norm() }

// IsDescendantOf reports whether d lies strictly under ancestor.
func (d DN) IsDescendantOf(ancestor DN) bool {
	if len(d) <= len(ancestor) {
		return false
	}
	return DN(d[len(d)-len(ancestor):]).Norm() == ancestor.Norm()
}
