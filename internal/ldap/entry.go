package ldap

import (
	"sort"
	"strings"
)

// Entry is a directory entry: a DN plus multi-valued attributes. Attribute
// names are case-insensitive; the first spelling is preserved for output.
type Entry struct {
	DN    DN
	attrs map[string]*attrValues
	order []string // lowercase attribute keys in insertion order

	// dnString and attrSize memoize DN.String() and the attribute lines'
	// share of SizeBytes(). A DIT fills them when it stores the entry —
	// under its owner's write lock, so the readers that share the stored
	// entry only read them. Add/Set drop attrSize again, and dnString is
	// used only while DN still renders as it, so reassigning DN is safe.
	// Zero values mean "not computed".
	dnString string
	attrSize int
}

type attrValues struct {
	name   string
	values []string
}

// NewEntry returns an empty entry at dn.
func NewEntry(dn DN) *Entry {
	return &Entry{DN: dn, attrs: make(map[string]*attrValues)}
}

// foldBufLen bounds the names folded on the stack; a longer (or
// non-ASCII) name goes through strings.ToLower.
const foldBufLen = 64

// foldASCII lower-cases name into buf and returns its length. ok is
// false when name does not fit or holds a non-ASCII byte, where only
// strings.ToLower folds the way the stored keys were folded.
func foldASCII(buf *[foldBufLen]byte, name string) (n int, ok bool) {
	if len(name) > len(buf) {
		return 0, false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 {
			return 0, false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return len(name), true
}

// lookup finds an attribute by name in any spelling.
func (e *Entry) lookup(attr string) (*attrValues, bool) {
	var buf [foldBufLen]byte
	if n, ok := foldASCII(&buf, attr); ok {
		av, ok := e.attrs[string(buf[:n])] // indexes without allocating the key
		return av, ok
	}
	av, ok := e.attrs[strings.ToLower(attr)]
	return av, ok
}

// Add appends a value to an attribute.
func (e *Entry) Add(attr, value string) {
	e.attrSize = 0
	av, ok := e.lookup(attr)
	if !ok {
		av = &attrValues{name: attr}
		key := strings.ToLower(attr)
		e.attrs[key] = av
		e.order = append(e.order, key)
	}
	av.values = append(av.values, value)
}

// Set replaces an attribute's values.
func (e *Entry) Set(attr string, values ...string) {
	e.attrSize = 0
	if av, ok := e.lookup(attr); ok {
		av.values = append([]string(nil), values...)
		return
	}
	key := strings.ToLower(attr)
	e.attrs[key] = &attrValues{name: attr, values: append([]string(nil), values...)}
	e.order = append(e.order, key)
}

// Get returns the attribute's values (nil when absent).
func (e *Entry) Get(attr string) []string {
	if av, ok := e.lookup(attr); ok {
		return av.values
	}
	return nil
}

// First returns the attribute's first value, or "".
func (e *Entry) First(attr string) string {
	vs := e.Get(attr)
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// Has reports whether the attribute is present with at least one value.
func (e *Entry) Has(attr string) bool { return len(e.Get(attr)) > 0 }

// Len reports the number of attributes.
func (e *Entry) Len() int { return len(e.order) }

// At returns the i'th attribute in insertion order, 0 <= i < Len(): its
// name in the original spelling and its values, which the caller must
// not modify.
func (e *Entry) At(i int) (name string, values []string) {
	av := e.attrs[e.order[i]]
	return av.name, av.values
}

// Attributes returns attribute names (original spelling) in insertion
// order.
func (e *Entry) Attributes() []string {
	out := make([]string, 0, len(e.order))
	for _, k := range e.order {
		out = append(out, e.attrs[k].name)
	}
	return out
}

// Project returns a copy of the entry keeping only the named attributes.
// MDS "query part" requests use this to return a slice of each entry.
func (e *Entry) Project(attrs []string) *Entry {
	return e.project(lowerSet(attrs))
}

// lowerSet folds a projection list into the set of keys it selects.
func lowerSet(attrs []string) map[string]struct{} {
	want := make(map[string]struct{}, len(attrs))
	for _, a := range attrs {
		want[strings.ToLower(a)] = struct{}{}
	}
	return want
}

// project is Project with the attribute names already folded into keys.
func (e *Entry) project(want map[string]struct{}) *Entry {
	out := &Entry{
		DN:       e.DN,
		dnString: e.dnString,
		attrs:    make(map[string]*attrValues, len(want)),
		order:    make([]string, 0, len(want)),
	}
	for _, k := range e.order {
		if _, ok := want[k]; ok {
			out.copyAttr(k, e.attrs[k])
		}
	}
	return out
}

// copyAttr stores a copy of another entry's attribute under the key that
// entry folded for it.
func (e *Entry) copyAttr(key string, av *attrValues) {
	e.attrs[key] = &attrValues{name: av.name, values: append([]string(nil), av.values...)}
	e.order = append(e.order, key)
}

// Clone deep-copies the entry.
func (e *Entry) Clone() *Entry {
	out := &Entry{
		DN:    e.DN,
		attrs: make(map[string]*attrValues, len(e.attrs)),
		order: make([]string, 0, len(e.order)),
	}
	for _, k := range e.order {
		out.copyAttr(k, e.attrs[k])
	}
	return out
}

// DNString is e.DN.String(), kept from when the entry was stored in a
// DIT (or projected from a stored entry) instead of rebuilt per call.
func (e *Entry) DNString() string {
	if e.dnString != "" && e.DN.rendersAs(e.dnString) {
		return e.dnString
	}
	return e.DN.String()
}

// LDIF renders the entry in LDIF-like form, the unit of the testbed's
// response-size model.
func (e *Entry) LDIF() string {
	var sb strings.Builder
	sb.Grow(e.SizeBytes())
	sb.WriteString("dn: ")
	sb.WriteString(e.DNString())
	sb.WriteByte('\n')
	for _, k := range e.order {
		av := e.attrs[k]
		for _, v := range av.values {
			sb.WriteString(av.name)
			sb.WriteString(": ")
			sb.WriteString(v)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// SizeBytes is the entry's wire size: len(e.LDIF()), counted rather
// than built.
func (e *Entry) SizeBytes() int {
	n := e.attrSize
	if n == 0 {
		n = e.countAttrSize()
	}
	return len("dn: ") + e.DN.stringLen() + len("\n") + n
}

func (e *Entry) countAttrSize() int {
	n := 0
	for _, k := range e.order {
		av := e.attrs[k]
		for _, v := range av.values {
			n += len(av.name) + len(": ") + len(v) + len("\n")
		}
	}
	return n
}

// memoize records the renderings a stored entry is asked for on every
// query that returns it. Only a DIT calls it, on entries it owns.
func (e *Entry) memoize() {
	e.dnString = e.DN.String()
	e.attrSize = e.countAttrSize()
}

// SortedAttributes returns attribute names sorted case-insensitively.
func (e *Entry) SortedAttributes() []string {
	keys := append([]string(nil), e.order...)
	sort.Strings(keys) // the stored keys are the lower-cased names
	for i, k := range keys {
		keys[i] = e.attrs[k].name
	}
	return keys
}
