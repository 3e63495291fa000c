package ldap

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
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
		if name[i] >= 0x80 {
			return 0, false
		}
		buf[i] = lowerASCII(name[i])
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

// Keeps reports whether an MDS "query part" projection onto attrs keeps
// the i'th attribute, 0 <= i < Len(). Empty attrs keep every attribute;
// otherwise a name in attrs must fold to the attribute's key the way Add
// folded it (strings.ToLower). Nothing is copied: a query part reads
// the entry in place.
func (e *Entry) Keeps(i int, attrs []string) bool {
	return len(attrs) == 0 || selects(attrs, e.order[i])
}

// selects reports whether some name in attrs folds to key.
func selects(attrs []string, key string) bool {
	for _, a := range attrs {
		if foldsTo(a, key) {
			return true
		}
	}
	return false
}

// foldsTo reports strings.ToLower(name) == key without allocating. The
// key is strings.ToLower's output, which lowers rune by rune with
// unicode.ToLower and writes U+FFFD for a byte that is not UTF-8, so the
// two are compared rune by rune; an ASCII byte is lowered in place.
// (EqualFold would also match 'ſ' to 's'.)
func foldsTo(name, key string) bool {
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if key == "" || key[0] != c {
				return false
			}
			i, key = i+1, key[1:]
			continue
		}
		r, n := utf8.DecodeRuneInString(name[i:])
		r = unicode.ToLower(r)
		k, m := utf8.DecodeRuneInString(key)
		if k != r || m != utf8.RuneLen(r) {
			return false
		}
		i, key = i+n, key[m:]
	}
	return key == ""
}

// Clone deep-copies the entry.
func (e *Entry) Clone() *Entry {
	out := &Entry{
		DN:    e.DN,
		attrs: make(map[string]*attrValues, len(e.attrs)),
		order: make([]string, 0, len(e.order)),
	}
	for _, k := range e.order {
		av := e.attrs[k]
		out.attrs[k] = &attrValues{name: av.name, values: append([]string(nil), av.values...)}
		out.order = append(out.order, k)
	}
	return out
}

// DNString is e.DN.String(), kept from when the entry was stored in a
// DIT instead of rebuilt per call.
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

// ProjectedSizeBytes is the wire size of the entry projected onto attrs
// (see Keeps): the SizeBytes of the projection, counted without
// building it.
func (e *Entry) ProjectedSizeBytes(attrs []string) int {
	if len(attrs) == 0 {
		return e.SizeBytes()
	}
	n := len("dn: ") + e.DN.stringLen() + len("\n")
	for _, k := range e.order {
		if selects(attrs, k) {
			n += e.attrs[k].size()
		}
	}
	return n
}

func (e *Entry) countAttrSize() int {
	n := 0
	for _, k := range e.order {
		n += e.attrs[k].size()
	}
	return n
}

// size is the attribute's share of its entry's LDIF: one line per value.
func (av *attrValues) size() int {
	n := 0
	for _, v := range av.values {
		n += len(av.name) + len(": ") + len(v) + len("\n")
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
