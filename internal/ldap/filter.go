package ldap

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Filter is a parsed RFC 1960 search filter.
type Filter interface {
	// Matches reports whether the entry satisfies the filter.
	Matches(e *Entry) bool
	// String renders the filter in parenthesized RFC 1960 form.
	String() string
}

type andFilter struct{ subs []Filter }
type orFilter struct{ subs []Filter }
type notFilter struct{ sub Filter }

// cmpFilter is one equality, substring, presence, approximate, >= or <=
// assertion. attr, op and value are the assertion as written, which
// String renders; the rest is normalized once, by ParseFilter, so neither
// Matches nor the index planner lowers, splits or parses the filter's
// text again, per query or per entry.
type cmpFilter struct {
	attr  string
	op    string // "=", ">=", "<=", "~="
	value string // "*" alone is presence
	key   string // attr lowered: the key entries and the index file it under
	lower string // value lowered: an equality's index key, an ordering's fallback operand
	// parts is an equality's substring pattern, its lowered text split
	// on '*' (nil when value holds no '*', and for presence); num is a
	// >= or <= assertion's value as a number, valid when isNum.
	parts []string
	num   float64
	isNum bool
}

// newCmpFilter normalizes an assertion as cmpFilter describes.
func newCmpFilter(attr, op, value string) *cmpFilter {
	f := &cmpFilter{attr: attr, op: op, value: value,
		key: strings.ToLower(attr), lower: strings.ToLower(value)}
	switch {
	case op == ">=" || op == "<=":
		n, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		f.num, f.isNum = n, err == nil
	case value != "*" && strings.Contains(f.lower, "*"):
		f.parts = strings.Split(f.lower, "*")
	}
	return f
}

func (f andFilter) String() string  { return "(&" + joinFilters(f.subs) + ")" }
func (f orFilter) String() string   { return "(|" + joinFilters(f.subs) + ")" }
func (f notFilter) String() string  { return "(!" + f.sub.String() + ")" }
func (f *cmpFilter) String() string { return "(" + f.attr + f.op + f.value + ")" }

func joinFilters(subs []Filter) string {
	var sb strings.Builder
	for _, s := range subs {
		sb.WriteString(s.String())
	}
	return sb.String()
}

func (f andFilter) Matches(e *Entry) bool {
	for _, s := range f.subs {
		if !s.Matches(e) {
			return false
		}
	}
	return true
}

func (f orFilter) Matches(e *Entry) bool {
	for _, s := range f.subs {
		if s.Matches(e) {
			return true
		}
	}
	return false
}

func (f notFilter) Matches(e *Entry) bool { return !f.sub.Matches(e) }

func (f *cmpFilter) Matches(e *Entry) bool {
	av := e.attrs[f.key]
	if av == nil {
		return false
	}
	switch f.op {
	case "=", "~=":
		if f.value == "*" {
			return len(av.values) > 0
		}
		for _, v := range av.values {
			if f.matchValue(v) {
				return true
			}
		}
		return false
	case ">=", "<=":
		for _, v := range av.values {
			if f.orders(v) {
				return true
			}
		}
		return false
	}
	return false
}

// matchValue reports whether v equals f's value, or matches its
// substring pattern, case-insensitively: what comparing
// strings.ToLower(v) with the lowered pattern reports. An ASCII v is
// compared folding as it goes; any other is lowered first, which leaves
// no byte the fold changes.
func (f *cmpFilter) matchValue(v string) bool {
	if !isASCII(v) {
		v = strings.ToLower(v)
	}
	if f.parts == nil {
		return len(v) == len(f.lower) && hasPrefixFold(v, f.lower)
	}
	first, last := f.parts[0], f.parts[len(f.parts)-1]
	// The anchors first, then each middle part after the one before.
	if !hasPrefixFold(v, first) {
		return false
	}
	v = v[len(first):]
	if len(v) < len(last) || !hasPrefixFold(v[len(v)-len(last):], last) {
		return false
	}
	v = v[:len(v)-len(last)]
	for _, mid := range f.parts[1 : len(f.parts)-1] {
		if mid == "" {
			continue
		}
		i := indexFold(v, mid)
		if i < 0 {
			return false
		}
		v = v[i+len(mid):]
	}
	return true
}

// orders reports whether v stands in f's order (>= or <=) to f's value:
// numerically when both parse as numbers, else by their lowered text —
// matching how MDS data (load averages, free memory) is compared in
// practice.
func (f *cmpFilter) orders(v string) bool {
	var cmp int
	numeric := false
	if f.isNum {
		if n, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			numeric = true
			switch {
			case n < f.num:
				cmp = -1
			case n > f.num:
				cmp = 1
			}
		}
	}
	if !numeric {
		cmp = compareFold(v, f.lower)
	}
	if f.op == ">=" {
		return cmp >= 0
	}
	return cmp <= 0
}

// isASCII reports whether s has no byte above 0x7f.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// lowerASCII lower-cases one ASCII letter and leaves any other byte.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// hasPrefixFold reports whether s, its ASCII letters lower-cased, starts
// with the lowered prefix.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if lowerASCII(s[i]) != prefix[i] {
			return false
		}
	}
	return true
}

// indexFold is strings.Index of the lowered sub in s with its ASCII
// letters lower-cased.
func indexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if hasPrefixFold(s[i:], sub) {
			return i
		}
	}
	return -1
}

// compareFold is strings.Compare(strings.ToLower(s), lower) for a
// lowered operand, comparing an ASCII s in place.
func compareFold(s, lower string) int {
	if !isASCII(s) {
		return strings.Compare(strings.ToLower(s), lower)
	}
	for i := 0; i < len(s) && i < len(lower); i++ {
		if c, d := lowerASCII(s[i]), lower[i]; c != d {
			if c < d {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(lower):
		return -1
	case len(s) > len(lower):
		return 1
	}
	return 0
}

// ParseFilter parses an RFC 1960 filter string such as
// "(&(objectclass=MdsHost)(Mds-Cpu-Free-1minX100>=50))".
func ParseFilter(s string) (Filter, error) {
	p := &filterParser{src: s}
	f, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("ldap: trailing input in filter %q at %d", s, p.pos)
	}
	return f, nil
}

// MustParseFilter is ParseFilter that panics on error.
func MustParseFilter(s string) Filter {
	f, err := ParseFilter(s)
	if err != nil {
		panic(err)
	}
	return f
}

type filterParser struct {
	src   string
	pos   int
	depth int // parse calls in progress
}

// maxFilterDepth bounds how deep filters may nest. parse recurses once
// per level, and a goroutine stack overflow kills the process instead
// of panicking — while a few MiB of "(&" fit in one v3 frame.
const maxFilterDepth = 1000

func (p *filterParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ldap: filter %q at %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

func (p *filterParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *filterParser) parse() (Filter, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxFilterDepth {
		// Not errf: it would quote the whole (hostile, huge) filter.
		return nil, fmt.Errorf("ldap: filter nested deeper than %d levels at %d", maxFilterDepth, p.pos)
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, p.errf("expected '('")
	}
	p.pos++
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unterminated filter")
	}
	switch p.src[p.pos] {
	case '&':
		p.pos++
		subs, err := p.parseSet()
		if err != nil {
			return nil, err
		}
		return andFilter{subs: subs}, nil
	case '|':
		p.pos++
		subs, err := p.parseSet()
		if err != nil {
			return nil, err
		}
		return orFilter{subs: subs}, nil
	case '!':
		p.pos++
		sub, err := p.parse()
		if err != nil {
			return nil, err
		}
		if err := p.expectClose(); err != nil {
			return nil, err
		}
		return notFilter{sub: sub}, nil
	}
	return p.parseComparison()
}

func (p *filterParser) parseSet() ([]Filter, error) {
	var subs []Filter
	for {
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			sub, err := p.parse()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
			continue
		}
		break
	}
	if len(subs) == 0 {
		return nil, p.errf("empty filter set")
	}
	if err := p.expectClose(); err != nil {
		return nil, err
	}
	return subs, nil
}

func (p *filterParser) expectClose() error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return p.errf("expected ')'")
	}
	p.pos++
	return nil
}

func (p *filterParser) parseComparison() (Filter, error) {
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("=<>~()", rune(p.src[p.pos])) {
		p.pos++
	}
	attr := strings.TrimSpace(p.src[start:p.pos])
	if attr == "" {
		return nil, p.errf("missing attribute name")
	}
	if p.pos >= len(p.src) {
		return nil, p.errf("missing comparison operator")
	}
	var op string
	switch p.src[p.pos] {
	case '=':
		op = "="
		p.pos++
	case '>', '<', '~':
		c := p.src[p.pos]
		p.pos++
		if p.pos >= len(p.src) || p.src[p.pos] != '=' {
			return nil, p.errf("expected '=' after %q", c)
		}
		p.pos++
		op = string(c) + "="
	default:
		return nil, p.errf("bad comparison operator %q", p.src[p.pos])
	}
	vstart := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ')' {
		p.pos++
	}
	value := strings.TrimSpace(p.src[vstart:p.pos])
	if value == "" {
		return nil, p.errf("missing comparison value")
	}
	if err := p.expectClose(); err != nil {
		return nil, err
	}
	return newCmpFilter(attr, op, value), nil
}
