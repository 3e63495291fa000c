package ldap

import (
	"fmt"
	"strconv"
	"strings"
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

// cmpFilter covers equality, substring, presence, >= and <= assertions.
type cmpFilter struct {
	attr string
	op   string // "=", ">=", "<=", "~="
	// For op "=": pattern parts; a nil parts with value "*" is presence,
	// substring patterns are split on '*'.
	value string
}

func (f andFilter) String() string { return "(&" + joinFilters(f.subs) + ")" }
func (f orFilter) String() string  { return "(|" + joinFilters(f.subs) + ")" }
func (f notFilter) String() string { return "(!" + f.sub.String() + ")" }
func (f cmpFilter) String() string { return "(" + f.attr + f.op + f.value + ")" }

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

func (f cmpFilter) Matches(e *Entry) bool {
	values := e.Get(f.attr)
	switch f.op {
	case "=", "~=":
		if f.value == "*" {
			return len(values) > 0
		}
		for _, v := range values {
			if matchPattern(f.value, v) {
				return true
			}
		}
		return false
	case ">=", "<=":
		for _, v := range values {
			if ordered(f.op, v, f.value) {
				return true
			}
		}
		return false
	}
	return false
}

// matchPattern implements case-insensitive equality with '*' wildcards.
func matchPattern(pattern, value string) bool {
	p := strings.ToLower(pattern)
	v := strings.ToLower(value)
	if !strings.Contains(p, "*") {
		return p == v
	}
	parts := strings.Split(p, "*")
	// Leading anchor.
	if parts[0] != "" {
		if !strings.HasPrefix(v, parts[0]) {
			return false
		}
		v = v[len(parts[0]):]
	}
	// Trailing anchor.
	last := parts[len(parts)-1]
	if last != "" {
		if !strings.HasSuffix(v, last) {
			return false
		}
		v = v[:len(v)-len(last)]
	}
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		i := strings.Index(v, mid)
		if i < 0 {
			return false
		}
		v = v[i+len(mid):]
	}
	return true
}

// ordered compares numerically when both operands parse as numbers,
// falling back to case-insensitive string order — matching how MDS data
// (load averages, free memory) is compared in practice.
func ordered(op, a, b string) bool {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	var cmp int
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			cmp = -1
		case fa > fb:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(strings.ToLower(a), strings.ToLower(b))
	}
	if op == ">=" {
		return cmp >= 0
	}
	return cmp <= 0
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
	return cmpFilter{attr: attr, op: op, value: value}, nil
}

// PresentAll is the match-everything filter "(objectclass=*)".
var PresentAll = MustParseFilter("(objectclass=*)")
