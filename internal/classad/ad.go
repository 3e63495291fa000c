package classad

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Ad is a ClassAd: an ordered set of attribute = expression pairs.
// Attribute names are case-insensitive; the original spelling of the first
// Set is preserved for printing.
type Ad struct {
	attrs map[string]adEntry
	order []string  // lowercase keys in insertion order
	lits  []literal // the constants SetValue and SetNamed bound
}

type adEntry struct {
	name string
	expr Expr
}

// NewAd returns an empty ClassAd.
func NewAd() *Ad {
	return &Ad{attrs: make(map[string]adEntry)}
}

// NewAdSized returns an empty ClassAd with room for n attributes, so
// binding up to n constants allocates nothing more.
func NewAdSized(n int) *Ad {
	return &Ad{attrs: make(map[string]adEntry, n), order: make([]string, 0, n), lits: make([]literal, 0, n)}
}

// Reset empties a, keeping the room its map and slices have grown, so an
// ad refilled from query to query binds its constants without allocating.
func (a *Ad) Reset() {
	clear(a.attrs)
	clear(a.order)
	clear(a.lits)
	a.order, a.lits = a.order[:0], a.lits[:0]
}

// Set binds an attribute to an expression, replacing any previous binding
// (the original spelling and position of a replaced attribute survive).
func (a *Ad) Set(name string, e Expr) { a.setLower(strings.ToLower(name), name, e) }

// setLower is Set with the key already lower-cased.
func (a *Ad) setLower(key, name string, e Expr) {
	if old, ok := a.attrs[key]; ok {
		a.attrs[key] = adEntry{name: old.name, expr: e}
		return
	}
	a.attrs[key] = adEntry{name: name, expr: e}
	a.order = append(a.order, key)
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

// SetValue binds an attribute to a constant value.
func (a *Ad) SetValue(name string, v Value) { a.Set(name, a.lit(v)) }

// SetNamed is SetValue for a name folded in advance: it binds a
// constant without folding the name or allocating for the value.
func (a *Ad) SetNamed(n Name, v Value) { a.setLower(n.lower, n.name, a.lit(v)) }

// lit places v in the ad's slab of constants and returns it as an
// expression. A full slab is not copied but replaced: the constants
// already bound point into it and stay where they are.
func (a *Ad) lit(v Value) Expr {
	if len(a.lits) == cap(a.lits) {
		a.lits = make([]literal, 0, max(4, 2*cap(a.lits)))
	}
	a.lits = append(a.lits, literal{v})
	return &a.lits[len(a.lits)-1]
}

// SetInt, SetReal, SetString and SetBool are conveniences for constant
// attributes.
func (a *Ad) SetInt(name string, i int64)    { a.SetValue(name, Int(i)) }
func (a *Ad) SetReal(name string, r float64) { a.SetValue(name, Real(r)) }
func (a *Ad) SetString(name, s string)       { a.SetValue(name, Str(s)) }
func (a *Ad) SetBool(name string, b bool)    { a.SetValue(name, Bool(b)) }

// SetExprString parses src as an expression and binds it to name.
func (a *Ad) SetExprString(name, src string) error {
	e, err := ParseExpr(src)
	if err != nil {
		return err
	}
	a.Set(name, e)
	return nil
}

// Lookup returns the expression bound to name (case-insensitive).
func (a *Ad) Lookup(name string) (Expr, bool) {
	var buf [foldBufLen]byte
	if n, ok := foldASCII(&buf, name); ok {
		e, ok := a.attrs[string(buf[:n])] // indexes without allocating the key
		return e.expr, ok
	}
	return a.lookupLower(strings.ToLower(name))
}

// lookupLower is Lookup with an already-lowercased key — the hot path
// for evaluation, where attribute references precompute their key.
func (a *Ad) lookupLower(lower string) (Expr, bool) {
	e, ok := a.attrs[lower]
	return e.expr, ok
}

// Delete removes an attribute, reporting whether it was present.
func (a *Ad) Delete(name string) bool {
	key := strings.ToLower(name)
	if _, ok := a.attrs[key]; !ok {
		return false
	}
	delete(a.attrs, key)
	for i, k := range a.order {
		if k == key {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	return true
}

// Len reports the number of attributes.
func (a *Ad) Len() int { return len(a.attrs) }

// At returns the i'th attribute in insertion order, 0 <= i < Len():
// its name in the original spelling and the expression bound to it.
func (a *Ad) At(i int) (name string, e Expr) {
	ent := a.attrs[a.order[i]]
	return ent.name, ent.expr
}

// Names returns attribute names (original spelling) in insertion order.
func (a *Ad) Names() []string {
	out := make([]string, 0, len(a.order))
	for _, k := range a.order {
		out = append(out, a.attrs[k].name)
	}
	return out
}

// Eval evaluates the named attribute against this ad alone: unqualified and
// MY references resolve here, TARGET references are undefined.
func (a *Ad) Eval(name string) Value {
	e, ok := a.Lookup(name)
	if !ok {
		return Undefined()
	}
	if l, ok := e.(*literal); ok {
		return l.v // a constant needs no evaluation context
	}
	ctx := &evalCtx{a: a, cur: a}
	return e.eval(ctx)
}

// EvalExpr evaluates an arbitrary expression in this ad's context.
func (a *Ad) EvalExpr(e Expr) Value {
	ctx := &evalCtx{a: a, cur: a}
	return e.eval(ctx)
}

// String renders the ad in new-ClassAd record syntax: [ a = 1; b = 2 ].
func (a *Ad) String() string { return string(a.appendRecord(nil)) }

func (a *Ad) appendRecord(dst []byte) []byte {
	dst = append(dst, "[ "...)
	for i, k := range a.order {
		if i > 0 {
			dst = append(dst, "; "...)
		}
		e := a.attrs[k]
		dst = append(append(dst, e.name...), " = "...)
		dst = e.expr.AppendTo(dst)
	}
	return append(dst, " ]"...)
}

// Unparse renders the ad in old-ClassAd style: one "name = expr" line per
// attribute, the on-the-wire format Condor tools exchange.
func (a *Ad) Unparse() string {
	var dst []byte
	for _, k := range a.order {
		e := a.attrs[k]
		dst = append(append(dst, e.name...), " = "...)
		dst = append(e.expr.AppendTo(dst), '\n')
	}
	return string(dst)
}

// sizeScratch holds the buffers SizeBytes renders non-constant
// expressions into, to measure them.
var sizeScratch = sync.Pool{New: func() any { return new([]byte) }}

// SizeBytes is the ad's wire size for the testbed's network model:
// len(a.Unparse()), counted rather than built. Constant attributes —
// all a Startd ad carries — are measured without rendering; any other
// expression is rendered into a pooled scratch buffer.
func (a *Ad) SizeBytes() int {
	n := 0
	var scratch *[]byte
	for _, k := range a.order {
		e := a.attrs[k]
		n += len(e.name) + len(" = ") + len("\n")
		if l, ok := e.expr.(*literal); ok {
			if ln, ok := l.v.renderedLen(); ok {
				n += ln
				continue
			}
		}
		if scratch == nil {
			scratch = sizeScratch.Get().(*[]byte)
		}
		*scratch = e.expr.AppendTo((*scratch)[:0])
		n += len(*scratch)
	}
	if scratch != nil {
		sizeScratch.Put(scratch)
	}
	return n
}

// sameAs reports structural identity (same attributes bound to textually
// identical expressions), ignoring insertion order and name case.
func (a *Ad) sameAs(o *Ad) bool {
	if a == nil || o == nil {
		return a == o
	}
	if len(a.attrs) != len(o.attrs) {
		return false
	}
	for k, e := range a.attrs {
		oe, ok := o.attrs[k]
		if !ok || e.expr.String() != oe.expr.String() {
			return false
		}
	}
	return true
}

// SortedNames returns attribute names (original spelling) sorted
// case-insensitively — handy for stable test output.
func (a *Ad) SortedNames() []string {
	keys := append([]string(nil), a.order...)
	sort.Strings(keys) // the stored keys are the lower-cased names
	for i, k := range keys {
		keys[i] = a.attrs[k].name
	}
	return keys
}

// ParseAd parses a ClassAd in either syntax: a new-ClassAd record
// "[ a = 1; b = 2 ]" or old-ClassAd attribute lines separated by newlines
// or semicolons.
func ParseAd(src string) (*Ad, error) {
	p := newParser(src)
	ad, err := p.parseAd()
	if err = p.settle(err); err != nil {
		return nil, err
	}
	return ad, nil
}

func (p *parser) parseAd() (*Ad, error) {
	if p.peekSig().kind == tokLBracket {
		e, err := p.parseAdLiteral()
		if err != nil {
			return nil, err
		}
		p.skipNewlines()
		if p.tok.kind != tokEOF {
			return nil, fmt.Errorf("classad: trailing input after ad at %s", p.tok)
		}
		ad := NewAd()
		rec := e.(adExpr)
		for i := range rec.names {
			ad.Set(rec.names[i], rec.exprs[i])
		}
		return ad, nil
	}
	ad := NewAd()
	for {
		p.skipNewlines()
		if p.tok.kind == tokEOF {
			return ad, nil
		}
		name, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return nil, err
		}
		if t := p.peekSig(); t.kind != tokAssign {
			return nil, fmt.Errorf("classad: expected '=', found %s", t)
		}
		p.line, p.open = true, 0 // the line starts after the '='
		p.scan()
		e, err := p.parseLine()
		if err != nil {
			return nil, err
		}
		ad.Set(name.text, e)
	}
}

// MustParseAd is ParseAd that panics on error.
func MustParseAd(src string) *Ad {
	ad, err := ParseAd(src)
	if err != nil {
		panic(err)
	}
	return ad
}

// parseLine parses an old-style attribute's expression, which ends at
// the line's end (scan reads it as EOF) or at the end of input — the
// old-ClassAd attribute-per-line rule. Input the expression leaves
// unread before the line's end is trailing input; with no line end
// ahead, the ad reads on from it ("a = 1 b = 2" holds two attributes).
func (p *parser) parseLine() (Expr, error) {
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peekSig(); t.kind != tokEOF && p.lineEndsAhead() {
		return nil, fmt.Errorf("classad: trailing input in attribute at %s", t)
	}
	p.line = false
	if p.tok.kind == tokEOF {
		p.scan() // past the line's end
	}
	return e, nil
}

// lineEndsAhead reports whether the line ends past the current token,
// lexing ahead on a copy of the lexer. A malformed token ahead stops the
// look; the parse reaches it later or settle finds it.
func (p *parser) lineEndsAhead() bool {
	l, open := p.lex, p.open
	for {
		t, err := l.next()
		if err != nil || t.kind == tokEOF {
			return false
		}
		if endsLine(t, &open) {
			return true
		}
	}
}
