package classad

import (
	"strings"
)

// Expr is a parsed ClassAd expression. Expressions are immutable after
// parsing and safe to evaluate from multiple contexts.
type Expr interface {
	// String renders the expression in canonical, re-parseable form:
	// binary and ternary operations are fully parenthesized.
	String() string
	// AppendTo appends the canonical form — exactly the bytes of
	// String — to dst and returns the extended buffer.
	AppendTo(dst []byte) []byte
	eval(ctx *evalCtx) Value
}

// appendExprs appends items separated by ", ".
func appendExprs(dst []byte, items []Expr) []byte {
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = it.AppendTo(dst)
	}
	return dst
}

// literal is a constant value. It is used by pointer, so an Ad can bind
// constants that live in its own slab without boxing each one.
type literal struct{ v Value }

func (l *literal) String() string             { return l.v.String() }
func (l *literal) AppendTo(dst []byte) []byte { return l.v.AppendTo(dst) }
func (l *literal) eval(ctx *evalCtx) Value    { return l.v }

// Lit wraps a Value as a constant expression.
func Lit(v Value) Expr { return &literal{v} }

// scope qualifies an attribute reference.
type scope int

const (
	scopeNone   scope = iota // unqualified: self, then target
	scopeMy                  // MY.attr: self only
	scopeTarget              // TARGET.attr: other ad only
)

// Name is an attribute name with its Ad lookup key folded once, for a
// caller that binds the same name into many ads — the Hawkeye Modules
// fold theirs when they are built, the way an attribute reference folds
// its key at parse time.
type Name struct {
	name  string // original spelling, for printing
	lower string // strings.ToLower(name), the Ad lookup key
}

// NewName folds name once, for SetNamed.
func NewName(name string) Name { return Name{name: name, lower: strings.ToLower(name)} }

// attrRef is a reference to an attribute, optionally scope-qualified.
// Its name is folded once at parse time so evaluation does not re-fold
// it on every lookup.
type attrRef struct {
	sc scope
	Name
}

// newAttrRef builds an attribute reference with its lookup key
// precomputed.
func newAttrRef(sc scope, name string) attrRef {
	return attrRef{sc: sc, Name: NewName(name)}
}

func (a attrRef) String() string { return string(a.AppendTo(nil)) }

func (a attrRef) AppendTo(dst []byte) []byte {
	switch a.sc {
	case scopeMy:
		dst = append(dst, "MY."...)
	case scopeTarget:
		dst = append(dst, "TARGET."...)
	}
	return append(dst, a.name...)
}

// unary is a prefix operation: !, -, +.
type unary struct {
	op string
	x  Expr
}

func (u unary) String() string { return string(u.AppendTo(nil)) }

func (u unary) AppendTo(dst []byte) []byte {
	dst = append(append(dst, '('), u.op...)
	return append(u.x.AppendTo(dst), ')')
}

// binary is an infix operation.
type binary struct {
	op   string
	l, r Expr
}

func (b binary) String() string { return string(b.AppendTo(nil)) }

func (b binary) AppendTo(dst []byte) []byte {
	dst = b.l.AppendTo(append(dst, '('))
	dst = append(append(append(dst, ' '), b.op...), ' ')
	return append(b.r.AppendTo(dst), ')')
}

// cond is the ternary ?: operator.
type cond struct {
	c, t, f Expr
}

func (c cond) String() string { return string(c.AppendTo(nil)) }

func (c cond) AppendTo(dst []byte) []byte {
	dst = c.c.AppendTo(append(dst, '('))
	dst = c.t.AppendTo(append(dst, " ? "...))
	dst = c.f.AppendTo(append(dst, " : "...))
	return append(dst, ')')
}

// call is a built-in function invocation.
type call struct {
	name string // original spelling
	args []Expr
}

func (c call) String() string { return string(c.AppendTo(nil)) }

func (c call) AppendTo(dst []byte) []byte {
	dst = append(append(dst, c.name...), '(')
	return append(appendExprs(dst, c.args), ')')
}

// listExpr is a list constructor {e1, e2, ...}.
type listExpr struct{ items []Expr }

func (l listExpr) String() string { return string(l.AppendTo(nil)) }

func (l listExpr) AppendTo(dst []byte) []byte {
	return append(appendExprs(append(dst, '{'), l.items), '}')
}

// adExpr is a nested classad constructor [a = 1; b = 2].
type adExpr struct {
	names []string
	exprs []Expr
}

func (a adExpr) String() string { return string(a.AppendTo(nil)) }

func (a adExpr) AppendTo(dst []byte) []byte {
	dst = append(dst, "[ "...)
	for i := range a.names {
		if i > 0 {
			dst = append(dst, "; "...)
		}
		dst = append(append(dst, a.names[i]...), " = "...)
		dst = a.exprs[i].AppendTo(dst)
	}
	return append(dst, " ]"...)
}
