package classad

import (
	"fmt"
	"strings"
)

// parser consumes a token stream produced by lexAll.
type parser struct {
	toks  []token
	pos   int
	depth int // parseExpr and parseUnary calls in progress
}

// maxParseDepth bounds how deep an expression may nest. Every nesting
// construct — parentheses, lists, ads, call arguments, ?: arms — recurses
// through parseExpr, and a chain of unary operators through parseUnary;
// a goroutine stack overflow kills the process instead of panicking,
// while a few MiB of "(" fit in one v3 frame. So does the tree: x && x
// && … loops in parseAnd but evaluates recursively, one level per link.
const maxParseDepth = 1000

// nest enters one level of recursion; the caller defers p.depth--.
func (p *parser) nest() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("classad: expression nested deeper than %d levels", maxParseDepth)
	}
	return nil
}

// ParseExpr parses a single ClassAd expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	p.skipNewlines()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("classad: trailing input at %s", p.peek())
	}
	return e, nil
}

// MustParseExpr is ParseExpr that panics on error, for statically known
// expressions.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.pos++
	}
}

// peekSig returns the next significant (non-newline) token without
// consuming newlines permanently — used where newlines are insignificant.
func (p *parser) peekSig() token {
	p.skipNewlines()
	return p.peek()
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.peekSig()
	if t.kind != k {
		return token{}, fmt.Errorf("classad: expected %s, found %s", what, t)
	}
	return p.advance(), nil
}

// parseExpr parses the lowest-precedence production (the ?: ternary).
// The outermost call also holds the tree it built to maxParseDepth.
func (p *parser) parseExpr() (Expr, error) {
	defer func() { p.depth-- }()
	if err := p.nest(); err != nil {
		return nil, err
	}
	c, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peekSig().kind == tokQuest {
		p.advance()
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon, "':'"); err != nil {
			return nil, err
		}
		f, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c = cond{c: c, t: t, f: f}
	}
	if p.depth == 1 && deeperThan(c, maxParseDepth) {
		return nil, fmt.Errorf("classad: expression nested deeper than %d levels", maxParseDepth)
	}
	return c, nil
}

// deeperThan reports whether e has a node more than max levels below
// it. It recurses at most max+1 levels, however deep e is.
func deeperThan(e Expr, max int) bool {
	if max < 0 {
		return true
	}
	var kids []Expr
	switch x := e.(type) {
	case binary:
		kids = []Expr{x.l, x.r}
	case unary:
		kids = []Expr{x.x}
	case cond:
		kids = []Expr{x.c, x.t, x.f}
	case call:
		kids = x.args
	case listExpr:
		kids = x.items
	case adExpr:
		kids = x.exprs
	}
	for _, k := range kids {
		if deeperThan(k, max-1) {
			return true
		}
	}
	return false
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekSig().kind == tokOr {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binary{op: "||", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.peekSig().kind == tokAnd {
		p.advance()
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = binary{op: "&&", l: l, r: r}
	}
	return l, nil
}

var comparisonOps = map[tokKind]string{
	tokEQ: "==", tokNE: "!=", tokLT: "<", tokLE: "<=",
	tokGT: ">", tokGE: ">=", tokMetaEQ: "=?=", tokMetaNE: "=!=",
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := comparisonOps[p.peekSig().kind]
		if !ok {
			return l, nil
		}
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = binary{op: op, l: l, r: r}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peekSig().kind {
		case tokPlus:
			p.advance()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = binary{op: "+", l: l, r: r}
		case tokMinus:
			p.advance()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = binary{op: "-", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.peekSig().kind {
		case tokStar:
			op = "*"
		case tokSlash:
			op = "/"
		case tokPercent:
			op = "%"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binary{op: op, l: l, r: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	defer func() { p.depth-- }()
	if err := p.nest(); err != nil {
		return nil, err
	}
	switch p.peekSig().kind {
	case tokNot:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unary{op: "!", x: x}, nil
	case tokMinus:
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals so that "-5" round-trips as a
		// literal rather than a unary operation.
		if lit, ok := x.(*literal); ok {
			if i, isInt := lit.v.IntVal(); isInt {
				return &literal{Int(-i)}, nil
			}
			if r, isReal := lit.v.RealVal(); isReal {
				return &literal{Real(-r)}, nil
			}
		}
		return unary{op: "-", x: x}, nil
	case tokPlus:
		p.advance()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peekSig()
	switch t.kind {
	case tokInt:
		p.advance()
		return &literal{Int(t.i)}, nil
	case tokReal:
		p.advance()
		return &literal{Real(t.r)}, nil
	case tokString:
		p.advance()
		return &literal{Str(t.text)}, nil
	case tokIdent:
		return p.parseIdent()
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBrace:
		return p.parseList()
	case tokLBracket:
		return p.parseAdLiteral()
	}
	return nil, fmt.Errorf("classad: unexpected %s", t)
}

func (p *parser) parseIdent() (Expr, error) {
	t := p.advance()
	lower := strings.ToLower(t.text)
	switch lower {
	case "true":
		return &literal{Bool(true)}, nil
	case "false":
		return &literal{Bool(false)}, nil
	case "undefined":
		return &literal{Undefined()}, nil
	case "error":
		return &literal{ErrorValue("error literal")}, nil
	case "my", "target":
		if p.peek().kind == tokDot {
			p.advance()
			at, err := p.expect(tokIdent, "attribute name")
			if err != nil {
				return nil, err
			}
			sc := scopeMy
			if lower == "target" {
				sc = scopeTarget
			}
			return newAttrRef(sc, at.text), nil
		}
		return newAttrRef(scopeNone, t.text), nil
	}
	if p.peek().kind == tokLParen {
		p.advance()
		var args []Expr
		if p.peekSig().kind != tokRParen {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.peekSig().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if _, ok := builtins[strings.ToLower(t.text)]; !ok {
			return nil, fmt.Errorf("classad: unknown function %q", t.text)
		}
		return call{name: t.text, args: args}, nil
	}
	return newAttrRef(scopeNone, t.text), nil
}

func (p *parser) parseList() (Expr, error) {
	p.advance() // consume {
	var items []Expr
	if p.peekSig().kind != tokRBrace {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
			if p.peekSig().kind != tokComma {
				break
			}
			p.advance()
		}
	}
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return nil, err
	}
	return listExpr{items: items}, nil
}

func (p *parser) parseAdLiteral() (Expr, error) {
	p.advance() // consume [
	var names []string
	var exprs []Expr
	for p.peekSig().kind == tokIdent {
		name := p.advance()
		if _, err := p.expect(tokAssign, "'='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		names = append(names, name.text)
		exprs = append(exprs, e)
		if p.peekSig().kind == tokSemi {
			p.advance()
		}
	}
	if _, err := p.expect(tokRBracket, "']'"); err != nil {
		return nil, err
	}
	return adExpr{names: names, exprs: exprs}, nil
}
