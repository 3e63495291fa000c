package classad

import (
	"fmt"
	"strings"
)

// parser pulls tokens from its lexer one at a time, as it needs them:
// it holds the current token and nothing lexed past it, so what a parse
// allocates is the tree it builds. It answers as if the input were
// lexed whole before parsing: a malformed token anywhere in the input
// wins over a parse error (see settle), and an old-style ad line ends
// at the first newline or ';' outside brackets (see scan and
// parseLine).
type parser struct {
	lex   lexer
	tok   token // the current token
	err   error // the first lex error; tok is EOF from then on
	depth int   // parseExpr and parseUnary calls in progress

	// line is set while an old-style ad attribute's expression is read:
	// then scan counts brackets in open and turns the line's end, a
	// newline or ';' outside brackets, into EOF.
	line bool
	open int
}

// newParser starts a parser on src's first token.
func newParser(src string) *parser {
	p := &parser{lex: lexer{src: src}}
	p.scan()
	return p
}

// scan moves to the next token.
func (p *parser) scan() {
	if p.err != nil {
		return
	}
	t, err := p.lex.next()
	if err != nil {
		p.err, t = err, token{kind: tokEOF}
	}
	if p.line && endsLine(t, &p.open) {
		t = token{kind: tokEOF}
	}
	p.tok = t
}

// endsLine counts t's brackets into *open and reports whether t is a
// newline or ';' outside brackets, the end of an old-style ad line.
func endsLine(t token, open *int) bool {
	switch t.kind {
	case tokLParen, tokLBrace, tokLBracket:
		*open++
	case tokRParen, tokRBrace, tokRBracket:
		*open--
	case tokNewline, tokSemi:
		return *open == 0
	}
	return false
}

// settle is the error a parse that returned err ends with. The
// input's first malformed token wins over any parse error, so a parse
// that failed lexes the rest of the input for one. A parse that
// succeeded has read to the end already.
func (p *parser) settle(err error) error {
	for err != nil && p.err == nil {
		t, lexErr := p.lex.next()
		if lexErr != nil {
			p.err = lexErr
		} else if t.kind == tokEOF {
			break
		}
	}
	if p.err != nil {
		return p.err
	}
	return err
}

// maxParseDepth bounds how deep an expression may nest. Every nesting
// construct — parentheses, lists, ads, call arguments, ?: arms — recurses
// through parseExpr, and a chain of unary operators through parseUnary;
// a goroutine stack overflow kills the process instead of panicking,
// while a few MiB of "(" fit in one v3 frame. So does the tree: x && x
// && … loops in parseBinary but evaluates recursively, one level per link.
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
	p := newParser(src)
	e, err := p.parseWhole()
	if err = p.settle(err); err != nil {
		return nil, err
	}
	return e, nil
}

// parseWhole parses an expression that is the whole input.
func (p *parser) parseWhole() (Expr, error) {
	p.skipNewlines()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("classad: trailing input at %s", p.tok)
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

// advance consumes the current token and returns it; EOF stays current.
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF {
		p.scan()
	}
	return t
}

func (p *parser) skipNewlines() {
	for p.tok.kind == tokNewline {
		p.scan()
	}
}

// peekSig returns the next significant (non-newline) token, skipping
// newlines — used where newlines are insignificant.
func (p *parser) peekSig() token {
	p.skipNewlines()
	return p.tok
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
	c, err := p.parseBinary(0)
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

// binaryLevels are the binary operators by precedence, loosest first.
// All are left-associative, and a level's operands are expressions of
// the next level (of parseUnary after the last).
var binaryLevels = [...][tokNewline + 1]string{
	{tokOr: "||"},
	{tokAnd: "&&"},
	{tokEQ: "==", tokNE: "!=", tokLT: "<", tokLE: "<=", tokGT: ">", tokGE: ">=", tokMetaEQ: "=?=", tokMetaNE: "=!="},
	{tokPlus: "+", tokMinus: "-"},
	{tokStar: "*", tokSlash: "/", tokPercent: "%"},
}

// parseBinary parses a chain of binaryLevels[level]'s operators.
func (p *parser) parseBinary(level int) (Expr, error) {
	if level == len(binaryLevels) {
		return p.parseUnary()
	}
	l, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op := binaryLevels[level][p.peekSig().kind]
		if op == "" {
			return l, nil
		}
		p.advance()
		r, err := p.parseBinary(level + 1)
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
	kw := keyword(t.text)
	switch kw {
	case "true":
		return &literal{Bool(true)}, nil
	case "false":
		return &literal{Bool(false)}, nil
	case "undefined":
		return &literal{Undefined()}, nil
	case "error":
		return &literal{ErrorValue("error literal")}, nil
	case "my", "target":
		if p.tok.kind == tokDot {
			p.advance()
			at, err := p.expect(tokIdent, "attribute name")
			if err != nil {
				return nil, err
			}
			sc := scopeMy
			if kw == "target" {
				sc = scopeTarget
			}
			return newAttrRef(sc, at.text), nil
		}
		return newAttrRef(scopeNone, t.text), nil
	}
	if p.tok.kind == tokLParen {
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

// keyword is the keyword ident spells, or "" when it spells none. It
// matches as strings.ToLower(ident) == keyword would, folding ASCII
// only. The two runes that lower to ASCII are the Kelvin sign (to 'k',
// which no keyword has) and 'İ' (to 'i'), and neither can be in an
// identifier: the lexer reads one byte by byte, and the second UTF-8
// byte of 'İ', 0xb0, is no letter.
func keyword(ident string) string {
	var buf [foldBufLen]byte
	if n, ok := foldASCII(&buf, ident); ok {
		for _, kw := range [...]string{"true", "false", "undefined", "error", "my", "target"} {
			if string(buf[:n]) == kw {
				return kw
			}
		}
	}
	return ""
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
