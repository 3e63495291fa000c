package classad

import (
	"fmt"
	"strconv"
	"strings"
)

// The lexer and parser below are the ones ParseExpr and ParseAd had
// while the whole input was lexed into a token slice before parsing:
// numbers read with fmt.Sscanf, every string literal built in a
// strings.Builder, operators lexed by a switch and parsed by one
// function per precedence level, keywords matched after
// strings.ToLower, and an old-style ad line found by scanning the slice
// ahead for a newline or ';' outside brackets. They stay as the oracle
// the on-demand parser is held to: the same accepted inputs and trees,
// the same error text.

// oracleLexer scans ClassAd source text. Newlines are reported as tokens (the
// old-ClassAd ad syntax separates attributes with newlines); expression
// parsing skips them.
type oracleLexer struct {
	src  string
	pos  int
	toks []token
}

// oracleLexAll scans the entire input, returning an error with position context
// on any malformed token.
func oracleLexAll(src string) ([]token, error) {
	l := &oracleLexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *oracleLexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("classad: at offset %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *oracleLexer) next() (token, error) {
	// Skip horizontal whitespace and comments; report newlines.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '\n':
			l.pos++
			return token{kind: tokNewline, text: "\\n"}, nil
		case c == '#': // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos]}, nil
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		return l.scanNumber()
	case c == '"':
		return l.scanString()
	}
	l.pos++
	two := ""
	if l.pos < len(l.src) {
		two = l.src[start : l.pos+1]
	}
	switch c {
	case '(':
		return token{kind: tokLParen, text: "("}, nil
	case ')':
		return token{kind: tokRParen, text: ")"}, nil
	case '{':
		return token{kind: tokLBrace, text: "{"}, nil
	case '}':
		return token{kind: tokRBrace, text: "}"}, nil
	case '[':
		return token{kind: tokLBracket, text: "["}, nil
	case ']':
		return token{kind: tokRBracket, text: "]"}, nil
	case ',':
		return token{kind: tokComma, text: ","}, nil
	case ';':
		return token{kind: tokSemi, text: ";"}, nil
	case '.':
		return token{kind: tokDot, text: "."}, nil
	case '?':
		return token{kind: tokQuest, text: "?"}, nil
	case ':':
		return token{kind: tokColon, text: ":"}, nil
	case '+':
		return token{kind: tokPlus, text: "+"}, nil
	case '-':
		return token{kind: tokMinus, text: "-"}, nil
	case '*':
		return token{kind: tokStar, text: "*"}, nil
	case '/':
		return token{kind: tokSlash, text: "/"}, nil
	case '%':
		return token{kind: tokPercent, text: "%"}, nil
	case '!':
		if two == "!=" {
			l.pos++
			return token{kind: tokNE, text: "!="}, nil
		}
		return token{kind: tokNot, text: "!"}, nil
	case '&':
		if two == "&&" {
			l.pos++
			return token{kind: tokAnd, text: "&&"}, nil
		}
		return token{}, l.errf("unexpected '&' (did you mean '&&'?)")
	case '|':
		if two == "||" {
			l.pos++
			return token{kind: tokOr, text: "||"}, nil
		}
		return token{}, l.errf("unexpected '|' (did you mean '||'?)")
	case '<':
		if two == "<=" {
			l.pos++
			return token{kind: tokLE, text: "<="}, nil
		}
		return token{kind: tokLT, text: "<"}, nil
	case '>':
		if two == ">=" {
			l.pos++
			return token{kind: tokGE, text: ">="}, nil
		}
		return token{kind: tokGT, text: ">"}, nil
	case '=':
		if two == "==" {
			l.pos++
			return token{kind: tokEQ, text: "=="}, nil
		}
		if two == "=?" && l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokMetaEQ, text: "=?="}, nil
		}
		if two == "=!" && l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokMetaNE, text: "=!="}, nil
		}
		return token{kind: tokAssign, text: "="}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}

func (l *oracleLexer) scanNumber() (token, error) {
	start := l.pos
	isReal := false
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		isReal = true
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			isReal = true
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		} else {
			l.pos = save // "12eggs": the e belongs to an identifier
		}
	}
	text := l.src[start:l.pos]
	if isReal {
		var r float64
		if _, err := fmt.Sscanf(text, "%g", &r); err != nil {
			return token{}, l.errf("bad real literal %q", text)
		}
		return token{kind: tokReal, text: text, r: r}, nil
	}
	var i int64
	if _, err := fmt.Sscanf(text, "%d", &i); err != nil {
		return token{}, l.errf("bad integer literal %q", text)
	}
	return token{kind: tokInt, text: text, i: i}, nil
}

func (l *oracleLexer) scanString() (token, error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tokString, text: sb.String()}, nil
		case '\\':
			// Every escape Go quoting writes, so a rendered string
			// (Value.String quotes with strconv) reads back as itself.
			r, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos:], '"')
			if err != nil {
				return token{}, l.errf("bad escape in string literal")
			}
			l.pos = len(l.src) - len(tail)
			if multibyte {
				sb.WriteRune(r)
			} else {
				sb.WriteByte(byte(r)) // \xNN and octal escapes are bytes
			}
		case '\n':
			return token{}, l.errf("newline in string literal")
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf("unterminated string")
}

// oracleParser consumes a token stream produced by oracleLexAll.
type oracleParser struct {
	toks  []token
	pos   int
	depth int // parseExpr and parseUnary calls in progress
}

// nest enters one level of recursion; the caller defers p.depth--.
func (p *oracleParser) nest() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("classad: expression nested deeper than %d levels", maxParseDepth)
	}
	return nil
}

// oracleParseExpr is ParseExpr over oracleLexAll.
func oracleParseExpr(src string) (Expr, error) {
	toks, err := oracleLexAll(src)
	if err != nil {
		return nil, err
	}
	p := &oracleParser{toks: toks}
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

func (p *oracleParser) peek() token { return p.toks[p.pos] }

func (p *oracleParser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *oracleParser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.pos++
	}
}

// peekSig returns the next significant (non-newline) token without
// consuming newlines permanently — used where newlines are insignificant.
func (p *oracleParser) peekSig() token {
	p.skipNewlines()
	return p.peek()
}

func (p *oracleParser) expect(k tokKind, what string) (token, error) {
	t := p.peekSig()
	if t.kind != k {
		return token{}, fmt.Errorf("classad: expected %s, found %s", what, t)
	}
	return p.advance(), nil
}

// parseExpr parses the lowest-precedence production (the ?: ternary).
// The outermost call also holds the tree it built to maxParseDepth.
func (p *oracleParser) parseExpr() (Expr, error) {
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

func (p *oracleParser) parseOr() (Expr, error) {
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

func (p *oracleParser) parseAnd() (Expr, error) {
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

func (p *oracleParser) parseComparison() (Expr, error) {
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

func (p *oracleParser) parseAdditive() (Expr, error) {
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

func (p *oracleParser) parseMultiplicative() (Expr, error) {
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

func (p *oracleParser) parseUnary() (Expr, error) {
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

func (p *oracleParser) parsePrimary() (Expr, error) {
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

func (p *oracleParser) parseIdent() (Expr, error) {
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

func (p *oracleParser) parseList() (Expr, error) {
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

func (p *oracleParser) parseAdLiteral() (Expr, error) {
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

// oracleParseAd is ParseAd over oracleLexAll. It parses a ClassAd in either syntax: a new-ClassAd record
// "[ a = 1; b = 2 ]" or old-ClassAd attribute lines separated by newlines
// or semicolons.
func oracleParseAd(src string) (*Ad, error) {
	toks, err := oracleLexAll(src)
	if err != nil {
		return nil, err
	}
	p := &oracleParser{toks: toks}
	if p.peekSig().kind == tokLBracket {
		e, err := p.parseAdLiteral()
		if err != nil {
			return nil, err
		}
		p.skipNewlines()
		if p.peek().kind != tokEOF {
			return nil, fmt.Errorf("classad: trailing input after ad at %s", p.peek())
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
		if p.peek().kind == tokEOF {
			return ad, nil
		}
		name, err := p.expect(tokIdent, "attribute name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokAssign, "'='"); err != nil {
			return nil, err
		}
		e, err := p.parseExprLine()
		if err != nil {
			return nil, err
		}
		ad.Set(name.text, e)
	}
}

// parseExprLine parses an expression that ends at an unbracketed newline,
// semicolon, or EOF — the old-ClassAd attribute-per-line rule.
func (p *oracleParser) parseExprLine() (Expr, error) {
	// Find the extent of the line: tokens up to the first newline or
	// semicolon at bracket depth 0.
	start := p.pos
	depth := 0
scan:
	for i := start; ; i++ {
		switch p.toks[i].kind {
		case tokLParen, tokLBrace, tokLBracket:
			depth++
		case tokRParen, tokRBrace, tokRBracket:
			depth--
		case tokNewline, tokSemi:
			if depth == 0 {
				end := i
				sub := &oracleParser{toks: append(append([]token{}, p.toks[start:end]...), token{kind: tokEOF})}
				e, err := sub.parseExpr()
				if err != nil {
					return nil, err
				}
				if sub.peekSig().kind != tokEOF {
					return nil, fmt.Errorf("classad: trailing input in attribute at %s", sub.peek())
				}
				p.pos = end + 1
				return e, nil
			}
		case tokEOF:
			break scan
		}
	}
	sub := &oracleParser{toks: p.toks[start:]}
	e, err := sub.parseExpr()
	if err != nil {
		return nil, err
	}
	p.pos = start + sub.pos
	return e, nil
}
