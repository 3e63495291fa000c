package relational

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// SelectStmt is SELECT cols FROM table [WHERE expr] [ORDER BY col [DESC]]
// [LIMIT n].
type SelectStmt struct {
	Table   string
	Columns []string // empty means *
	Where   BoolExpr // nil means all rows
	OrderBy string
	Desc    bool
	Limit   int // 0 means no limit

	shared *sharedPlan // a Prepared statement's plan slot; nil when parsed alone
}

// BoolExpr is a WHERE predicate over a row.
type BoolExpr interface {
	Eval(s *Schema, row []Value) (bool, error)
}

type andExpr struct{ l, r BoolExpr }
type orExpr struct{ l, r BoolExpr }
type notExpr struct{ x BoolExpr }

// cmpExpr compares a column with a literal (or another column).
type cmpExpr struct {
	op    string // =, !=, <, <=, >, >=, LIKE
	left  operand
	right operand
}

type operand struct {
	isCol bool
	col   string
	val   Value
}

func (o operand) value(s *Schema, row []Value) (Value, error) {
	if !o.isCol {
		return o.val, nil
	}
	ci := s.ColIndex(o.col)
	if ci < 0 {
		return Value{}, errUnknownColumn(o.col)
	}
	return row[ci], nil
}

func (e andExpr) Eval(s *Schema, row []Value) (bool, error) {
	l, err := e.l.Eval(s, row)
	if err != nil {
		return false, err
	}
	if !l {
		return false, nil
	}
	return e.r.Eval(s, row)
}

func (e orExpr) Eval(s *Schema, row []Value) (bool, error) {
	l, err := e.l.Eval(s, row)
	if err != nil {
		return false, err
	}
	if l {
		return true, nil
	}
	return e.r.Eval(s, row)
}

func (e notExpr) Eval(s *Schema, row []Value) (bool, error) {
	x, err := e.x.Eval(s, row)
	return !x, err
}

func (e cmpExpr) Eval(s *Schema, row []Value) (bool, error) {
	l, err := e.left.value(s, row)
	if err != nil {
		return false, err
	}
	r, err := e.right.value(s, row)
	if err != nil {
		return false, err
	}
	// evalCmp (plan.go) is shared with the compiled predicate so the two
	// execution paths cannot diverge.
	return evalCmp(e.op, l, r)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char).
// Runes are compared case-insensitively (equalFoldRune), and a byte that
// is not UTF-8 is one U+FFFD rune, as in a range loop.
//
// It allocates nothing and does not recurse: a pattern is user text, and
// a few MiB of it fit in one v3 frame. Every rune of pattern but %
// consumes one rune of s, so a pattern that needs more runes than s has
// is refused first, reading no further into either than that takes. The
// walk then backs up, on a mismatch, only to just past the last % seen,
// which absorbs one more rune of s: whatever an earlier % could have
// absorbed, the last one can too, so no earlier choice needs revisiting,
// and the work is at most len(pattern)·len(s) steps.
func likeMatch(pattern, s string) bool {
	need := 0 // the bytes of s the literal runes so far consume
	for _, r := range pattern {
		if r != '%' {
			if need == len(s) {
				return false
			}
			_, w := utf8.DecodeRuneInString(s[need:])
			need += w
		}
	}
	p, n := 0, 0        // byte offsets into pattern and s
	star, mark := -1, 0 // just past the last % in pattern, and where in s it resumes
	for n < len(s) {
		if p < len(pattern) {
			pr, pw := utf8.DecodeRuneInString(pattern[p:])
			if pr == '%' {
				p += pw
				star, mark = p, n
				continue
			}
			sr, sw := utf8.DecodeRuneInString(s[n:])
			if pr == '_' || equalFoldRune(pr, sr) {
				p, n = p+pw, n+sw
				continue
			}
		}
		if star < 0 {
			return false
		}
		_, sw := utf8.DecodeRuneInString(s[mark:])
		mark += sw
		p, n = star, mark
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// collapsePercents folds each run of % in a LIKE pattern into one %,
// which matches the same strings. The parser applies it to a literal
// pattern once, so a run a few MiB long is not walked again for every
// row. (% is one byte that no multi-byte UTF-8 sequence contains.)
func collapsePercents(pattern string) string {
	if !strings.Contains(pattern, "%%") {
		return pattern
	}
	b := make([]byte, 0, len(pattern))
	for i := 0; i < len(pattern); i++ {
		if pattern[i] != '%' || i == 0 || pattern[i-1] != '%' {
			b = append(b, pattern[i])
		}
	}
	return string(b)
}

func equalFoldRune(a, b rune) bool {
	return strings.EqualFold(string(a), string(b))
}

// --- lexer ---

type sqlTok struct {
	kind string // "ident", "int", "real", "string", "op", "eof"
	text string
	i    int64
	r    float64
}

// sqlLexOne lexes the token at src[i:], after any white space, and
// returns it with the offset just past it: an "eof" token at the end of
// src. Parse lexes one token ahead, so what it allocates is the tree it
// builds, not a token per input byte, and a parse that stops early (at
// the nesting bound, say) lexes no further.
func sqlLexOne(src string, i int) (sqlTok, int, error) {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i == len(src) {
		return sqlTok{kind: "eof"}, i, nil
	}
	c := src[i]
	switch {
	case c == '\'':
		j := i + 1
		escaped := false
		for {
			if j >= len(src) {
				return sqlTok{}, i, fmt.Errorf("relational: unterminated string at %d", i)
			}
			if src[j] == '\'' {
				if j+1 < len(src) && src[j+1] == '\'' {
					escaped = true
					j += 2
					continue
				}
				break
			}
			j++
		}
		text := src[i+1 : j]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		}
		return sqlTok{kind: "string", text: text}, j + 1, nil
	case c >= '0' && c <= '9', c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9',
		c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
		j := i
		if src[j] == '-' {
			j++
		}
		isReal := false
		for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
			((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
			if src[j] == '.' || src[j] == 'e' || src[j] == 'E' {
				isReal = true
			}
			j++
		}
		text := src[i:j]
		if isReal {
			r, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return sqlTok{}, i, fmt.Errorf("relational: bad number %q", text)
			}
			return sqlTok{kind: "real", text: text, r: r}, j, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return sqlTok{}, i, fmt.Errorf("relational: bad number %q", text)
		}
		return sqlTok{kind: "int", text: text, i: n}, j, nil
	case isSQLIdentStart(c):
		j := i
		for j < len(src) && isSQLIdentPart(src[j]) {
			j++
		}
		return sqlTok{kind: "ident", text: src[i:j]}, j, nil
	}
	if i+1 < len(src) {
		switch two := src[i : i+2]; two {
		case "<=", ">=", "!=":
			return sqlTok{kind: "op", text: two}, i + 2, nil
		case "<>":
			return sqlTok{kind: "op", text: "!="}, i + 2, nil
		}
	}
	if strings.IndexByte("(),*=<>;", c) >= 0 {
		return sqlTok{kind: "op", text: src[i : i+1]}, i + 1, nil
	}
	return sqlTok{}, i, fmt.Errorf("relational: unexpected character %q at %d", c, i)
}

func isSQLIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isSQLIdentPart(c byte) bool {
	return isSQLIdentStart(c) || c >= '0' && c <= '9' || c == '.' || c == '-'
}

// --- parser ---

type sqlParser struct {
	src   string
	next  int    // offset just past tok
	tok   sqlTok // the current token
	err   error  // the lexer's error; tok is "eof" from then on
	depth int    // parseNot calls in progress
}

// maxNesting bounds how deep parentheses and NOTs may nest in a WHERE
// clause. parseNot recurses once per level, and a goroutine stack
// overflow kills the process instead of panicking — while a few MiB of
// "(" fit in one v3 frame. So does the tree: a=1 OR a=1 OR … loops in
// parseOr but compiles and evaluates recursively, one level per link.
const maxNesting = 1000

// Parse parses one SQL SELECT (a trailing semicolon is allowed). Any
// other statement is refused: R-GMA's consumers only query, and its
// producers publish rows through their API, not through SQL.
func Parse(src string) (SelectStmt, error) {
	p := &sqlParser{src: src}
	p.scan()
	st, err := p.parseStatement()
	if p.err != nil {
		// The parser reached a token the lexer could not read.
		return SelectStmt{}, p.err
	}
	return st, err
}

func (p *sqlParser) parseStatement() (SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return SelectStmt{}, err
	}
	st, err := p.parseSelect()
	if err != nil {
		return SelectStmt{}, err
	}
	p.acceptOp(";")
	if p.peek().kind != "eof" {
		return SelectStmt{}, fmt.Errorf("relational: trailing input %q", p.peek().text)
	}
	return st, nil
}

// scan moves to the next token.
func (p *sqlParser) scan() {
	if p.err != nil {
		return
	}
	p.tok, p.next, p.err = sqlLexOne(p.src, p.next)
	if p.err != nil {
		p.tok = sqlTok{kind: "eof"}
	}
}

func (p *sqlParser) peek() sqlTok { return p.tok }

func (p *sqlParser) advance() sqlTok {
	t := p.tok
	if t.kind != "eof" {
		p.scan()
	}
	return t
}

func (p *sqlParser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == "ident" && strings.EqualFold(t.text, kw) {
		p.scan()
		return true
	}
	return false
}

func (p *sqlParser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == "op" && t.text == op {
		p.scan()
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("relational: expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *sqlParser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("relational: expected %q, got %q", op, p.peek().text)
	}
	return nil
}

func (p *sqlParser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != "ident" {
		return "", fmt.Errorf("relational: expected identifier, got %q", t.text)
	}
	p.scan()
	return t.text, nil
}

func (p *sqlParser) parseSelect() (SelectStmt, error) {
	st := SelectStmt{}
	if p.acceptOp("*") {
		// all columns
	} else {
		for {
			cn, err := p.expectIdent()
			if err != nil {
				return SelectStmt{}, err
			}
			st.Columns = append(st.Columns, cn)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return SelectStmt{}, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return SelectStmt{}, err
	}
	st.Table = name
	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return SelectStmt{}, err
		}
		st.Where = w
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return SelectStmt{}, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return SelectStmt{}, err
		}
		st.OrderBy = col
		if p.acceptKeyword("DESC") {
			st.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.advance()
		if t.kind != "int" || t.i < 0 {
			return SelectStmt{}, fmt.Errorf("relational: LIMIT expects a non-negative integer")
		}
		st.Limit = int(t.i)
	}
	return st, nil
}

// deeperThan reports whether e has a node more than max levels below
// it. It recurses at most max+1 levels, however deep e is.
func deeperThan(e BoolExpr, max int) bool {
	switch x := e.(type) {
	case andExpr:
		return max < 1 || deeperThan(x.l, max-1) || deeperThan(x.r, max-1)
	case orExpr:
		return max < 1 || deeperThan(x.l, max-1) || deeperThan(x.r, max-1)
	case notExpr:
		return max < 1 || deeperThan(x.x, max-1)
	}
	return false
}

func (p *sqlParser) parseOr() (BoolExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = orExpr{l: l, r: r}
	}
	if p.depth == 0 && deeperThan(l, maxNesting) {
		return nil, fmt.Errorf("relational: WHERE clause nested deeper than %d levels", maxNesting)
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (BoolExpr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = andExpr{l: l, r: r}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (BoolExpr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxNesting {
		return nil, fmt.Errorf("relational: WHERE clause nested deeper than %d levels", maxNesting)
	}
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return notExpr{x: x}, nil
	}
	if p.acceptOp("(") {
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (BoolExpr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	var op string
	t := p.peek()
	switch {
	case t.kind == "op" && (t.text == "=" || t.text == "!=" || t.text == "<" ||
		t.text == "<=" || t.text == ">" || t.text == ">="):
		op = t.text
		p.scan()
	case t.kind == "ident" && strings.EqualFold(t.text, "LIKE"):
		op = "LIKE"
		p.scan()
	default:
		return nil, fmt.Errorf("relational: expected comparison operator, got %q", t.text)
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if op == "LIKE" && !right.isCol && right.val.Type == StringType {
		right.val.S = collapsePercents(right.val.S)
	}
	return cmpExpr{op: op, left: left, right: right}, nil
}

func (p *sqlParser) parseOperand() (operand, error) {
	t := p.peek()
	switch t.kind {
	case "ident":
		p.scan()
		return operand{isCol: true, col: t.text}, nil
	case "int":
		p.scan()
		return operand{val: IntVal(t.i)}, nil
	case "real":
		p.scan()
		return operand{val: RealVal(t.r)}, nil
	case "string":
		p.scan()
		return operand{val: StrVal(t.text)}, nil
	}
	return operand{}, fmt.Errorf("relational: expected operand, got %q", t.text)
}
