package classad

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token types.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokReal
	tokString
	tokLParen
	tokRParen
	tokLBrace   // {
	tokRBrace   // }
	tokLBracket // [
	tokRBracket // ]
	tokComma
	tokSemi
	tokDot
	tokAssign // =
	tokQuest  // ?
	tokColon  // :
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokNot     // !
	tokAnd     // &&
	tokOr      // ||
	tokEQ      // ==
	tokNE      // !=
	tokLT      // <
	tokLE      // <=
	tokGT      // >
	tokGE      // >=
	tokMetaEQ  // =?=
	tokMetaNE  // =!=
	tokNewline // significant only between old-style ad attribute lines
)

type token struct {
	kind tokKind
	text string
	i    int64
	r    float64
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer scans ClassAd source text. Newlines are reported as tokens (the
// old-ClassAd ad syntax separates attributes with newlines); expression
// parsing skips them.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lexAll scans the entire input, returning an error with position context
// on any malformed token.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
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

func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("classad: at offset %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) next() (token, error) {
	// Skip horizontal whitespace and comments; report newlines.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '\n':
			p := l.pos
			l.pos++
			return token{kind: tokNewline, text: "\\n", pos: p}, nil
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
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
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
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case ')':
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case '{':
		return token{kind: tokLBrace, text: "{", pos: start}, nil
	case '}':
		return token{kind: tokRBrace, text: "}", pos: start}, nil
	case '[':
		return token{kind: tokLBracket, text: "[", pos: start}, nil
	case ']':
		return token{kind: tokRBracket, text: "]", pos: start}, nil
	case ',':
		return token{kind: tokComma, text: ",", pos: start}, nil
	case ';':
		return token{kind: tokSemi, text: ";", pos: start}, nil
	case '.':
		return token{kind: tokDot, text: ".", pos: start}, nil
	case '?':
		return token{kind: tokQuest, text: "?", pos: start}, nil
	case ':':
		return token{kind: tokColon, text: ":", pos: start}, nil
	case '+':
		return token{kind: tokPlus, text: "+", pos: start}, nil
	case '-':
		return token{kind: tokMinus, text: "-", pos: start}, nil
	case '*':
		return token{kind: tokStar, text: "*", pos: start}, nil
	case '/':
		return token{kind: tokSlash, text: "/", pos: start}, nil
	case '%':
		return token{kind: tokPercent, text: "%", pos: start}, nil
	case '!':
		if two == "!=" {
			l.pos++
			return token{kind: tokNE, text: "!=", pos: start}, nil
		}
		return token{kind: tokNot, text: "!", pos: start}, nil
	case '&':
		if two == "&&" {
			l.pos++
			return token{kind: tokAnd, text: "&&", pos: start}, nil
		}
		return token{}, l.errf("unexpected '&' (did you mean '&&'?)")
	case '|':
		if two == "||" {
			l.pos++
			return token{kind: tokOr, text: "||", pos: start}, nil
		}
		return token{}, l.errf("unexpected '|' (did you mean '||'?)")
	case '<':
		if two == "<=" {
			l.pos++
			return token{kind: tokLE, text: "<=", pos: start}, nil
		}
		return token{kind: tokLT, text: "<", pos: start}, nil
	case '>':
		if two == ">=" {
			l.pos++
			return token{kind: tokGE, text: ">=", pos: start}, nil
		}
		return token{kind: tokGT, text: ">", pos: start}, nil
	case '=':
		if two == "==" {
			l.pos++
			return token{kind: tokEQ, text: "==", pos: start}, nil
		}
		if two == "=?" && l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokMetaEQ, text: "=?=", pos: start}, nil
		}
		if two == "=!" && l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{kind: tokMetaNE, text: "=!=", pos: start}, nil
		}
		return token{kind: tokAssign, text: "=", pos: start}, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}

func (l *lexer) scanNumber() (token, error) {
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
		return token{kind: tokReal, text: text, r: r, pos: start}, nil
	}
	var i int64
	if _, err := fmt.Sscanf(text, "%d", &i); err != nil {
		return token{}, l.errf("bad integer literal %q", text)
	}
	return token{kind: tokInt, text: text, i: i, pos: start}, nil
}

func (l *lexer) scanString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			return token{kind: tokString, text: sb.String(), pos: start}, nil
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

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
