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
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer scans ClassAd source text one token per next call, as the parser
// asks for them. Newlines are reported as tokens (the old-ClassAd ad
// syntax separates attributes with newlines); expression parsing skips
// them. A token's text is a substring of the source, except for a string
// literal with escapes, whose decoded text is built.
type lexer struct {
	src string
	pos int
}

// errf reports a malformed token with its position.
func (l *lexer) errf(format string, args ...interface{}) error {
	return fmt.Errorf("classad: at offset %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	// Skip horizontal whitespace and comments; report newlines.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '\n':
			l.pos++
			return token{kind: tokNewline, text: "\\n"}, nil
		case c == '#', c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/': // comment to end of line
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
	for n := 3; n > 0; n-- { // the longest operator first: "=?=" before "="
		if start+n <= len(l.src) {
			if k := operators[l.src[start:start+n]]; k != tokEOF {
				l.pos = start + n
				return token{kind: k, text: l.src[start:l.pos]}, nil
			}
		}
	}
	l.pos++
	if c == '&' || c == '|' {
		return token{}, l.errf("unexpected '%c' (did you mean '%c%c'?)", c, c, c)
	}
	return token{}, l.errf("unexpected character %q", c)
}

// operators are the punctuation tokens by their text.
var operators = map[string]tokKind{
	"(": tokLParen, ")": tokRParen, "{": tokLBrace, "}": tokRBrace, "[": tokLBracket, "]": tokRBracket,
	",": tokComma, ";": tokSemi, ".": tokDot, "?": tokQuest, ":": tokColon, "=": tokAssign,
	"+": tokPlus, "-": tokMinus, "*": tokStar, "/": tokSlash, "%": tokPercent, "!": tokNot,
	"&&": tokAnd, "||": tokOr, "==": tokEQ, "!=": tokNE, "<": tokLT, "<=": tokLE, ">": tokGT, ">=": tokGE,
	"=?=": tokMetaEQ, "=!=": tokMetaNE,
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
	// The text is digits with at most one '.' and one exponent. Of such
	// text strconv accepts what fmt's %d and %g scanning accepted ("007",
	// ".5", "1."), and refuses what it refused: a value out of range
	// (2^63, 1e999).
	text := l.src[start:l.pos]
	if isReal {
		r, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, l.errf("bad real literal %q", text)
		}
		return token{kind: tokReal, text: text, r: r}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, l.errf("bad integer literal %q", text)
	}
	return token{kind: tokInt, text: text, i: i}, nil
}

// scanString reads a string literal. Without escapes its text is the
// source between the quotes; from the first escape on it is built.
func (l *lexer) scanString() (token, error) {
	l.pos++ // past the opening quote
	// plain is where the run of source not yet copied into sb began.
	start, plain := l.pos, l.pos
	var sb strings.Builder
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '"':
			text := l.src[start:l.pos]
			if sb.Len() > 0 {
				sb.WriteString(l.src[plain:l.pos])
				text = sb.String()
			}
			l.pos++
			return token{kind: tokString, text: text}, nil
		case '\\':
			// Every escape Go quoting writes, so a rendered string
			// (Value.String quotes with strconv) reads back as itself.
			r, multibyte, tail, err := strconv.UnquoteChar(l.src[l.pos:], '"')
			if err != nil {
				return token{}, l.errf("bad escape in string literal")
			}
			sb.WriteString(l.src[plain:l.pos])
			l.pos = len(l.src) - len(tail)
			plain = l.pos
			if multibyte {
				sb.WriteRune(r)
			} else {
				sb.WriteByte(byte(r)) // \xNN and octal escapes are bytes
			}
		case '\n':
			return token{}, l.errf("newline in string literal")
		default:
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
