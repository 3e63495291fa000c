// Package classad implements the Condor ClassAd language: typed values
// with Undefined/Error semantics, an expression parser and evaluator, and
// two-way matchmaking. It is the substrate underneath the Hawkeye
// monitoring system, which identifies resources with Startd ClassAds and
// detects problems by matching Trigger ClassAds against them.
package classad

import (
	"fmt"
	"strconv"
)

// Kind enumerates the runtime types of ClassAd values.
type Kind int

// Value kinds, in the order the old-ClassAd specification lists them.
const (
	UndefinedKind Kind = iota
	ErrorKind
	BoolKind
	IntKind
	RealKind
	StringKind
	ListKind
	AdKind
)

func (k Kind) String() string {
	switch k {
	case UndefinedKind:
		return "undefined"
	case ErrorKind:
		return "error"
	case BoolKind:
		return "boolean"
	case IntKind:
		return "integer"
	case RealKind:
		return "real"
	case StringKind:
		return "string"
	case ListKind:
		return "list"
	case AdKind:
		return "classad"
	}
	return "invalid"
}

// Value is a ClassAd runtime value. The zero value is Undefined.
type Value struct {
	kind Kind
	b    bool
	i    int64
	r    float64
	s    string // string payload, or error message for ErrorKind
	list []Value
	ad   *Ad
}

// Undefined returns the undefined value.
func Undefined() Value { return Value{kind: UndefinedKind} }

// ErrorValue returns an error value with the given message.
func ErrorValue(format string, args ...interface{}) Value {
	return Value{kind: ErrorKind, s: fmt.Sprintf(format, args...)}
}

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: BoolKind, b: b} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: IntKind, i: i} }

// Real returns a real (float) value.
func Real(r float64) Value { return Value{kind: RealKind, r: r} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: StringKind, s: s} }

// List returns a list value.
func List(items ...Value) Value { return Value{kind: ListKind, list: items} }

// AdValue returns a nested-classad value.
func AdValue(ad *Ad) Value { return Value{kind: AdKind, ad: ad} }

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports whether the value is undefined.
func (v Value) IsUndefined() bool { return v.kind == UndefinedKind }

// IsError reports whether the value is an error.
func (v Value) IsError() bool { return v.kind == ErrorKind }

// BoolVal extracts a boolean, reporting whether the value is a boolean.
func (v Value) BoolVal() (bool, bool) { return v.b, v.kind == BoolKind }

// IntVal extracts an integer, reporting whether the value is an integer.
func (v Value) IntVal() (int64, bool) { return v.i, v.kind == IntKind }

// RealVal extracts a real, reporting whether the value is a real.
func (v Value) RealVal() (float64, bool) { return v.r, v.kind == RealKind }

// StringVal extracts a string, reporting whether the value is a string.
func (v Value) StringVal() (string, bool) { return v.s, v.kind == StringKind }

// ListVal extracts a list, reporting whether the value is a list.
func (v Value) ListVal() ([]Value, bool) { return v.list, v.kind == ListKind }

// AdVal extracts a nested ad, reporting whether the value is a classad.
func (v Value) AdVal() (*Ad, bool) { return v.ad, v.kind == AdKind }

// Number extracts the value as a float64 if it is numeric (integer, real,
// or boolean promoted to 0/1), reporting whether it was.
func (v Value) Number() (float64, bool) {
	switch v.kind {
	case IntKind:
		return float64(v.i), true
	case RealKind:
		return v.r, true
	case BoolKind:
		if v.b {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// SameAs implements the identity test behind =?= and =!=: values are
// identical when their kinds match and their payloads compare equal
// (strings case-sensitively, lists and ads element-wise).
func (v Value) SameAs(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case UndefinedKind, ErrorKind:
		return true
	case BoolKind:
		return v.b == o.b
	case IntKind:
		return v.i == o.i
	case RealKind:
		return v.r == o.r
	case StringKind:
		return v.s == o.s
	case ListKind:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].SameAs(o.list[i]) {
				return false
			}
		}
		return true
	case AdKind:
		return v.ad.sameAs(o.ad)
	}
	return false
}

// String renders the value in ClassAd literal syntax (strings quoted,
// reals always with a decimal point so they re-parse as reals).
func (v Value) String() string {
	var buf [32]byte
	if b, ok := v.appendScalar(buf[:0]); ok {
		return string(b)
	}
	return string(v.AppendTo(nil))
}

// AppendTo appends the rendering String returns to dst.
func (v Value) AppendTo(dst []byte) []byte {
	if b, ok := v.appendScalar(dst); ok {
		return b
	}
	switch v.kind {
	case ListKind:
		dst = append(dst, '{')
		for i, it := range v.list {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = it.AppendTo(dst)
		}
		return append(dst, '}')
	case AdKind:
		return v.ad.appendRecord(dst)
	}
	return append(dst, "invalid"...)
}

// appendScalar renders every kind that holds no nested expression; ok
// is false (and dst untouched) for lists, ads and invalid kinds. It
// calls nothing that retains dst, so a caller's stack buffer stays on
// the stack.
func (v Value) appendScalar(dst []byte) (out []byte, ok bool) {
	switch v.kind {
	case UndefinedKind:
		return append(dst, "undefined"...), true
	case ErrorKind:
		return append(dst, "error"...), true
	case BoolKind:
		return strconv.AppendBool(dst, v.b), true
	case IntKind:
		return strconv.AppendInt(dst, v.i, 10), true
	case RealKind:
		return appendReal(dst, v.r), true
	case StringKind:
		return strconv.AppendQuote(dst, v.s), true
	}
	return dst, false
}

// renderedLen reports len(v.String()) without building the string, for
// the kinds where that takes no allocation: numbers and constants are
// rendered into a stack buffer, strings made only of bytes Quote copies
// or backslash-escapes are counted. ok is false for everything else.
func (v Value) renderedLen() (n int, ok bool) {
	switch v.kind {
	case ListKind, AdKind:
		return 0, false
	case StringKind:
		n = len(v.s) + 2
		for i := 0; i < len(v.s); i++ {
			switch c := v.s[i]; {
			case c == '"' || c == '\\':
				n++
			case c < ' ' || c > '~':
				return 0, false
			}
		}
		return n, true
	}
	var buf [32]byte // the longest scalar is a 24-byte real
	b, ok := v.appendScalar(buf[:0])
	return len(b), ok
}

// appendReal prints r so that it re-parses as a real literal.
func appendReal(dst []byte, r float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, r, 'g', -1, 64)
	for _, c := range dst[start:] {
		// A point or exponent already marks a real; Inf and NaN
		// ('I', 'N') take no suffix.
		switch c {
		case '.', 'e', 'E', 'I', 'N':
			return dst
		}
	}
	return append(dst, ".0"...)
}
