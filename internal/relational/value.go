// Package relational is the SQL engine under R-GMA, whose Consumers
// query producer tables in SQL. It answers one statement, a single-table
// SELECT with WHERE, projection, ORDER BY and LIMIT, through RowsQuery
// over row sets held outside any table. Table, a header and rows added
// with Insert, is what the naive executor ScanSelect reads.
package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// ColType enumerates column types.
type ColType int

// Supported column types.
const (
	IntType ColType = iota
	RealType
	StringType
)

func (t ColType) String() string {
	switch t {
	case IntType:
		return "INT"
	case RealType:
		return "REAL"
	case StringType:
		return "VARCHAR"
	}
	return "INVALID"
}

// Value is a typed cell value.
type Value struct {
	Type ColType
	I    int64
	R    float64
	S    string
}

// IntVal, RealVal and StrVal construct typed values.
func IntVal(i int64) Value    { return Value{Type: IntType, I: i} }
func RealVal(r float64) Value { return Value{Type: RealType, R: r} }
func StrVal(s string) Value   { return Value{Type: StringType, S: s} }

// Number returns the value as float64 when numeric.
func (v Value) Number() (float64, bool) {
	switch v.Type {
	case IntType:
		return float64(v.I), true
	case RealType:
		return v.R, true
	}
	return 0, false
}

// Compare orders two values: numerically when both are numeric, otherwise
// as strings. It returns -1, 0, or 1, and an error on a numeric/string
// type mismatch.
func (v Value) Compare(o Value) (int, error) {
	vn, vNum := v.Number()
	on, oNum := o.Number()
	if vNum && oNum {
		switch {
		case vn < on:
			return -1, nil
		case vn > on:
			return 1, nil
		}
		return 0, nil
	}
	if v.Type == StringType && o.Type == StringType {
		return strings.Compare(v.S, o.S), nil
	}
	return 0, fmt.Errorf("relational: cannot compare %v and %v", v.Type, o.Type)
}

// Coerce converts the value to the target column type when a safe
// conversion exists (int<->real; string parsing is not implicit).
func (v Value) Coerce(t ColType) (Value, error) {
	if v.Type == t {
		return v, nil
	}
	switch {
	case v.Type == IntType && t == RealType:
		return RealVal(float64(v.I)), nil
	case v.Type == RealType && t == IntType:
		return IntVal(int64(v.R)), nil
	}
	return Value{}, fmt.Errorf("relational: cannot store %v into %v column", v.Type, t)
}

// String renders the value in SQL literal form.
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends the SQL literal form — exactly the bytes of String —
// to dst.
func (v Value) AppendTo(dst []byte) []byte {
	switch v.Type {
	case IntType:
		return strconv.AppendInt(dst, v.I, 10)
	case RealType:
		return strconv.AppendFloat(dst, v.R, 'g', -1, 64)
	case StringType:
		dst = append(dst, '\'')
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == '\'' {
				dst = append(dst, '\'')
			}
			dst = append(dst, v.S[i])
		}
		return append(dst, '\'')
	}
	return append(dst, "NULL"...)
}

// SizeBytes is the value's wire size for the network model:
// len(v.String()), counted rather than built.
func (v Value) SizeBytes() int {
	if v.Type == StringType {
		return len(v.S) + 2 + strings.Count(v.S, "'")
	}
	var buf [32]byte // the longest number is a 24-byte real
	return len(v.AppendTo(buf[:0]))
}
