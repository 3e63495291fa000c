package relational

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// oracleValueString is the rendering Value.String had while SizeBytes
// still meant "build the text, take its length"; the append form and
// the counted size are held to it.
func oracleValueString(v Value) string {
	switch v.Type {
	case IntType:
		return strconv.FormatInt(v.I, 10)
	case RealType:
		return strconv.FormatFloat(v.R, 'g', -1, 64)
	case StringType:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return "NULL"
}

func checkValueRendering(t *testing.T, v Value) {
	t.Helper()
	want := oracleValueString(v)
	if got := v.String(); got != want {
		t.Fatalf("String() = %q, oracle %q", got, want)
	}
	if got := string(v.AppendTo([]byte("x="))); got != "x="+want {
		t.Fatalf("AppendTo = %q, oracle %q", got, "x="+want)
	}
	if got := v.SizeBytes(); got != len(want) {
		t.Fatalf("SizeBytes() = %d, len(%q) = %d", got, want, len(want))
	}
}

// FuzzValueSize: for every cell value, String, AppendTo and the counted
// SizeBytes agree with the concatenating oracle.
func FuzzValueSize(f *testing.F) {
	f.Add(int64(0), 0.0, "")
	f.Add(int64(math.MinInt64), math.Copysign(0, -1), "it's")
	f.Add(int64(math.MaxInt64), math.NaN(), "''")
	f.Add(int64(-1), math.Inf(1), "'")
	f.Add(int64(1000), math.Inf(-1), "no quotes")
	f.Add(int64(9), 5e-324, "tab\tnul\x00high\xff")
	f.Add(int64(10), 2.2250738585072014e-308, "é'é")
	f.Add(int64(-10), 1e21, strings.Repeat("'", 70))
	f.Add(int64(99), 1e-7, "x")
	f.Add(int64(100), 123456789.125, "y")
	f.Fuzz(func(t *testing.T, i int64, r float64, s string) {
		checkValueRendering(t, IntVal(i))
		checkValueRendering(t, RealVal(r))
		checkValueRendering(t, StrVal(s))
		checkValueRendering(t, Value{Type: ColType(3 + i&3), I: i, R: r, S: s}) // no such type: NULL
		rows := [][]Value{{IntVal(i), RealVal(r)}, {StrVal(s)}, {}}
		want := 0
		for _, row := range rows {
			for _, v := range row {
				want += len(oracleValueString(v)) + 1
			}
			want++
		}
		if got := SizeBytes(rows); got != want {
			t.Fatalf("SizeBytes(rows) = %d, oracle %d", got, want)
		}
	})
}

// TestRandomTableSizes runs the same checks over the randomized table
// the planner's differential tests query.
func TestRandomTableSizes(t *testing.T) {
	tab := randomTable(rand.New(rand.NewSource(5)), 300)
	for _, row := range tab.Rows() {
		for _, v := range row {
			checkValueRendering(t, v)
		}
	}
}

// TestSizeBytesZeroAlloc: measuring rows allocates nothing.
func TestSizeBytesZeroAlloc(t *testing.T) {
	rows := randomTable(rand.New(rand.NewSource(6)), 40).Rows()
	rows = append(rows, []Value{StrVal("it's"), RealVal(math.Inf(-1)), IntVal(math.MinInt64), RealVal(2.2250738585072014e-308)})
	res := &Result{Columns: []string{"host", "metric", "value", "slot"}, Rows: rows}
	if allocs := testing.AllocsPerRun(100, func() { res.SizeBytes() }); allocs != 0 {
		t.Errorf("Result.SizeBytes: %.1f allocs/op, want 0", allocs)
	}
}
