package relational

import (
	"strings"
	"testing"
	"testing/quick"
)

func newHostTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("hosts", []Column{
		{Name: "name", Type: StringType},
		{Name: "cpus", Type: IntType},
		{Name: "load", Type: RealType},
	})
	for _, row := range [][]Value{
		{StrVal("lucky3"), IntVal(2), RealVal(0.5)},
		{StrVal("lucky4"), IntVal(2), RealVal(1.25)},
		{StrVal("lucky7"), IntVal(2), RealVal(0.1)},
		{StrVal("uc01"), IntVal(1), RealVal(2.0)},
	} {
		mustInsert(t, tbl, row...)
	}
	return tbl
}

func mustInsert(t *testing.T, tbl *Table, row ...Value) {
	t.Helper()
	if err := tbl.Insert(row); err != nil {
		t.Fatalf("Insert(%v): %v", row, err)
	}
}

// rowsSelect answers src over tbl's rows through RowsQuery, the engine's
// one home, with the set's Scanned and Indexed accounting on the Result.
func rowsSelect(tbl *Table, src string) (*Result, error) {
	sel, err := Parse(src)
	if err != nil {
		return nil, err
	}
	q := RowsQuery{Select: sel}
	st, err := q.Run(tbl.Name, tbl.Schema.Columns, [][][]Value{tbl.Rows()})
	if err != nil {
		return nil, err
	}
	res := q.Result()
	res.Scanned, res.Indexed = st.Scanned, st.Indexed
	return res, nil
}

func mustSelect(t *testing.T, tbl *Table, src string) *Result {
	t.Helper()
	res, err := rowsSelect(tbl, src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return res
}

func TestCreateAndInsert(t *testing.T) {
	tbl := newHostTable(t)
	if len(tbl.Rows()) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows()))
	}
}

func TestSelectAll(t *testing.T) {
	tbl := newHostTable(t)
	res := mustSelect(t, tbl, "SELECT * FROM hosts")
	if len(res.Rows) != 4 || len(res.Columns) != 3 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Columns))
	}
	if res.Scanned != 4 {
		t.Fatalf("scanned = %d, want 4", res.Scanned)
	}
}

func TestSelectWhere(t *testing.T) {
	tbl := newHostTable(t)
	res := mustSelect(t, tbl, "SELECT name FROM hosts WHERE load < 1.0 AND cpus = 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	names := []string{res.Rows[0][0].S, res.Rows[1][0].S}
	if names[0] != "lucky3" || names[1] != "lucky7" {
		t.Fatalf("names = %v", names)
	}
}

func TestSelectOrPrecedence(t *testing.T) {
	tbl := newHostTable(t)
	// AND binds tighter than OR.
	res := mustSelect(t, tbl, "SELECT name FROM hosts WHERE name = 'uc01' OR load < 0.6 AND cpus = 2")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestSelectNotAndParens(t *testing.T) {
	tbl := newHostTable(t)
	res := mustSelect(t, tbl, "SELECT name FROM hosts WHERE NOT (cpus = 2)")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "uc01" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectOrderByAndLimit(t *testing.T) {
	tbl := newHostTable(t)
	res := mustSelect(t, tbl, "SELECT name FROM hosts ORDER BY load DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "uc01" || res.Rows[1][0].S != "lucky4" {
		t.Fatalf("order = %v, %v", res.Rows[0][0].S, res.Rows[1][0].S)
	}
}

func TestSelectLike(t *testing.T) {
	tbl := newHostTable(t)
	res := mustSelect(t, tbl, "SELECT name FROM hosts WHERE name LIKE 'lucky%'")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	res = mustSelect(t, tbl, "SELECT name FROM hosts WHERE name LIKE '_c0_'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "uc01" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestColumnComparison(t *testing.T) {
	tbl := NewTable("pairs", []Column{{Name: "a", Type: IntType}, {Name: "b", Type: IntType}})
	mustInsert(t, tbl, IntVal(1), IntVal(2))
	mustInsert(t, tbl, IntVal(3), IntVal(3))
	res := mustSelect(t, tbl, "SELECT * FROM pairs WHERE a = b")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

// TestInsertMissingColumnFails: a row needs one value per column.
func TestInsertMissingColumnFails(t *testing.T) {
	tbl := newHostTable(t)
	if err := tbl.Insert([]Value{StrVal("x")}); err == nil {
		t.Fatal("short insert succeeded")
	}
	if len(tbl.Rows()) != 4 {
		t.Fatalf("rows = %d after a refused insert", len(tbl.Rows()))
	}
}

func TestInsertTypeCoercion(t *testing.T) {
	tbl := newHostTable(t)
	// Integer into a REAL column coerces.
	mustInsert(t, tbl, StrVal("lucky6"), IntVal(2), IntVal(1))
	res := mustSelect(t, tbl, "SELECT load FROM hosts WHERE name = 'lucky6'")
	if res.Rows[0][0].Type != RealType || res.Rows[0][0].R != 1 {
		t.Fatalf("coerced value = %v", res.Rows[0][0])
	}
	// String into an INT column fails.
	if err := tbl.Insert([]Value{StrVal("x"), StrVal("two"), RealVal(0.5)}); err == nil {
		t.Fatal("string-into-int insert succeeded")
	}
}

// TestParseErrors: malformed SELECTs are refused, and so is every other
// statement, with the parser's "expected SELECT".
func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE x",
		"SELECT FROM hosts",
		"SELECT * FROM",
		"SELECT * FROM hosts WHERE",
		"INSERT hosts VALUES (1)",
		"CREATE TABLE t (x NOTATYPE)",
		"SELECT * FROM hosts LIMIT -1",
		"SELECT * FROM hosts WHERE name ~ 'x'",
		"INSERT INTO t VALUES (1) trailing",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
	for _, sql := range []string{
		"CREATE TABLE t (x INT)",
		"INSERT INTO t VALUES (1)",
		"UPDATE t SET x = 1",
		"DELETE FROM t",
	} {
		if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), "expected SELECT") {
			t.Errorf("Parse(%q): err = %v, want expected SELECT", sql, err)
		}
	}
}

func TestStringEscaping(t *testing.T) {
	tbl := NewTable("t", []Column{{Name: "s", Type: StringType}})
	mustInsert(t, tbl, StrVal("it's"))
	mustInsert(t, tbl, StrVal("its"))
	res := mustSelect(t, tbl, "SELECT s FROM t WHERE s = 'it''s'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "it's" {
		t.Fatalf("escaped string = %v", res.Rows)
	}
}

func TestResultSizeBytes(t *testing.T) {
	tbl := newHostTable(t)
	all := mustSelect(t, tbl, "SELECT * FROM hosts")
	one := mustSelect(t, tbl, "SELECT name FROM hosts LIMIT 1")
	if one.SizeBytes() >= all.SizeBytes() {
		t.Fatalf("size ordering wrong: %d >= %d", one.SizeBytes(), all.SizeBytes())
	}
}

// Property: a WHERE equality select returns exactly the rows inserted with
// that key.
func TestSelectEqualityProperty(t *testing.T) {
	f := func(keys []uint8, probe uint8) bool {
		tbl := NewTable("t", []Column{{Name: "k", Type: IntType}})
		want := 0
		for _, k := range keys {
			k := k % 16
			if tbl.Insert([]Value{IntVal(int64(k))}) != nil {
				return false
			}
			if k == probe%16 {
				want++
			}
		}
		res, err := rowsSelect(tbl, "SELECT * FROM t WHERE k = "+IntVal(int64(probe%16)).String())
		if err != nil {
			return false
		}
		return len(res.Rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: LIKE with no wildcards behaves as case-insensitive equality.
func TestLikeEqualityProperty(t *testing.T) {
	f := func(raw string) bool {
		s := ""
		for _, c := range raw {
			if c >= 'a' && c <= 'z' {
				s += string(c)
			}
		}
		if len(s) > 12 {
			s = s[:12]
		}
		return likeMatch(s, s) && likeMatch(strings.ToUpper(s), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ORDER BY yields a non-decreasing sequence.
func TestOrderByMonotoneProperty(t *testing.T) {
	f := func(vals []int16) bool {
		tbl := NewTable("t", []Column{{Name: "v", Type: IntType}})
		for _, v := range vals {
			if tbl.Insert([]Value{IntVal(int64(v))}) != nil {
				return false
			}
		}
		res, err := rowsSelect(tbl, "SELECT v FROM t ORDER BY v")
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i][0].I < res.Rows[i-1][0].I {
				return false
			}
		}
		return len(res.Rows) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
