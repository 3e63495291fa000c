package relational

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomTable populates a host/metric/value table with collisions in
// every column so equality predicates hit multi-row buckets.
func randomTable(rng *rand.Rand, db *DB, rows int) *Table {
	t, err := db.CreateTable("siteinfo", []Column{
		{Name: "host", Type: StringType},
		{Name: "metric", Type: StringType},
		{Name: "value", Type: RealType},
		{Name: "slot", Type: IntType},
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < rows; i++ {
		row := []Value{
			StrVal(fmt.Sprintf("h%02d", rng.Intn(12))),
			StrVal([]string{"cpu", "mem", "disk", "Net"}[rng.Intn(4)]),
			RealVal(float64(rng.Intn(200)) / 2),
			IntVal(int64(rng.Intn(8))),
		}
		if err := t.Insert(row); err != nil {
			panic(err)
		}
	}
	return t
}

// selectCorpus mixes planner-friendly statements (equality conjuncts,
// ORDER BY + LIMIT) with shapes that must fall back: unknown columns,
// type-mismatched comparisons, LIKE, NOT, OR trees.
var selectCorpus = []string{
	"SELECT * FROM siteinfo",
	"SELECT host, value FROM siteinfo",
	"SELECT * FROM siteinfo WHERE host = 'h03'",
	"SELECT * FROM siteinfo WHERE host = 'H03'", // case-sensitive compare, case-folded index
	"SELECT * FROM siteinfo WHERE 'h03' = host",
	"SELECT * FROM siteinfo WHERE metric = 'net'", // no row: metric stored as 'Net'
	"SELECT * FROM siteinfo WHERE slot = 3",
	"SELECT * FROM siteinfo WHERE value = 42.5",
	"SELECT * FROM siteinfo WHERE value = 42", // int literal, real column
	"SELECT * FROM siteinfo WHERE slot = 3.5", // provably empty (non-integral vs INT)
	"SELECT * FROM siteinfo WHERE slot = 3.0", // integral real vs INT
	"SELECT * FROM siteinfo WHERE host = 'h03' AND value >= 50",
	"SELECT * FROM siteinfo WHERE value >= 50 AND host = 'h03'",
	"SELECT * FROM siteinfo WHERE host = 'h03' AND metric = 'cpu' AND slot = 1",
	"SELECT * FROM siteinfo WHERE host = 'h03' OR host = 'h04'",
	"SELECT * FROM siteinfo WHERE NOT host = 'h03'",
	"SELECT * FROM siteinfo WHERE value >= 25 AND value <= 75",
	"SELECT * FROM siteinfo WHERE host LIKE 'h0%'",
	"SELECT * FROM siteinfo WHERE host = 'h03' AND metric LIKE '%e%'",
	"SELECT host, value FROM siteinfo WHERE value >= 50 ORDER BY value DESC LIMIT 10",
	"SELECT * FROM siteinfo WHERE host = 'h03' ORDER BY value LIMIT 3",
	"SELECT * FROM siteinfo ORDER BY value DESC",
	"SELECT * FROM siteinfo ORDER BY host LIMIT 7",
	"SELECT * FROM siteinfo ORDER BY slot DESC LIMIT 100000",
	"SELECT * FROM siteinfo ORDER BY metric",
	"SELECT * FROM siteinfo WHERE value >= 50 LIMIT 5",
	"SELECT * FROM siteinfo WHERE value = 0.0",  // ±0.0 share an index bucket
	"SELECT * FROM siteinfo WHERE value = -0.0", // Compare-equal to +0.0 rows
	// Error shapes: both executors must fail identically.
	"SELECT * FROM siteinfo WHERE nosuch = 1",
	"SELECT * FROM siteinfo WHERE host = 5",        // string col vs int literal: Compare error
	"SELECT * FROM siteinfo WHERE value LIKE 'x%'", // LIKE on REAL
	"SELECT * FROM siteinfo WHERE host = 'h03' AND value LIKE 'x%'",
	"SELECT * FROM siteinfo WHERE slot = 99 AND value LIKE 'x%'", // empty eq bucket + erroring conjunct
}

func resultString(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	s := fmt.Sprintf("cols=%v scanned=%d\n", r.Columns, r.Scanned)
	for _, row := range r.Rows {
		for _, v := range row {
			s += v.String() + "|"
		}
		s += "\n"
	}
	return s
}

func assertSameSelect(t *testing.T, db *DB, src string) {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sel := st.(SelectStmt)
	got, gotErr := db.runSelect(sel)
	want, wantErr := db.runSelectScan(sel)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: planner err %v, oracle err %v", src, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: planner err %q, oracle err %q", src, gotErr, wantErr)
		}
		return
	}
	if g, w := resultString(got), resultString(want); g != w {
		t.Fatalf("%q:\nplanner:\n%s\noracle:\n%s", src, g, w)
	}
}

// TestSelectDifferential holds the planner to byte-identical results —
// rows, order, Scanned accounting, and error text — with the naive
// executor over randomized tables and the whole statement corpus.
func TestSelectDifferential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		randomTable(rng, db, 150)
		for _, src := range selectCorpus {
			assertSameSelect(t, db, src)
		}
	}
}

// TestSelectDifferentialAfterChurn interleaves INSERT/UPDATE/DELETE with
// the differential corpus so stale hash-index postings cannot hide: the
// planner auto-builds indexes, then the writes must keep them exact.
func TestSelectDifferentialAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := NewDB()
	randomTable(rng, db, 120)
	if _, err := db.Exec("INSERT INTO siteinfo VALUES ('hz', 'cpu', -0.0, 0)"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 15; round++ {
		var stmt string
		switch rng.Intn(3) {
		case 0:
			stmt = fmt.Sprintf("INSERT INTO siteinfo VALUES ('h%02d', 'cpu', %d.5, %d)",
				rng.Intn(12), rng.Intn(100), rng.Intn(8))
		case 1:
			stmt = fmt.Sprintf("UPDATE siteinfo SET host = 'h%02d' WHERE slot = %d",
				rng.Intn(12), rng.Intn(8))
		case 2:
			stmt = fmt.Sprintf("DELETE FROM siteinfo WHERE host = 'h%02d' AND value >= %d",
				rng.Intn(12), 50+rng.Intn(50))
		}
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		for _, src := range selectCorpus {
			assertSameSelect(t, db, src)
		}
	}
}

// TestSelectIndexStats pins the fast-path accounting: an equality
// predicate is served from the hash index with Scanned still reporting
// the logical full-scan cost, identical to the oracle's.
func TestSelectIndexStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := NewDB()
	tbl := randomTable(rng, db, 80)
	// First equality probe scans (one-shot tables never pay an index
	// build); the second auto-builds and uses the hash index.
	res, err := db.Exec("SELECT * FROM siteinfo WHERE host = 'h03'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Indexed {
		t.Fatal("first equality probe should not build an index")
	}
	res, err = db.Exec("SELECT * FROM siteinfo WHERE host = 'h03'")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Indexed {
		t.Fatal("second equality probe did not use the hash index")
	}
	if res.IndexHits == 0 {
		t.Fatal("indexed select reported no index hits")
	}
	if res.Scanned != tbl.Len() {
		t.Fatalf("Scanned = %d, want logical scan cost %d", res.Scanned, tbl.Len())
	}
	res, err = db.Exec("SELECT * FROM siteinfo WHERE value >= 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.Indexed || res.IndexHits != 0 {
		t.Fatalf("range-only predicate should scan: %+v", res)
	}
}

// renderedIndexKey is the index key as it was first defined — the
// lower-cased SQL literal — kept as the oracle for which values must
// share a bucket.
func renderedIndexKey(v Value) string {
	if v.Type == RealType && v.R == 0 {
		return "0"
	}
	return strings.ToLower(v.String())
}

// TestIndexKeyEquality: two values share an index bucket exactly when
// their lower-cased literals are equal — IndexHits counts a bucket's
// candidates, so this is what keeps Work unchanged — and keying a string
// that is already lower case allocates nothing.
func TestIndexKeyEquality(t *testing.T) {
	vals := []Value{
		{}, IntVal(0), IntVal(5), IntVal(-5), IntVal(math.MinInt64),
		RealVal(0), RealVal(math.Copysign(0, -1)), RealVal(5), RealVal(5.5), RealVal(1e21),
		RealVal(math.Inf(1)), RealVal(math.Inf(-1)), RealVal(math.NaN()),
		StrVal(""), StrVal("siteinfo"), StrVal("SiteInfo"), StrVal("SITEINFO"),
		StrVal("null"), StrVal("NULL"), StrVal("5"), StrVal("0"), StrVal("+inf"), StrVal("nan"),
		StrVal("it's"), StrVal("IT'S"), StrVal("its"), StrVal("'"), StrVal("''"),
		StrVal("Éire"), StrVal("éire"), StrVal("a\xffb"), StrVal("A\xffB"), StrVal("a�b"),
		StrVal("\x00"), StrVal("\x005"), StrVal("\x00null"), StrVal("\x00'"), StrVal("\x00'\x005"), StrVal("'\x005"),
		StrVal("\x00A"), StrVal("\x00a"),
	}
	for _, a := range vals {
		for _, b := range vals {
			got := indexKey(a) == indexKey(b)
			want := renderedIndexKey(a) == renderedIndexKey(b)
			if got != want {
				t.Errorf("%v and %v share a key: %v, want %v", a, b, got, want)
			}
		}
	}
	v := StrVal("siteinfo")
	if allocs := testing.AllocsPerRun(100, func() { _ = indexKey(v) }); allocs != 0 {
		t.Errorf("key of a lower-case string: %.0f allocs", allocs)
	}
}
