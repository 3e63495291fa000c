package relational

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomTable populates a host/metric/value table with collisions in
// every column so equality predicates hit multi-row buckets.
func randomTable(rng *rand.Rand, rows int) *Table {
	t := NewTable("siteinfo", []Column{
		{Name: "host", Type: StringType},
		{Name: "metric", Type: StringType},
		{Name: "value", Type: RealType},
		{Name: "slot", Type: IntType},
	})
	for i := 0; i < rows; i++ {
		if err := t.Insert(randomRow(rng)); err != nil {
			panic(err)
		}
	}
	return t
}

func randomRow(rng *rand.Rand) []Value {
	return []Value{
		StrVal(fmt.Sprintf("h%02d", rng.Intn(12))),
		StrVal([]string{"cpu", "mem", "disk", "Net"}[rng.Intn(4)]),
		RealVal(float64(rng.Intn(200)) / 2),
		IntVal(int64(rng.Intn(8))),
	}
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
	// An unknown column fails only where a row reaches it.
	"SELECT * FROM siteinfo WHERE 1 = nosuch",
	"SELECT * FROM siteinfo WHERE NOT nosuch = 1",
	"SELECT * FROM siteinfo WHERE host = 'none' AND nosuch = 1", // never reached
	"SELECT * FROM siteinfo WHERE host LIKE 'h%' OR nosuch = 1", // never reached
	"SELECT * FROM siteinfo WHERE host = 'h03' AND nosuch = 1",
	"SELECT * FROM siteinfo WHERE nosuch = 1 AND value LIKE 'x%'", // the first error wins
	"SELECT * FROM siteinfo WHERE value LIKE 'x%' AND nosuch = 1",
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

func assertSameSelect(t *testing.T, tbl *Table, src string) {
	t.Helper()
	sel, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	got, gotErr := rowsSelect(tbl, src)
	want, wantErr := ScanSelect(tbl, sel)
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

// TestSelectDifferential holds the planner (RowsQuery) to byte-identical
// results — rows, order, Scanned accounting, and error text — with the
// naive executor over randomized tables and the whole statement corpus.
func TestSelectDifferential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tbl := randomTable(rand.New(rand.NewSource(seed)), 150)
		for _, src := range selectCorpus {
			assertSameSelect(t, tbl, src)
		}
	}
	// No row reaches any column: nothing fails.
	empty := randomTable(rand.New(rand.NewSource(0)), 0)
	for _, src := range selectCorpus {
		assertSameSelect(t, empty, src)
	}
}

// TestSelectCheck: Check reports the first SELECT-list column, else the
// first WHERE column, that a column set lacks, with the error a query
// fails with once a row reaches it, even where no row would.
func TestSelectCheck(t *testing.T) {
	cols := randomTable(rand.New(rand.NewSource(0)), 0).Schema.Columns
	for src, want := range map[string]string{
		"SELECT host, value FROM siteinfo WHERE host = 'h03' AND NOT value >= 5":  "",
		"SELECT nosuch FROM siteinfo WHERE other = 1":                             `relational: no column "nosuch" in "siteinfo"`,
		"SELECT * FROM siteinfo WHERE host = 'none' AND (value > 1 OR 1 = other)": `relational: unknown column "other"`,
		"SELECT * FROM siteinfo WHERE NOT a = b":                                  `relational: unknown column "a"`,
	} {
		sel, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := sel.Check(cols); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("%q: Check = %q, want %q", src, got, want)
		}
	}
}

// TestSelectDifferentialAfterChurn interleaves inserts and deletes —
// a delete refills the table with the rows it keeps — with the
// differential corpus, including a negative-zero real beside the
// integer 0.
func TestSelectDifferentialAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := randomTable(rng, 120)
	if err := tbl.Insert([]Value{StrVal("hz"), StrVal("cpu"), RealVal(math.Copysign(0, -1)), IntVal(0)}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 15; round++ {
		if rng.Intn(2) == 0 {
			if err := tbl.Insert(randomRow(rng)); err != nil {
				t.Fatal(err)
			}
		} else {
			host, min := fmt.Sprintf("h%02d", rng.Intn(12)), float64(50+rng.Intn(50))
			kept := NewTable(tbl.Name, tbl.Schema.Columns)
			for _, row := range tbl.Rows() {
				if row[0].S != host || row[2].R < min {
					if err := kept.Insert(row); err != nil {
						t.Fatal(err)
					}
				}
			}
			tbl = kept
		}
		for _, src := range selectCorpus {
			assertSameSelect(t, tbl, src)
		}
	}
}

// TestSelectIndexStats pins the plan's accounting: Scanned is the
// logical full-scan cost whatever the path, and Indexed marks only a
// WHERE whose first indexable equality conjunct is impossible (an INT
// column against a non-integral real), which reads no row. An equality
// probe scans however often it repeats: the read path builds no index.
func TestSelectIndexStats(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(3)), 80)
	for _, tc := range []struct {
		src     string
		indexed bool
	}{
		{"SELECT * FROM siteinfo WHERE host = 'h03'", false},
		{"SELECT * FROM siteinfo WHERE host = 'h03'", false},
		{"SELECT * FROM siteinfo WHERE value >= 50", false},
		{"SELECT * FROM siteinfo WHERE slot = 3.5", true},
		{"SELECT * FROM siteinfo WHERE 3.5 = slot AND host = 'h03'", true},
		{"SELECT * FROM siteinfo WHERE host = 'h03' AND slot = 3.5", false},                      // the first conjunct decides
		{"SELECT * FROM siteinfo WHERE slot = 9007199254740993 AND slot = 3.5", true},            // past float64-exact: passed over
		{"SELECT * FROM siteinfo WHERE slot = 3.5 OR host = 'h03'", false},                       // not a top-level conjunct
		{"SELECT * FROM siteinfo WHERE slot = 3.5 AND value LIKE 'x%'", false},                   // could raise a type error
		{"SELECT * FROM siteinfo WHERE slot = 3.5 AND nosuch = 1 ORDER BY value LIMIT 2", false}, // unresolved column
	} {
		res, err := rowsSelect(tbl, tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if res.Indexed != tc.indexed || res.Scanned != len(tbl.Rows()) {
			t.Errorf("%q: Indexed %v Scanned %d, want %v and %d", tc.src, res.Indexed, res.Scanned, tc.indexed, len(tbl.Rows()))
		}
		if tc.indexed && len(res.Rows) != 0 {
			t.Errorf("%q: a provably empty WHERE answered %d rows", tc.src, len(res.Rows))
		}
	}
}

// reversedTable is tbl with its columns, and every row, in reverse order.
func reversedTable(tbl *Table) *Table {
	cols := slices.Clone(tbl.Schema.Columns)
	slices.Reverse(cols)
	out := NewTable(tbl.Name, cols)
	for _, row := range tbl.Rows() {
		row = slices.Clone(row)
		slices.Reverse(row)
		if err := out.Insert(row); err != nil {
			panic(err)
		}
	}
	return out
}

// preparedAnswer runs sel over tbl in a RowsQuery and renders the result,
// or the error, for comparison.
func preparedAnswer(tbl *Table, sel SelectStmt) string {
	q := RowsQuery{Select: sel}
	st, err := q.Run(tbl.Name, tbl.Schema.Columns, [][][]Value{tbl.Rows()})
	if err != nil {
		return "error: " + err.Error()
	}
	res := q.Result()
	res.Scanned = st.Scanned
	return resultString(res)
}

// TestPreparedPlanSharedConcurrently: eight goroutines run each
// prepared statement of the corpus at once, over a table and over the
// same table with its columns reversed, so the first runs race to
// publish the statement's plan, later runs over the same columns read
// it, and runs over the other order compile their own. Every answer must
// be the naive executor's. Nothing but the plan slot orders the
// goroutines once they start, so under -race this also holds the slot's
// publication to its protocol.
func TestPreparedPlanSharedConcurrently(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(1)), 60)
	tables := []*Table{tbl, reversedTable(tbl)}
	for _, src := range selectCorpus {
		p, err := Prepare(src)
		if err != nil {
			t.Fatalf("prepare %q: %v", src, err)
		}
		want := make([]string, len(tables))
		for i, tb := range tables {
			res, err := ScanSelect(tb, p.Select)
			if err != nil {
				want[i] = "error: " + err.Error()
				continue
			}
			res.Indexed = false
			want[i] = resultString(res)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 6; i++ {
					ti := (g + i) % len(tables)
					if got := preparedAnswer(tables[ti], p.Select); got != want[ti] {
						t.Errorf("%q over table %d:\nprepared:\n%s\noracle:\n%s", src, ti, got, want[ti])
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestRowsQueryReset: one RowsQuery, Reset between queries, answers the
// whole corpus, in several orders and over two sets a query, as a fresh
// RowsQuery answers each statement, though every query runs in the
// scratch the ones before it grew; and once Reset it holds none of the
// rows or values it answered, past the length of its slices too.
func TestRowsQueryReset(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(3)), 150)
	rows := tbl.Rows()
	run := func(q *RowsQuery) string {
		var out string
		for _, set := range [][][]Value{rows[:90], rows[90:]} {
			st, err := q.Run(tbl.Name, tbl.Schema.Columns, [][][]Value{set})
			if err != nil {
				return "error: " + err.Error()
			}
			out += fmt.Sprintf("set: %+v\n", st)
		}
		return out + resultString(q.Result())
	}
	var reused RowsQuery
	order := rand.New(rand.NewSource(4))
	for round := 0; round < 3; round++ {
		for _, i := range order.Perm(len(selectCorpus)) {
			sel, err := Parse(selectCorpus[i])
			if err != nil {
				t.Fatal(err)
			}
			reused.Reset()
			reused.Select = sel
			if got, want := run(&reused), run(&RowsQuery{Select: sel}); got != want {
				t.Fatalf("%q after Reset:\n%s\nfresh:\n%s", selectCorpus[i], got, want)
			}
		}
	}
	reused.Reset()
	for name, holds := range map[string]bool{
		"held":    slices.ContainsFunc(reused.held[:cap(reused.held)], func(h heldRow) bool { return h.row != nil || h.plan != nil }),
		"rows":    slices.ContainsFunc(reused.rows[:cap(reused.rows)], func(r []Value) bool { return r != nil }),
		"matched": slices.ContainsFunc(reused.matched[:cap(reused.matched)], func(r []Value) bool { return r != nil }),
		"heap":    slices.ContainsFunc(reused.heap[:cap(reused.heap)], func(e seqRow) bool { return e.row != nil }),
		"result":  slices.ContainsFunc(reused.res.Rows[:cap(reused.res.Rows)], func(r []Value) bool { return r != nil }),
		"values":  slices.ContainsFunc(reused.vals[:cap(reused.vals)], func(v Value) bool { return v != Value{} }),
	} {
		if holds {
			t.Errorf("after Reset the %s scratch still holds what it answered", name)
		}
	}
	if cap(reused.held) == 0 || cap(reused.heap) == 0 || cap(reused.vals) == 0 {
		t.Errorf("Reset dropped the scratch: held %d, heap %d, values %d", cap(reused.held), cap(reused.heap), cap(reused.vals))
	}
}
