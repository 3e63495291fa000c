package rgma

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relational"
)

// oracleServletQuery is ProducerServlet.Query as it was while the servlet
// materialized its producers' rows in a scratch database for every
// query: CreateTable, one Insert per row, then db.Run. The servlet now
// hands the rows to relational.SelectRows without building a table, and
// must answer exactly this — rows, QueryStats and error text.
func oracleServletQuery(ps *ProducerServlet, now float64, sql string) (*relational.Result, QueryStats, error) {
	st := QueryStats{ThreadSpawns: 1}
	stmt, err := relational.Parse(sql)
	if err != nil {
		return nil, st, err
	}
	sel, ok := stmt.(relational.SelectStmt)
	if !ok {
		return nil, st, fmt.Errorf("rgma: producer servlet accepts only SELECT, got %T", stmt)
	}
	db := relational.NewDB()
	var contributors int
	for _, p := range ps.producers {
		if !strings.EqualFold(p.Table, sel.Table) {
			continue
		}
		t, exists := db.Table(p.Table)
		if !exists {
			t, err = db.CreateTable(p.Table, p.Schema())
			if err != nil {
				return nil, st, err
			}
		}
		for _, row := range p.Rows(now) {
			if err := t.Insert(row); err != nil {
				return nil, st, err
			}
			st.RowsScanned++ // materialization work
		}
		contributors++
	}
	if contributors == 0 {
		return nil, st, fmt.Errorf("rgma: no producer of table %q at %s", sel.Table, ps.Address)
	}
	res, err := db.Run(sel)
	if err != nil {
		return nil, st, err
	}
	st.RowsScanned += res.Scanned
	st.RowsReturned += len(res.Rows)
	st.ResponseBytes += res.SizeBytes()
	st.IndexHits += res.IndexHits
	if !res.Indexed {
		st.ScanFallbacks++
	}
	return res, st, nil
}

// oracleNow is the instant the differential tests query at; the
// monitoring producers stamp ts with it.
const oracleNow = 100

// oracleServlet hosts a producer set that reaches every path of the
// servlet's SELECT: siteinfo from two streaming producers plus a static
// one that spells the table "SiteInfo"; mixed, whose rows carry an int
// in the REAL column and a real in the INT column (stored coerced); broken,
// whose third row has an int in a VARCHAR column, and ragged, whose
// second row is short (both refused after the rows before them were
// materialized); and empty, which has no rows.
func oracleServlet() *ProducerServlet {
	s, r, i := relational.StrVal, relational.RealVal, relational.IntVal
	static := func(id, table string, rows ...[]relational.Value) *Producer {
		p := NewProducer(id, table, MonitoringSchema)
		p.Publish(rows)
		return p
	}
	ps := NewProducerServlet("oracle:8080")
	ps.Host(NewMonitoringProducer("m0", "siteinfo", "lucky3", 5))
	ps.Host(NewMonitoringProducer("m1", "siteinfo", "lucky4", 5))
	ps.Host(static("s0", "SiteInfo",
		[]relational.Value{s("lucky5"), s("metric-00"), r(50), i(7)},
		[]relational.Value{s("Lucky5"), s("it's"), r(math.Copysign(0, -1)), i(oracleNow)}))
	ps.Host(static("x0", "mixed",
		[]relational.Value{s("a"), s("m"), i(3), r(2.7)},
		[]relational.Value{s("b"), s("m"), r(1.5), i(2)}))
	ps.Host(static("b0", "broken",
		[]relational.Value{s("a"), s("m"), r(1), i(1)},
		[]relational.Value{s("b"), s("m"), r(2), i(2)},
		[]relational.Value{s("c"), i(3), r(3), i(3)}))
	ps.Host(static("r0", "ragged",
		[]relational.Value{s("a"), s("m"), r(1), i(1)},
		[]relational.Value{s("b"), s("m"), r(2)}))
	ps.Host(static("e0", "empty"))
	return ps
}

// servletCorpus is the table test's SQL, and FuzzServletSelect's seeds.
var servletCorpus = []string{
	"SELECT * FROM siteinfo",
	"SELECT host, value FROM siteinfo",
	"SELECT value, HOST FROM siteinfo",
	"SELECT * FROM SITEINFO",
	"SELECT * FROM siteinfo WHERE host = 'lucky4'",
	"SELECT * FROM siteinfo WHERE host = 'LUCKY5'",
	"SELECT * FROM siteinfo WHERE metric LIKE 'metric-0%'",
	"SELECT * FROM siteinfo WHERE metric = 'it''s'",
	"SELECT * FROM siteinfo WHERE value >= 50",
	"SELECT * FROM siteinfo WHERE value = 0",
	"SELECT * FROM siteinfo WHERE ts = 100",
	"SELECT * FROM siteinfo WHERE ts = 1.5", // INT vs non-integral: the impossible lookup
	"SELECT * FROM siteinfo WHERE ts = 7.0 AND host = 'lucky5'",
	"SELECT * FROM siteinfo WHERE NOT value < 50 OR host = 'Lucky5'",
	"SELECT * FROM siteinfo WHERE (value > 10 AND value < 90) AND NOT (metric = 'metric-01')",
	"SELECT host, value FROM siteinfo WHERE value >= 10 ORDER BY value DESC LIMIT 3",
	"SELECT * FROM siteinfo ORDER BY host LIMIT 4",
	"SELECT * FROM siteinfo ORDER BY ts",
	"SELECT metric FROM siteinfo LIMIT 2",
	"SELECT nosuch FROM siteinfo",
	"SELECT * FROM siteinfo ORDER BY nosuch",
	"SELECT * FROM siteinfo WHERE nosuch = 1",
	"SELECT * FROM siteinfo WHERE host = 5",
	"SELECT * FROM siteinfo WHERE value LIKE '5%'",
	"SELECT * FROM mixed",
	"SELECT * FROM mixed WHERE value = 3",
	"SELECT * FROM mixed WHERE ts = 2 ORDER BY value",
	"SELECT * FROM broken",
	"SELECT nosuch FROM broken",
	"SELECT * FROM ragged WHERE ts = 1.5",
	"SELECT * FROM empty",
	"SELECT * FROM empty WHERE ts = 1.5 ORDER BY nosuch",
	"SELECT * FROM nosuch",
	"DELETE FROM siteinfo",
	"SELECT FROM siteinfo",
}

// checkServletAgainstOracle runs sql through the servlet and the oracle
// on the same producers at the same instant.
func checkServletAgainstOracle(t *testing.T, ps *ProducerServlet, sql string) {
	t.Helper()
	want, wantSt, wantErr := oracleServletQuery(ps, oracleNow, sql)
	got, gotSt, gotErr := ps.Query(oracleNow, sql)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: err %v, oracle %v", sql, gotErr, wantErr)
	}
	if gotSt != wantSt {
		t.Fatalf("%q: stats %+v, oracle %+v", sql, gotSt, wantSt)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\nresult %+v\noracle %+v", sql, got, want)
	}
}

// TestServletMatchesScratchDBOracle holds the servlet to the scratch-DB
// body it replaced on every path: projection, WHERE on each column type,
// ORDER BY … LIMIT, unknown columns, a case-folded table name, the
// impossible lookup, coerced rows, refused rows.
func TestServletMatchesScratchDBOracle(t *testing.T) {
	ps := oracleServlet()
	for _, sql := range servletCorpus {
		checkServletAgainstOracle(t, ps, sql)
	}
}

// TestServletResultsDoNotAliasProducers: the servlet borrows rows that
// already have their column types and copies the rest, so writing into
// an answer changes neither the producers' rows nor the next answer.
func TestServletResultsDoNotAliasProducers(t *testing.T) {
	ps := oracleServlet()
	for _, sql := range []string{"SELECT * FROM siteinfo", "SELECT * FROM mixed"} {
		res, _, err := ps.Query(oracleNow, sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			for i := range row {
				row[i] = relational.StrVal("clobbered")
			}
		}
		checkServletAgainstOracle(t, ps, sql)
	}
	for _, p := range ps.Producers() {
		if p.ID == "x0" {
			if v := p.Rows(oracleNow)[0][2]; v != relational.IntVal(3) {
				t.Fatalf("the mixed producer's row was coerced in place: %v", v)
			}
		}
	}
}

// FuzzServletSelect: for any SQL text, the servlet answers what the
// scratch-DB oracle answers over the same producers.
func FuzzServletSelect(f *testing.F) {
	for _, sql := range servletCorpus {
		f.Add(sql)
	}
	ps := oracleServlet()
	f.Fuzz(func(t *testing.T, sql string) {
		checkServletAgainstOracle(t, ps, sql)
	})
}
