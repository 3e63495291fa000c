package rgma

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/relational"
)

// oracleServletQuery is ProducerServlet.Query as it was while the servlet
// materialized its producers' rows in a scratch table for every query:
// a table named and typed by the first producer of the queried table, one
// Insert per row, then the naive executor (relational.ScanSelect). The
// servlet now runs a relational.RowsQuery over the rows without building
// a table, and must answer exactly this — rows, QueryStats and error
// text.
func oracleServletQuery(ps *ProducerServlet, now float64, sql string) (*relational.Result, QueryStats, error) {
	st := QueryStats{ThreadSpawns: 1}
	sel, err := relational.Parse(sql)
	if err != nil {
		return nil, st, err
	}
	var t *relational.Table
	for _, p := range ps.producers {
		if !strings.EqualFold(p.Table, sel.Table) {
			continue
		}
		if t == nil {
			t = relational.NewTable(p.Table, p.Schema())
		}
		for _, row := range p.Rows(now) {
			if err := t.Insert(row); err != nil {
				return nil, st, err
			}
			st.RowsScanned++ // materialization work
		}
	}
	if t == nil {
		return nil, st, fmt.Errorf("rgma: no producer of table %q at %s", sel.Table, ps.Address)
	}
	res, err := relational.ScanSelect(t, sel)
	if err != nil {
		return nil, st, err
	}
	st.RowsScanned += res.Scanned
	st.RowsReturned += len(res.Rows)
	st.ResponseBytes += res.SizeBytes()
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
	return oracleServletAt("oracle:8080", "", "lucky3", "lucky4", true)
}

// oracleServletAt hosts oracleServlet's producer set at address, with
// the producer ids prefixed (so several such servlets share a Registry)
// and the streaming producers on hosts a and b. refuse false makes the
// broken and ragged rows well-formed.
func oracleServletAt(address, prefix, a, b string, refuse bool) *ProducerServlet {
	s, r, i := relational.StrVal, relational.RealVal, relational.IntVal
	static := func(id, table string, rows ...[]relational.Value) *Producer {
		p := NewProducer(prefix+id, table, MonitoringSchema)
		p.Publish(rows)
		return p
	}
	broken, ragged := i(3), []relational.Value{s("b"), s("m"), r(2)}
	if !refuse {
		broken, ragged = s("c"), append(ragged, i(2))
	}
	ps := NewProducerServlet(address)
	ps.Host(NewMonitoringProducer(prefix+"m0", "siteinfo", a, 5))
	ps.Host(NewMonitoringProducer(prefix+"m1", "siteinfo", b, 5))
	ps.Host(static("s0", "SiteInfo",
		[]relational.Value{s("lucky5"), s("metric-00"), r(50), i(7)},
		[]relational.Value{s("Lucky5"), s("it's"), r(math.Copysign(0, -1)), i(oracleNow)}))
	ps.Host(static("x0", "mixed",
		[]relational.Value{s("a"), s("m"), i(3), r(2.7)},
		[]relational.Value{s("b"), s("m"), r(1.5), i(2)}))
	ps.Host(static("b0", "broken",
		[]relational.Value{s("a"), s("m"), r(1), i(1)},
		[]relational.Value{s("b"), s("m"), r(2), i(2)},
		[]relational.Value{s("c"), broken, r(3), i(3)}))
	ps.Host(static("r0", "ragged",
		[]relational.Value{s("a"), s("m"), r(1), i(1)},
		ragged))
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
	"SELECT host FROM siteinfo ORDER BY value DESC LIMIT 3", // ordered by a column it does not project
	"SELECT metric, host FROM siteinfo WHERE value >= 0 ORDER BY ts",
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
	got, gotSt, gotErr := ps.Query(oracleNow, sql)
	checkServletAnswer(t, ps, sql, got, gotSt, gotErr)
}

// checkPreparedServletAgainstOracle is checkServletAgainstOracle with
// the statement prepared, so the servlet runs prep's shared plan when it
// was compiled for its producers' columns.
func checkPreparedServletAgainstOracle(t *testing.T, ps *ProducerServlet, prep *relational.Prepared, sql string) {
	t.Helper()
	got, gotSt, gotErr := ps.QueryInto(oracleNow, &relational.RowsQuery{Select: prep.Select})
	checkServletAnswer(t, ps, sql, got, gotSt, gotErr)
}

// checkServletAnswer holds what ps answered sql with to the oracle.
func checkServletAnswer(t *testing.T, ps *ProducerServlet, sql string, got *relational.Result, gotSt QueryStats, gotErr error) {
	t.Helper()
	want, wantSt, wantErr := oracleServletQuery(ps, oracleNow, sql)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: err %v, oracle %v", sql, gotErr, wantErr)
	}
	if gotSt != wantSt {
		t.Fatalf("%q: stats %+v, oracle %+v", sql, gotSt, wantSt)
	}
	if want != nil {
		// The work is QueryStats', checked above; the answer carries none.
		want.Scanned, want.Indexed = 0, false
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

// TestServletResultsDoNotAliasProducers: the servlet and the mediator
// borrow rows that already have their column types and copy the rest, so
// writing into an answer changes neither the producers' rows nor the
// next answer.
func TestServletResultsDoNotAliasProducers(t *testing.T) {
	clobber := func(res *relational.Result, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			for i := range row {
				row[i] = relational.StrVal("clobbered")
			}
		}
	}
	ps, cs := oracleServlet(), uniformConsumer(t)
	for _, sql := range []string{"SELECT * FROM siteinfo", "SELECT * FROM mixed", "SELECT host FROM siteinfo ORDER BY value"} {
		res, _, err := ps.Query(oracleNow, sql)
		clobber(res, err)
		checkServletAgainstOracle(t, ps, sql)
		res, _, err = cs.Query(oracleNow, sql)
		clobber(res, err)
		checkConsumerAgainstOracles(t, cs, true, sql)
	}
	for _, p := range ps.Producers() {
		if p.ID == "x0" {
			if v := p.Rows(oracleNow)[0][2]; v != relational.IntVal(3) {
				t.Fatalf("the mixed producer's row was coerced in place: %v", v)
			}
		}
	}
}

// oracleConsumerQuery is ConsumerServlet.QueryCtx as it was while every
// producer servlet ran the SELECT on its own: one answer per servlet
// (here the scratch-DB oracle's), concatenated, re-ordered only when the
// ORDER BY column was among the projected ones, and limited. The
// mediator now runs one plan into one result and must answer the same
// QueryStats and errors, and the same rows except where the SELECT
// orders by a column it does not project.
func oracleConsumerQuery(cs *ConsumerServlet, now float64, sql string) (*relational.Result, QueryStats, error) {
	st := QueryStats{ThreadSpawns: 1}
	sel, err := relational.Parse(sql)
	if err != nil {
		return nil, st, err
	}
	ads, lookupStats, err := cs.registry.LookupProducersStats(sel.Table, now)
	st.RegistryLookups++
	st.Add(lookupStats)
	if err != nil {
		return nil, st, err
	}
	if len(ads) == 0 {
		return nil, st, fmt.Errorf("rgma: no producers of table %q registered", sel.Table)
	}
	seen := make(map[string]bool)
	var merged *relational.Result
	for _, ad := range ads {
		if seen[ad.Address] {
			continue
		}
		seen[ad.Address] = true
		pserv, err := cs.resolve(ad.Address)
		if err != nil {
			return nil, st, err
		}
		res, pStats, err := oracleServletQuery(pserv, now, sql)
		st.ProducersContacted++
		st.Add(pStats)
		if err != nil {
			return nil, st, err
		}
		if merged == nil {
			merged = &relational.Result{Columns: res.Columns}
		}
		merged.Rows = append(merged.Rows, res.Rows...)
	}
	if sel.OrderBy != "" && merged != nil {
		oi := -1
		for i, c := range merged.Columns {
			if strings.EqualFold(c, sel.OrderBy) {
				oi = i
				break
			}
		}
		if oi >= 0 {
			sort.SliceStable(merged.Rows, func(i, j int) bool {
				cmp, err := merged.Rows[i][oi].Compare(merged.Rows[j][oi])
				if err != nil {
					return false
				}
				if sel.Desc {
					return cmp > 0
				}
				return cmp < 0
			})
		}
	}
	if sel.Limit > 0 && merged != nil && len(merged.Rows) > sel.Limit {
		merged.Rows = merged.Rows[:sel.Limit]
	}
	return merged, st, nil
}

// oracleOneTable answers sql from one table that holds every row the
// consumer's producer servlets hold for the queried table, inserted in
// the order the mediator reaches them — what a mediated query means.
func oracleOneTable(cs *ConsumerServlet, now float64, sql string) (*relational.Result, error) {
	sel, err := relational.Parse(sql)
	if err != nil {
		return nil, err
	}
	ads, _, err := cs.registry.LookupProducersStats(sel.Table, now)
	if err != nil {
		return nil, err
	}
	var t *relational.Table
	seen := make(map[string]bool)
	for _, ad := range ads {
		if seen[ad.Address] {
			continue
		}
		seen[ad.Address] = true
		pserv, err := cs.resolve(ad.Address)
		if err != nil {
			return nil, err
		}
		for _, p := range pserv.producers {
			if !strings.EqualFold(p.Table, sel.Table) {
				continue
			}
			if t == nil {
				t = relational.NewTable(p.Table, p.Schema())
			}
			for _, row := range p.Rows(now) {
				if err := t.Insert(row); err != nil {
					return nil, err
				}
			}
		}
	}
	if t == nil {
		return nil, fmt.Errorf("no table %q", sel.Table)
	}
	return relational.ScanSelect(t, sel)
}

// orderedByUnprojected reports whether sql is a SELECT ordered by a
// column it does not project — where the mediator answers what
// oracleOneTable does, and the per-servlet oracle did not.
func orderedByUnprojected(sql string) bool {
	sel, err := relational.Parse(sql)
	if err != nil || sel.OrderBy == "" || len(sel.Columns) == 0 {
		return false
	}
	return !slices.ContainsFunc(sel.Columns, func(c string) bool { return strings.EqualFold(c, sel.OrderBy) })
}

// sameAnswer compares two results' columns and rows; no rows and empty
// rows are the same answer.
func sameAnswer(a, b *relational.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(a.Columns, b.Columns) && len(a.Rows) == len(b.Rows) &&
		(len(a.Rows) == 0 || reflect.DeepEqual(a.Rows, b.Rows))
}

// oracleConsumer registers the servlets, in order, with a fresh Registry
// and mediates over them.
func oracleConsumer(t testing.TB, servlets ...*ProducerServlet) *ConsumerServlet {
	t.Helper()
	reg := NewRegistry("oracle-registry")
	byAddr := make(map[string]*ProducerServlet)
	for _, ps := range servlets {
		byAddr[ps.Address] = ps
		for _, ad := range ps.Advertisements() {
			if err := reg.RegisterProducer(ad, 0, 1e9); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewConsumerServlet("oracle-consumer:8080", reg, func(addr string) (*ProducerServlet, error) {
		if ps, ok := byAddr[addr]; ok {
			return ps, nil
		}
		return nil, fmt.Errorf("unknown address %q", addr)
	})
}

// uniformConsumer mediates over three servlets whose producers share one
// schema and refuse no row, so every answer has a one-table meaning.
func uniformConsumer(t testing.TB) *ConsumerServlet {
	return oracleConsumer(t,
		oracleServletAt("u0:8080", "u0-", "lucky3", "lucky4", false),
		oracleServletAt("u1:8080", "u1-", "lucky6", "lucky5", false),
		oracleServletAt("u2:8080", "u2-", "lucky7", "lucky8", false))
}

// wideServlet hosts at address one siteinfo producer whose rows carry a
// fifth column (and a coerced value).
func wideServlet(address string) *ProducerServlet {
	s, r, i := relational.StrVal, relational.RealVal, relational.IntVal
	p := NewProducer(address+"-site", "siteinfo", append(slices.Clip(MonitoringSchema), relational.Column{Name: "site", Type: relational.StringType}))
	p.Publish([][]relational.Value{
		{s("lucky9"), s("metric-00"), r(99), i(oracleNow), s("uc")},
		{s("lucky9"), s("metric-01"), i(1), i(oracleNow), s("uc")},
	})
	ps := NewProducerServlet(address)
	ps.Host(p)
	return ps
}

// mixedConsumer mediates over five servlets: oracleServlet's, which
// refuses a broken and a ragged row, second; wide ones third and last,
// so the plan is recompiled at the third, fourth and fifth servlets and
// the answer's columns are not the last servlet's.
func mixedConsumer(t testing.TB) *ConsumerServlet {
	return oracleConsumer(t,
		oracleServletAt("m0:8080", "m0-", "lucky3", "lucky4", false),
		oracleServlet(),
		wideServlet("w1:8080"),
		oracleServletAt("m3:8080", "m3-", "lucky7", "lucky8", false),
		wideServlet("w4:8080"))
}

// checkConsumerAgainstOracles runs sql through the mediator and the
// per-servlet oracle, and, over a uniform grid, the one-table oracle.
func checkConsumerAgainstOracles(t *testing.T, cs *ConsumerServlet, uniform bool, sql string) {
	t.Helper()
	got, gotSt, gotErr := cs.Query(oracleNow, sql)
	checkConsumerAnswer(t, cs, uniform, sql, got, gotSt, gotErr)
}

// checkConsumerAnswer holds what cs answered sql with to the oracles.
func checkConsumerAnswer(t *testing.T, cs *ConsumerServlet, uniform bool, sql string, got *relational.Result, gotSt QueryStats, gotErr error) {
	t.Helper()
	want, wantSt, wantErr := oracleConsumerQuery(cs, oracleNow, sql)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: err %v, oracle %v", sql, gotErr, wantErr)
	}
	if gotSt != wantSt {
		t.Fatalf("%q: stats %+v, oracle %+v", sql, gotSt, wantSt)
	}
	if !orderedByUnprojected(sql) && !sameAnswer(got, want) {
		t.Fatalf("%q:\nresult %+v\noracle %+v", sql, got, want)
	}
	if !uniform {
		return
	}
	one, oneErr := oracleOneTable(cs, oracleNow, sql)
	if (gotErr == nil) != (oneErr == nil) {
		t.Fatalf("%q: err %v, one-table oracle %v", sql, gotErr, oneErr)
	}
	if gotErr == nil && !sameAnswer(got, one) {
		t.Fatalf("%q:\nresult          %+v\none-table oracle %+v", sql, got, one)
	}
}

// TestConsumerMatchesOracles holds the mediator, which runs one plan
// into one result across its servlets, to the per-servlet-then-merge
// body it replaced — rows, QueryStats and errors, over a recompile, a
// refused row in the middle servlet and a case-folded table name — and,
// on a uniform grid, to one table holding every servlet's rows. Where
// the SELECT orders by a column it does not project, only the one-table
// oracle's rows hold: the old merge skipped that sort and let LIMIT take
// the first servlet's rows.
func TestConsumerMatchesOracles(t *testing.T) {
	uniform, mixed := uniformConsumer(t), mixedConsumer(t)
	for _, sql := range servletCorpus {
		checkConsumerAgainstOracles(t, uniform, true, sql)
		checkConsumerAgainstOracles(t, mixed, false, sql)
	}
}

// TestConsumerOrdersByUnprojectedColumn: a mediated top-k by a column
// the SELECT does not return takes the grid's top rows, not the first
// servlet's.
func TestConsumerOrdersByUnprojectedColumn(t *testing.T) {
	cs := uniformConsumer(t)
	sql := "SELECT host FROM siteinfo ORDER BY value DESC LIMIT 3"
	got, _, err := cs.Query(oracleNow, sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleOneTable(cs, oracleNow, sql)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(got, want) {
		t.Fatalf("rows %v, want the grid's top three %v", got.Rows, want.Rows)
	}
	old, _, _ := oracleConsumerQuery(cs, oracleNow, sql)
	if sameAnswer(got, old) {
		t.Fatalf("the first servlet's rows %v are the grid's top three: the case shows nothing", old.Rows)
	}
}

// permutedServlet hosts oracleServlet's siteinfo rows under the
// monitoring columns in reverse order (ts, value, metric, host), so a
// plan compiled for one order answering the other would pick the wrong
// values, or fail on their types.
func permutedServlet() *ProducerServlet {
	cols := slices.Clone(MonitoringSchema)
	slices.Reverse(cols)
	ps := NewProducerServlet("permuted:8080")
	for _, p := range oracleServlet().producers {
		if !strings.EqualFold(p.Table, "siteinfo") {
			continue
		}
		var rows [][]relational.Value
		for _, row := range p.Rows(oracleNow) {
			row = slices.Clone(row)
			slices.Reverse(row)
			rows = append(rows, row)
		}
		rp := NewProducer("permuted-"+p.ID, p.Table, cols)
		rp.Publish(rows)
		ps.Host(rp)
	}
	return ps
}

// FuzzServletSelect: for any SQL text, the servlet answers what the
// scratch-DB oracle answers over the same producers, and the mediator
// what its oracles answer over servlets of such producers — parsed per
// query, and prepared, when two runs over the same producers share one
// plan and a run over the columns in another order must not use it. One
// prepared statement first runs over the usual order, another first over
// the reversed one, so either order may own the shared plan.
func FuzzServletSelect(f *testing.F) {
	for _, sql := range servletCorpus {
		f.Add(sql)
	}
	ps, permuted := oracleServlet(), permutedServlet()
	uniform, mixed := uniformConsumer(f), mixedConsumer(f)
	f.Fuzz(func(t *testing.T, sql string) {
		checkServletAgainstOracle(t, ps, sql)
		checkConsumerAgainstOracles(t, uniform, true, sql)
		checkConsumerAgainstOracles(t, mixed, false, sql)
		prep, err := relational.Prepare(sql)
		if err != nil {
			return // ps.Query failed with this error above, as the oracle did
		}
		for _, s := range []*ProducerServlet{ps, ps, permuted} {
			checkPreparedServletAgainstOracle(t, s, prep, sql)
		}
		for _, cs := range []struct {
			cs      *ConsumerServlet
			uniform bool
		}{{uniform, true}, {mixed, false}} {
			got, gotSt, gotErr := cs.cs.QueryIntoCtx(context.Background(), oracleNow, &relational.RowsQuery{Select: prep.Select})
			checkConsumerAnswer(t, cs.cs, cs.uniform, sql, got, gotSt, gotErr)
		}
		prep, _ = relational.Prepare(sql)
		for _, s := range []*ProducerServlet{permuted, ps, permuted} {
			checkPreparedServletAgainstOracle(t, s, prep, sql)
		}
	})
}
