package gridmon

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/relational"
	"repro/internal/rgma"
)

// SubscriptionGroup is one named part of SubscriptionCorpus.
type SubscriptionGroup struct {
	Name string
	Subs []Subscription
}

// SubscriptionCorpus is what TestAnswerDigest subscribes, in named
// groups. The R-GMA group holds the bench's three continuous SELECTs
// (broad and host-targeted), four shapes a continuous query once
// answered differently from a query (an unknown column, a LIKE that
// fails on every row, a projecting SELECT list, ORDER BY with LIMIT),
// each broad and host-targeted, and ScratchQueries' R-GMA SELECTs with
// their role dropped. The MDS and Hawkeye group is churn_durable's five
// subscriptions. Host-targeted subscriptions name hosts of scratch
// grids.
func SubscriptionCorpus() []SubscriptionGroup {
	rgma := []Subscription{
		{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE value >= 20"},
		{System: RGMA, Host: "lucky3", Expr: "SELECT * FROM siteinfo WHERE value >= 20"},
		{System: RGMA, Host: "lucky4", Expr: "SELECT * FROM siteinfo WHERE metric = 'metric-01'"},
		{System: RGMA, Host: "lucky7", Expr: "SELECT * FROM siteinfo WHERE value < 80", Attrs: []string{"host", "value"}},
	}
	for _, expr := range []string{
		"SELECT * FROM siteinfo WHERE valu >= 0",
		"SELECT * FROM siteinfo WHERE host LIKE 3",
		"SELECT host FROM siteinfo",
		"SELECT * FROM siteinfo ORDER BY value LIMIT 1",
	} {
		rgma = append(rgma, Subscription{System: RGMA, Expr: expr}, Subscription{System: RGMA, Host: "lucky3", Expr: expr})
	}
	for _, q := range ScratchQueries() {
		if q.System == RGMA && q.Role != RoleDirectoryServer {
			rgma = append(rgma, Subscription{System: RGMA, Host: q.Host, Expr: q.Expr, Attrs: q.Attrs})
		}
	}
	return []SubscriptionGroup{
		{"sub-rgma", rgma},
		{"sub-mds-hawkeye", []Subscription{
			{System: Hawkeye, Host: "lucky4", Expr: "TARGET.CpuLoad >= 0"},
			{System: Hawkeye, Host: "lucky5", Expr: "TARGET.MemFreeMB >= 100", Attrs: []string{"Name", "MemFreeMB"}},
			{System: Hawkeye, Expr: "TARGET.CpuLoad > 90"},
			{System: MDS, Host: "lucky6", Expr: "(objectclass=MdsCpu)"},
			{System: MDS, Expr: "(objectclass=MdsHostLoad)", PollEvery: 4},
		}},
	}
}

// The four shapes a continuous query once answered differently from a
// query.
const (
	unknownColumnProbe = "SELECT * FROM siteinfo WHERE valu >= 0"
	likeNumberProbe    = "SELECT * FROM siteinfo WHERE host LIKE 3"
	projectionProbe    = "SELECT host FROM siteinfo"
	orderLimitProbe    = "SELECT * FROM siteinfo ORDER BY value LIMIT 1"
)

// continuousSelect is the SELECT an R-GMA subscription's expr states.
func continuousSelect(expr string) (relational.SelectStmt, error) {
	if expr == "" {
		return relational.SelectStmt{Table: "siteinfo"}, nil
	}
	return relational.Parse(expr)
}

// continuousOracle is what sel answers, by ScanSelect, over each batch
// that g's producers named by sub published at now (g has advanced to
// now): the records of every batch it answers with rows, in publishing
// order, keyed producerID/row-NNNN and projected by sub.Attrs, up to
// the first batch it fails on, and that failure.
func continuousOracle(t testing.TB, g *Grid, sub Subscription, sel relational.SelectStmt, now float64) ([][]Record, error) {
	t.Helper()
	hosts := g.cfg.hosts
	if sub.Host != "" {
		hosts = []string{sub.Host}
	}
	var events [][]Record
	for _, h := range hosts {
		for _, p := range g.servlets[h].Producers() {
			if !strings.EqualFold(p.Table, sel.Table) {
				continue
			}
			table := relational.NewTable(p.Table, p.Schema())
			for _, row := range p.Rows(now) {
				if err := table.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			res, err := relational.ScanSelect(table, sel)
			if err != nil {
				return events, err
			}
			if len(res.Rows) == 0 {
				continue
			}
			recs := make([]Record, len(res.Rows))
			for i, row := range res.Rows {
				fields := make(map[string]string, len(row))
				for c, col := range res.Columns {
					if v := row[c]; v.Type == relational.StringType {
						fields[col] = v.S
					} else {
						fields[col] = v.String()
					}
				}
				recs[i] = Record{Key: fmt.Sprintf("%s/row-%04d", p.ID, i), Fields: fields}
			}
			events = append(events, core.ProjectRecords(recs, sub.Attrs))
		}
	}
	return events, nil
}

// readContinuous reads from st the Put events want predicts and, when
// the oracle failed with wantErr, the error the stream ends with, which
// must be the query's: ErrExec, carrying wantErr's text. It reports
// whether the stream ended.
func readContinuous(t *testing.T, what string, st *Stream, want [][]Record, wantErr error) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, recs := range want {
		ev, err := st.Next(ctx)
		if err != nil {
			t.Errorf("%s: event %d of %d: %v", what, i+1, len(want), err)
			return true
		}
		if ev.Kind != EventPut || !reflect.DeepEqual(ev.Records, recs) || ev.Work.RecordsReturned != len(recs) {
			t.Errorf("%s: event %d is %s %v (work %+v), want put %v", what, i+1, ev.Kind, ev.Records, ev.Work, recs)
		}
	}
	if wantErr == nil {
		return false
	}
	_, err := st.Next(ctx)
	if CodeOf(err) != ErrExec || !strings.Contains(err.Error(), wantErr.Error()) {
		t.Errorf("%s: the stream ends with %v, want %s carrying %q", what, err, ErrExec, wantErr)
	}
	return true
}

// TestContinuousQueryMatchesQuery: an R-GMA subscription answers each
// batch a producer publishes exactly as a query over that batch does.
// SubscriptionCorpus' R-GMA group, broad and host-targeted, is
// subscribed in-process and over a loopback server and driven through
// three Advance rounds. Every Put event's records are ScanSelect's over
// the batch that produced it (continuousOracle); a batch ScanSelect
// fails ends the stream with the query's error; ORDER BY or LIMIT is
// refused with ErrBadRequest; and a refusal with ErrExec is the error
// the query over the same target fails with. The four probe shapes are
// pinned on top.
func TestContinuousQueryMatchesQuery(t *testing.T) {
	leakcheck.Check(t)
	local, localNow := steppedGrid(t)
	served, servedNow := steppedGrid(t)
	queried, _ := steppedGrid(t)
	ways := []struct {
		name string
		grid *Grid
		now  *float64
		src  Subscriber
	}{
		{"in-process", local, localNow, local},
		{"remote", served, servedNow, serveGrid(t, served)},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type watch struct {
		what   string
		sub    Subscription
		sel    relational.SelectStmt
		way    int
		st     *Stream
		events int
		end    bool
	}
	var watches []*watch
	for _, sub := range SubscriptionCorpus()[0].Subs {
		sel, err := continuousSelect(sub.Expr)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ways {
			what := fmt.Sprintf("%s host %q %q attrs %v", w.name, sub.Host, sub.Expr, sub.Attrs)
			st, err := w.src.Subscribe(ctx, sub)
			if want, ok := map[string]ErrorCode{unknownColumnProbe: ErrExec, orderLimitProbe: ErrBadRequest}[sub.Expr]; ok && CodeOf(err) != want {
				t.Errorf("%s: err = %v, want %s", what, err, want)
			}
			switch {
			case sel.OrderBy != "" || sel.Limit > 0:
				if CodeOf(err) != ErrBadRequest {
					t.Errorf("%s: err = %v, want %s", what, err, ErrBadRequest)
				}
			case err != nil:
				_, qerr := queried.Query(ctx, Query{System: RGMA, Host: sub.Host, Expr: sub.Expr})
				if CodeOf(err) != ErrExec || qerr == nil || err.Error() != qerr.Error() {
					t.Errorf("%s: refused with %v; the query fails with %v", what, err, qerr)
				}
			default:
				watches = append(watches, &watch{what: what, sub: sub, sel: sel, way: i, st: st})
			}
		}
	}
	over, stop := context.WithCancel(ctx)
	stop()
	for round := 1; round <= 3; round++ {
		at := float64(5 * round)
		for _, w := range ways {
			*w.now = at
			if err := w.grid.Advance(at); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range watches {
			if w.end {
				continue
			}
			want, wantErr := continuousOracle(t, ways[w.way].grid, w.sub, w.sel, at)
			w.end = readContinuous(t, fmt.Sprintf("%s round %d", w.what, round), w.st, want, wantErr)
			// An in-process source sends before Advance returns: nothing
			// the oracle did not predict may be left.
			if w.way == 0 && !w.end {
				if ev, err := w.st.Next(over); err == nil {
					t.Errorf("%s round %d: unpredicted event %+v", w.what, round, ev)
				}
			}
			for _, recs := range want {
				w.events++
				for _, r := range recs {
					if w.sub.Expr == projectionProbe && len(r.Fields) != 1 {
						t.Errorf("%s: record %v, want the host field alone", w.what, r)
					}
				}
			}
		}
	}
	for _, w := range watches {
		switch {
		case w.sub.Expr == likeNumberProbe && !w.end:
			t.Errorf("%s: the stream did not end with %s", w.what, ErrExec)
		case w.sub.Expr == projectionProbe && w.events == 0:
			t.Errorf("%s: no events", w.what)
		}
	}
	if len(watches) == 0 {
		t.Fatal("every subscription was refused")
	}
}

// columnInError is the quoted column name a relational error names.
var columnInError = regexp.MustCompile(`column ("(?:[^"\\]|\\.)*")`)

// FuzzContinuousSelect: for any SELECT text, an R-GMA subscription to
// one host answers the batches an Advance publishes as the query over
// them does. Text that does not parse is refused with ErrParse; a table
// no producer of the host serves, ORDER BY and LIMIT with
// ErrBadRequest; a column the producers lack with ErrExec naming it.
// Otherwise each Put event is ScanSelect's answer over one producer's
// batch (continuousOracle); a batch ScanSelect fails on ends the stream
// with its error, and Grid.Query over the host's batches fails with
// ErrExec too; when none fails, the events' fields, in order, are the
// records Grid.Query answers over the same batches.
func FuzzContinuousSelect(f *testing.F) {
	for _, expr := range fuzzSeeds(f, "internal/relational/testdata/fuzz/FuzzSQLParse") {
		f.Add(expr)
	}
	for _, sub := range SubscriptionCorpus()[0].Subs {
		f.Add(sub.Expr)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		now := 0.0
		g, err := New(WithHosts("lucky3"), WithSystems(RGMA), WithClock(func() float64 { return now }))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sub := Subscription{System: RGMA, Host: "lucky3", Expr: expr}
		st, err := g.Subscribe(ctx, sub)
		sel, perr := continuousSelect(expr)
		switch {
		case perr != nil:
			if CodeOf(err) != ErrParse {
				t.Fatalf("unparsable %q: err = %v, want %s", expr, err, ErrParse)
			}
			return
		case !strings.EqualFold(sel.Table, "siteinfo"), sel.OrderBy != "", sel.Limit > 0:
			if CodeOf(err) != ErrBadRequest {
				t.Fatalf("%q: err = %v, want %s", expr, err, ErrBadRequest)
			}
			return
		case err != nil:
			m := columnInError.FindStringSubmatch(err.Error())
			if CodeOf(err) != ErrExec || m == nil {
				t.Fatalf("%q: refused with %v, want %s naming a column", expr, err, ErrExec)
			}
			col, uerr := strconv.Unquote(m[1])
			schema := relational.Schema{Columns: rgma.MonitoringSchema}
			if uerr != nil || schema.ColIndex(col) >= 0 {
				t.Fatalf("%q: refused with %v, but siteinfo has column %q", expr, err, col)
			}
			return
		}
		now = 5
		if err := g.Advance(now); err != nil {
			t.Fatal(err)
		}
		want, wantErr := continuousOracle(t, g, sub, sel, now)
		readContinuous(t, fmt.Sprintf("%q", expr), st, want, wantErr)
		rs, qerr := g.Query(ctx, Query{System: RGMA, Host: sub.Host, Expr: expr})
		if wantErr != nil {
			if CodeOf(qerr) != ErrExec {
				t.Fatalf("%q: the stream ended with %v, but the query answers %v", expr, wantErr, qerr)
			}
			return
		}
		if qerr != nil {
			t.Fatalf("%q: the subscription answers every batch, but the query fails: %v", expr, qerr)
		}
		var fields []map[string]string
		for _, recs := range want {
			for _, r := range recs {
				fields = append(fields, r.Fields)
			}
		}
		var got []map[string]string
		for _, r := range rs.Records {
			got = append(got, r.Fields)
		}
		if !reflect.DeepEqual(got, fields) {
			t.Fatalf("%q: the query answers %v, the events %v", expr, got, fields)
		}
	})
}
