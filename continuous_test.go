package gridmon

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/classad"
	"repro/internal/core"
	"repro/internal/ldap"
	"repro/internal/leakcheck"
	"repro/internal/mds"
	"repro/internal/relational"
	"repro/internal/rgma"
)

// SubscriptionGroup is one named part of SubscriptionCorpus.
type SubscriptionGroup struct {
	Name string
	Subs []Subscription
}

// SubscriptionCorpus is what TestAnswerDigest and
// TestContinuousQueryMatchesQuery subscribe, in named groups. The R-GMA group holds the bench's three continuous SELECTs
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

// churnMDS makes the MDS data of g move from round to round, so its
// watchers see changes and deletions: the GIIS aggregates two more GRIS
// that keep their data one grid-second, churnHost's always and
// flickerHost's only in odd rounds of five seconds. The grid's own
// GRIS keep theirs. Call it before g serves or is subscribed to.
func churnMDS(t testing.TB, g *Grid) {
	t.Helper()
	g.giis.CacheTTL = 1 // registrations made from here on refill on every poll
	for i, src := range []mds.Source{
		mds.NewGRIS(churnHost, 1, mds.DefaultProviders()),
		flicker{mds.NewGRIS(flickerHost, 1, mds.DefaultProviders())},
	} {
		if _, err := g.giis.Register(fmt.Sprintf("churn-%d", i), src, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// The hosts churnMDS adds to the GIIS.
const (
	churnHost   = "churn8"
	flickerHost = "flicker9"
)

// flicker is a GIIS source that reports its GRIS's entries in odd rounds
// of five grid-seconds and none in the others.
type flicker struct{ *mds.GRIS }

func (f flicker) Snapshot(now float64) []*ldap.Entry {
	if int(now/5)%2 == 0 {
		return nil
	}
	return f.GRIS.Snapshot(now)
}

// watchedQuery is the query an MDS watcher for sub polls.
func watchedQuery(sub Subscription) Query {
	q := Query{System: MDS, Role: sub.Role, Host: sub.Host, Expr: sub.Expr, Attrs: sub.Attrs}
	if q.Role == "" {
		q.Role = RoleAggregateServer
		if q.Host != "" {
			q.Role = RoleInformationServer
		}
	}
	return q
}

// nextEvents reads n events from st, and checks that an in-process
// stream, whose source sends before Advance returns, holds no more.
func nextEvents(t *testing.T, what string, st *Stream, n int, inProcess bool) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var events []Event
	for len(events) < n {
		ev, err := st.Next(ctx)
		if err != nil {
			t.Errorf("%s: event %d of %d: %v", what, len(events)+1, n, err)
			return events
		}
		events = append(events, ev)
	}
	if inProcess {
		over, stop := context.WithCancel(ctx)
		stop()
		if ev, err := st.Next(over); err == nil {
			t.Errorf("%s: unpredicted event %+v", what, ev)
		}
	}
	return events
}

// mdsRound reads the events an MDS watcher sent at one poll and checks
// them against answer, what the query it polls answered after it, which
// holds each key once: the records held, which map each key to its
// fields as a subscriber holds them, with the Put and then the Delete
// event applied, are the answer; a Put carries no record held unchanged
// and a Delete no key the answer still has, each sorted by key.
func mdsRound(t *testing.T, what string, st *Stream, held map[string]map[string]string, answer []Record, inProcess bool) {
	t.Helper()
	want := make(map[string]map[string]string, len(answer))
	for _, r := range answer {
		want[r.Key] = r.Fields
	}
	if len(want) != len(answer) {
		t.Errorf("%s: the query's answer repeats a key", what)
	}
	var kinds []EventKind
	for k, f := range want {
		if old, ok := held[k]; !ok || !maps.Equal(old, f) {
			kinds = []EventKind{EventPut}
			break
		}
	}
	for k := range held {
		if _, ok := want[k]; !ok {
			kinds = append(kinds, EventDelete)
			break
		}
	}
	for i, ev := range nextEvents(t, what, st, len(kinds), inProcess) {
		if ev.Kind != kinds[i] || !slices.IsSortedFunc(ev.Records, func(a, b Record) int { return strings.Compare(a.Key, b.Key) }) {
			t.Errorf("%s: event %d is %s %v, want %s sorted by key", what, i+1, ev.Kind, ev.Records, kinds[i])
		}
		for _, r := range ev.Records {
			old, ok := held[r.Key]
			switch {
			case ev.Kind == EventDelete && (!ok || want[r.Key] != nil):
				t.Errorf("%s: deleted %q, held %v, answered %v", what, r.Key, ok, want[r.Key])
			case ev.Kind == EventPut && ok && maps.Equal(old, r.Fields):
				t.Errorf("%s: put %q unchanged", what, r.Key)
			}
			if ev.Kind == EventDelete {
				delete(held, r.Key)
			} else {
				held[r.Key] = r.Fields
			}
		}
	}
	if !maps.EqualFunc(held, want, func(a, b map[string]string) bool { return maps.Equal(a, b) }) {
		t.Errorf("%s: the events leave %v, the query answers %v", what, held, want)
	}
}

// triggerAd is the Trigger ClassAd a Hawkeye subscription to expr
// installs: expr as its Requirements, and nothing else.
func triggerAd(t testing.TB, expr string) *classad.Ad {
	t.Helper()
	ad := classad.NewAd()
	if expr != "" {
		e, err := classad.ParseExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		ad.Set(classad.AttrRequirements, e)
	}
	return ad
}

// triggerOracle is what a trigger for sub fires in a matchmaking round
// over g's whole pool: the record of every machine m (of sub.Host only,
// when set) that is in the Manager query's answer for sub.Expr, and
// whose own Requirements accepts the trigger ad, sorted by key. An Expr
// reading Requirements from its own ad is the relation's one exception,
// which the caller leaves out.
func triggerOracle(t testing.TB, g *Grid, sub Subscription) []Record {
	t.Helper()
	rs, err := g.Query(context.Background(), Query{System: Hawkeye, Role: RoleAggregateServer, Expr: sub.Expr, Attrs: sub.Attrs})
	if err != nil {
		t.Fatal(err)
	}
	answered := make(map[string]Record, len(rs.Records))
	for _, r := range rs.Records {
		answered[r.Key] = r
	}
	trigger := triggerAd(t, sub.Expr)
	now := g.clock()
	var want []Record
	for _, m := range g.manager.Machines(now) {
		ad, _, ok := g.manager.QueryByName(now, m)
		if !ok || (sub.Host != "" && m != sub.Host) || !classad.SatisfiedBy(ad, trigger) {
			continue
		}
		if r, ok := answered[m]; ok {
			want = append(want, r)
		}
	}
	slices.SortFunc(want, func(a, b Record) int { return strings.Compare(a.Key, b.Key) })
	return want
}

// triggerRound reads the events a trigger sent in one matchmaking round
// and checks them against want (triggerOracle): one Trigger event per
// machine, carrying its record and counting the one match it visited.
func triggerRound(t *testing.T, what string, st *Stream, want []Record, inProcess bool) {
	t.Helper()
	var got []Record
	for _, ev := range nextEvents(t, what, st, len(want), inProcess) {
		if ev.Kind != EventTrigger || len(ev.Records) != 1 || ev.Work.RecordsVisited != 1 || ev.Work.RecordsReturned != 1 {
			t.Errorf("%s: event %s %v (work %+v), want one trigger record, one visited", what, ev.Kind, ev.Records, ev.Work)
		}
		got = append(got, ev.Records...)
	}
	slices.SortFunc(got, func(a, b Record) int { return strings.Compare(a.Key, b.Key) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: fired for %v, want %v", what, got, want)
	}
}

// advertiseRequirements adds two pool members to g that carry
// Requirements of their own: one that reads only its own ad, and so
// accepts every trigger, and one that accepts only a trigger ad without
// Requirements, and so refuses every trigger with a constraint. Both
// have the load of a busy machine.
func advertiseRequirements(t testing.TB, g *Grid, now float64) {
	t.Helper()
	for _, text := range []string{
		`[Name = "req-own"; CpuLoad = 95.5; MemFreeMB = 512; Requirements = MY.CpuLoad >= 0]`,
		`[Name = "req-none"; CpuLoad = 95.5; MemFreeMB = 512; Requirements = TARGET.Requirements =?= undefined]`,
	} {
		ad, err := classad.ParseAd(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.manager.Update(now, ad); err != nil {
			t.Fatal(err)
		}
	}
}

// TestContinuousQueryMatchesQuery: a subscription answers as the query
// with the same target and expression does, in all three systems.
// SubscriptionCorpus is subscribed in-process and over a loopback
// server, on grids whose MDS data moves (churnMDS) and whose pool holds
// two ads with Requirements of their own (advertiseRequirements), and
// driven through three Advance rounds.
//
//   - R-GMA: every Put event's records are ScanSelect's over the batch
//     that produced it (continuousOracle); a batch ScanSelect fails ends
//     the stream with the query's error; ORDER BY or LIMIT is refused
//     with ErrBadRequest; a refusal with ErrExec is the error the query
//     over the same target fails with. The four probe shapes are pinned.
//   - MDS: at every round the watcher polls, and the records held after
//     the previous poll, with this round's events applied, are what
//     Grid.Query answers (mdsRound).
//   - Hawkeye: at subscribe time and at every round, the trigger fires
//     for exactly the machines triggerOracle names.
func TestContinuousQueryMatchesQuery(t *testing.T) {
	leakcheck.Check(t)
	hosts := WithHosts("lucky3", "lucky4", "lucky5", "lucky6", "lucky7")
	grid := func() (*Grid, *float64) {
		g, now := steppedGrid(t, hosts)
		churnMDS(t, g)
		advertiseRequirements(t, g, 0)
		return g, now
	}
	local, localNow := grid()
	served, servedNow := grid()
	queried, _ := steppedGrid(t, hosts)
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
		held   map[string]map[string]string // an MDS watch's records
		events int
		end    bool
	}
	var watches []*watch
	for _, group := range SubscriptionCorpus() {
		for _, sub := range group.Subs {
			var sel relational.SelectStmt
			if sub.System == RGMA {
				var err error
				if sel, err = continuousSelect(sub.Expr); err != nil {
					t.Fatal(err)
				}
			}
			for i, w := range ways {
				what := fmt.Sprintf("%s %s host %q %q attrs %v", w.name, sub.System, sub.Host, sub.Expr, sub.Attrs)
				st, err := w.src.Subscribe(ctx, sub)
				if want, ok := map[string]ErrorCode{unknownColumnProbe: ErrExec, orderLimitProbe: ErrBadRequest}[sub.Expr]; ok && CodeOf(err) != want {
					t.Errorf("%s: err = %v, want %s", what, err, want)
				}
				switch {
				case sub.System == RGMA && (sel.OrderBy != "" || sel.Limit > 0):
					if CodeOf(err) != ErrBadRequest {
						t.Errorf("%s: err = %v, want %s", what, err, ErrBadRequest)
					}
				case err != nil && sub.System == RGMA:
					_, qerr := queried.Query(ctx, Query{System: RGMA, Host: sub.Host, Expr: sub.Expr})
					if CodeOf(err) != ErrExec || qerr == nil || err.Error() != qerr.Error() {
						t.Errorf("%s: refused with %v; the query fails with %v", what, err, qerr)
					}
				case err != nil:
					t.Errorf("%s: %v", what, err)
				default:
					w := &watch{what: what, sub: sub, sel: sel, way: i, st: st, held: map[string]map[string]string{}}
					if sub.System == Hawkeye {
						triggerRound(t, what+" at subscribe time", st, triggerOracle(t, ways[i].grid, sub), i == 0)
					}
					watches = append(watches, w)
				}
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
			advertiseRequirements(t, w.grid, at)
		}
		for _, w := range watches {
			if w.end {
				continue
			}
			g := ways[w.way].grid
			what := fmt.Sprintf("%s round %d", w.what, round)
			switch w.sub.System {
			case MDS:
				rs, err := g.Query(ctx, watchedQuery(w.sub))
				if err != nil {
					t.Fatal(err)
				}
				mdsRound(t, what, w.st, w.held, rs.Records, w.way == 0)
				continue
			case Hawkeye:
				triggerRound(t, what, w.st, triggerOracle(t, g, w.sub), w.way == 0)
				continue
			}
			want, wantErr := continuousOracle(t, g, w.sub, w.sel, at)
			w.end = readContinuous(t, what, w.st, want, wantErr)
			// An in-process source sends before Advance returns: nothing
			// the oracle did not predict may be left.
			if w.way == 0 && !w.end {
				if ev, err := w.st.Next(over); err == nil {
					t.Errorf("%s: unpredicted event %+v", what, ev)
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
		case w.sub.System == MDS && len(w.held) == 0:
			t.Errorf("%s: no records", w.what)
		}
	}
	if len(watches) == 0 {
		t.Fatal("every subscription was refused")
	}
}

// columnInError is the quoted column name a relational error names.
var columnInError = regexp.MustCompile(`column ("(?:[^"\\]|\\.)*")`)

// FuzzContinuousQuery: for any expression in any of the three dialects,
// a subscription answers as the query with the same target and
// expression does (checkContinuous). It is seeded with the checked-in
// corpora of the LDAP, SQL and ClassAd parsers' fuzz targets and with
// SubscriptionCorpus.
func FuzzContinuousQuery(f *testing.F) {
	for i, dir := range []string{
		"internal/ldap/testdata/fuzz/FuzzLDAPFilter",
		"internal/relational/testdata/fuzz/FuzzSQLParse",
		"internal/classad/testdata/fuzz/FuzzClassAdParse",
	} {
		for _, expr := range fuzzSeeds(f, dir) {
			f.Add(uint8(i), expr)
		}
	}
	for _, group := range SubscriptionCorpus() {
		for _, sub := range group.Subs {
			f.Add(uint8(slices.Index(continuousSystems, sub.System)), sub.Expr)
		}
	}
	// A number, which fires a trigger no more than the query answers it,
	// and the trigger relation's one exception, its own Requirements.
	f.Add(uint8(2), "TARGET.CpuLoad")
	f.Add(uint8(2), "MY.Requirements =?= undefined && TARGET.CpuLoad > 90")
	f.Fuzz(func(t *testing.T, system uint8, expr string) {
		checkContinuous(t, continuousSystems[int(system)%len(continuousSystems)], expr)
	})
}

// continuousSystems are the systems FuzzContinuousQuery picks from.
var continuousSystems = []System{MDS, RGMA, Hawkeye}

// checkContinuous subscribes to expr in system's dialect and checks the
// stream against the query with the same target and expression. Text
// that does not parse is refused with ErrParse, as the query fails.
//
//   - MDS: a watcher of the GIIS of a grid whose data moves (churnMDS)
//     holds, after each of three polls, what Grid.Query answers
//     (mdsRound).
//   - R-GMA, subscribed to one host: a table no producer of the host
//     serves is refused with ErrExec; ORDER BY and LIMIT with
//     ErrBadRequest; a column the producers lack with ErrExec naming it.
//     Otherwise each Put event is ScanSelect's answer over one
//     producer's batch (continuousOracle); a batch ScanSelect fails on
//     ends the stream with its error, and Grid.Query over the host's
//     batches fails with ErrExec too; when none fails, the events'
//     fields, in order, are the records Grid.Query answers over the
//     same batches.
//   - Hawkeye: at subscribe time and after an Advance, the trigger
//     fires for exactly the machines triggerOracle names, in a pool
//     with two ads that carry Requirements (advertiseRequirements). An
//     expression that names Requirements may read the trigger's own,
//     the relation's stated exception, and is held to nothing more
//     than its events' shape.
func checkContinuous(t *testing.T, system System, expr string) {
	now := 0.0
	g, err := New(WithHosts("lucky3", "lucky4"), WithSystems(system), WithClock(func() float64 { return now }))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub := Subscription{System: system, Expr: expr}
	var parseErr error
	switch system {
	case MDS:
		churnMDS(t, g)
		_, parseErr = ldap.ParseFilter(expr)
	case RGMA:
		sub.Host = "lucky3"
		_, parseErr = continuousSelect(expr)
	case Hawkeye:
		advertiseRequirements(t, g, now)
		_, parseErr = classad.ParseExpr(expr)
	}
	if expr == "" {
		parseErr = nil
	}
	st, err := g.Subscribe(ctx, sub)
	if parseErr != nil {
		q := Query{System: system, Role: RoleAggregateServer, Expr: expr}
		if system == RGMA {
			q.Role, q.Host = RoleInformationServer, sub.Host
		}
		_, qerr := g.Query(ctx, q)
		if CodeOf(err) != ErrParse || CodeOf(qerr) != ErrParse {
			t.Fatalf("unparsable %.80q: subscribe err = %v, query err = %v, want %s", expr, err, qerr, ErrParse)
		}
		return
	}
	switch system {
	case MDS:
		if err != nil {
			t.Fatalf("%.80q: %v", expr, err)
		}
		held := map[string]map[string]string{}
		for now = 5; now <= 15; now += 5 {
			if err := g.Advance(now); err != nil {
				t.Fatal(err)
			}
			rs, err := g.Query(ctx, watchedQuery(sub))
			if err != nil {
				t.Fatal(err)
			}
			mdsRound(t, fmt.Sprintf("%.80q at %v", expr, now), st, held, rs.Records, true)
		}
	case RGMA:
		checkContinuousSelect(t, g, sub, st, err, &now)
	case Hawkeye:
		if err != nil {
			t.Fatalf("%.80q: %v", expr, err)
		}
		exception := strings.Contains(strings.ToLower(expr), strings.ToLower(classad.AttrRequirements))
		for round := 0; round <= 1; round++ {
			if round > 0 {
				now = 5
				if err := g.Advance(now); err != nil {
					t.Fatal(err)
				}
				advertiseRequirements(t, g, now)
			}
			what := fmt.Sprintf("%.80q round %d", expr, round)
			if !exception {
				triggerRound(t, what, st, triggerOracle(t, g, sub), true)
				continue
			}
			drain, stop := context.WithCancel(ctx)
			stop()
			for {
				ev, err := st.Next(drain)
				if err != nil {
					break
				}
				if ev.Kind != EventTrigger || len(ev.Records) != 1 {
					t.Errorf("%s: event %s %v, want one trigger record", what, ev.Kind, ev.Records)
				}
			}
		}
	}
}

// checkContinuousSelect is checkContinuous for R-GMA: sub's stream st,
// or its refusal err, against the queries over g's batches.
func checkContinuousSelect(t *testing.T, g *Grid, sub Subscription, st *Stream, err error, now *float64) {
	ctx := context.Background()
	expr := sub.Expr
	sel, _ := continuousSelect(expr)
	schema := relational.Schema{Columns: rgma.MonitoringSchema}
	switch {
	case !strings.EqualFold(sel.Table, "siteinfo"):
		_, qerr := g.Query(ctx, Query{System: RGMA, Host: sub.Host, Expr: expr})
		if CodeOf(err) != ErrExec || CodeOf(qerr) != ErrExec {
			t.Fatalf("%q: subscribe err = %v, query err = %v, want %s", expr, err, qerr, ErrExec)
		}
		return
	case (sel.OrderBy != "" || sel.Limit > 0) && sel.Check(schema.Columns) == nil:
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
		if uerr != nil || schema.ColIndex(col) >= 0 {
			t.Fatalf("%q: refused with %v, but siteinfo has column %q", expr, err, col)
		}
		return
	}
	*now = 5
	if err := g.Advance(*now); err != nil {
		t.Fatal(err)
	}
	want, wantErr := continuousOracle(t, g, sub, sel, *now)
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
}
