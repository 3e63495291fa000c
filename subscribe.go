package gridmon

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/binenc"
	"repro/internal/classad"
	"repro/internal/core"
	"repro/internal/hawkeye"
	"repro/internal/ldap"
	"repro/internal/relational"
	"repro/internal/rgma"
	"repro/internal/transport"
)

// Subscription is the one request shape of the push half of the v2 API:
// it selects a system and a source, and carries a standing expression in
// that system's native dialect. The same Subscription works against an
// in-process Grid and a remote server reached with Dial, exactly as
// Query does for the pull half.
//
// Expr is interpreted per system:
//
//	MDS      an RFC 1960 LDAP filter. MDS has no native push, so at each
//	         due Advance a watcher runs the Query of the same Role, Host,
//	         Expr and Attrs on the query's path and diffs its records'
//	         bytes with the previous poll's: Put carries the new or
//	         changed records, Delete the keys that vanished, so the
//	         records put and not deleted are what the query answered.
//	R-GMA    a SQL SELECT run whole over each batch a producer of its
//	         FROM table publishes, as a query over those rows runs it
//	         (the select list projects, then Attrs). Subscribe refuses
//	         ORDER BY and LIMIT (ErrBadRequest) and a column a producer
//	         lacks (ErrExec); an error evaluating a batch ends the
//	         stream with the query's error. Empty subscribes to every
//	         row of "siteinfo".
//	Hawkeye  a ClassAd constraint, shared through the memo with Manager
//	         queries, installed as a Trigger ClassAd's Requirements. At
//	         subscribe time and on every advertisement, symmetric
//	         matchmaking (Raman, Livny and Solomon, HPDC 1998) fires a
//	         Trigger event for machine m exactly when m's ad is in the
//	         Manager query's answer for Expr and m's own Requirements
//	         accepts the trigger ad, except where Expr reads Requirements
//	         from its own ad (Requirements, MY.Requirements: the
//	         trigger's there, none in the query). Empty matches all.
type Subscription struct {
	// System selects MDS, RGMA or Hawkeye.
	System System `json:"system"`
	// Role selects the source component. The zero value picks the
	// natural one: the per-host information server when Host is set,
	// otherwise the system's aggregate (GIIS, all producers, Manager).
	Role Role `json:"role,omitempty"`
	// Host narrows the subscription to one host's data: the host's GRIS
	// (MDS), the producers of the host's servlet (R-GMA), or events for
	// that machine only (Hawkeye).
	Host string `json:"host,omitempty"`
	// Expr is the standing expression in the system's dialect (above).
	Expr string `json:"expr,omitempty"`
	// Attrs optionally projects event records to these fields.
	Attrs []string `json:"attrs,omitempty"`
	// PollEvery is the MDS watcher's poll interval in grid-clock
	// seconds: the watcher re-queries at the first Advance at or after
	// the previous poll time plus PollEvery. Zero polls on every
	// Advance. Ignored by the natively push-based systems.
	PollEvery float64 `json:"poll_every,omitempty"`
	// Buffer bounds the stream's event buffer (default
	// DefaultStreamBuffer, at most maxStreamBuffer, 65,536: a larger one
	// is refused with ErrBadRequest). When the consumer lags, new events
	// beyond the buffer are dropped and accounted (see ErrLagged) rather
	// than queued without limit.
	Buffer int `json:"buffer,omitempty"`
}

// Subscriber is the push surface shared by the in-process facade (Grid)
// and the remote client (RemoteGrid, from Dial): one typed standing
// request in, an ordered typed event stream out.
type Subscriber interface {
	Subscribe(ctx context.Context, sub Subscription) (*Stream, error)
}

var (
	_ Subscriber = (*Grid)(nil)
	_ Subscriber = (*RemoteGrid)(nil)
)

// Subscribe opens a typed event stream for sub against the grid's own
// components. Events flow when the grid's push paths run — Advance
// drives all three systems; R-GMA rows also stream when queries refresh
// sensors, and Hawkeye triggers also fire on Advertise. A setup failure
// carries the code Query gives the same failure: ErrParse for a bad
// Expr, ErrBadRequest for a bad target or role, ErrExec for an R-GMA
// table no producer serves or a column its producers lack,
// ErrUnavailable for a system not deployed here.
//
// Cancelling ctx (or calling Stream.Close) detaches the subscription
// from its sources; Next then drains the buffered events and returns the
// terminal error.
func (g *Grid) Subscribe(ctx context.Context, sub Subscription) (*Stream, error) {
	// An already-dead ctx fails here, as it does remotely: a non-nil
	// error is the one setup-failure signal of the Subscriber interface.
	if err := ctx.Err(); err != nil {
		return nil, transport.AsError(err)
	}
	switch sub.System {
	case MDS, RGMA, Hawkeye:
	default:
		return nil, transport.Errf(transport.CodeBadRequest,
			"unknown system %q (want %q, %q or %q)", sub.System, MDS, RGMA, Hawkeye)
	}
	if !g.Enabled(sub.System) {
		return nil, transport.Errf(transport.CodeUnavailable, "%s is not deployed in this grid", sub.System)
	}
	if sub.Buffer > maxStreamBuffer {
		return nil, transport.Errf(transport.CodeBadRequest,
			"buffer %d is over the maximum %d", sub.Buffer, maxStreamBuffer)
	}
	buffer := sub.Buffer
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}
	st := newStream(sub, buffer)

	g.mu.Lock()
	g.subID++
	id := fmt.Sprintf("gridmon/sub-%d", g.subID)
	var detach func()
	var err error
	switch sub.System {
	case RGMA:
		detach, err = g.subscribeRGMA(st, sub, id)
	case Hawkeye:
		detach, err = g.subscribeHawkeye(st, sub, id)
	default:
		detach, err = g.subscribeMDS(st, sub)
	}
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}

	// The teardown goroutine detaches the sources on whichever end comes
	// first: the subscribe context, the consumer's Close, or a source
	// failure terminating the stream.
	go func() {
		var terminal error
		select {
		case <-ctx.Done():
			terminal = ctx.Err()
		case <-st.stopped:
			terminal = ErrStreamClosed
		case <-st.done:
		}
		g.mu.Lock()
		detach()
		g.mu.Unlock()
		st.terminate(terminal)
	}()
	return st, nil
}

// subscribeRGMA attaches a continuous query to producer hubs — the
// paper's "subscribe to a flow of data with specific properties directly
// from a data source". Each published batch is answered as a query over
// the batch's producer alone would answer it: the same prepared SELECT,
// run on the query path's scratch and rendered by its row renderer into
// the query path's pooled Answer, which the event copies.
// Callers hold g.mu.
func (g *Grid) subscribeRGMA(st *Stream, sub Subscription, id string) (func(), error) {
	if sub.Role != "" && sub.Role != RoleInformationServer {
		return nil, transport.Errf(transport.CodeBadRequest,
			"R-GMA subscriptions stream directly from producers (role %q or empty), not %q",
			RoleInformationServer, sub.Role)
	}
	hosts := g.cfg.hosts
	if sub.Host != "" {
		if _, ok := g.servlets[sub.Host]; !ok {
			return nil, g.unknownHost(sub.Host)
		}
		hosts = []string{sub.Host}
	}
	sel, err := g.selectStmt(sub.Expr, "siteinfo")
	if err != nil {
		return nil, err
	}
	producers := make(map[string]*rgma.Producer)
	for _, h := range hosts {
		for _, p := range g.servlets[h].Producers() {
			if strings.EqualFold(p.Table, sel.Table) { // as a servlet matches a query's table
				// A column the producer lacks fails every query of it.
				if err := sel.Check(p.Schema()); err != nil {
					return nil, transport.AsError(err)
				}
				producers[p.ID] = p
			}
		}
	}
	if len(producers) == 0 {
		// As the query fails: which tables are served can change.
		return nil, transport.Errf(transport.CodeExec,
			"no producer of table %q to subscribe to", sel.Table)
	}
	// Refused only where the query answers.
	if sel.OrderBy != "" || sel.Limit > 0 {
		return nil, transport.Errf(transport.CodeBadRequest,
			"R-GMA subscription: a stream has no order to apply ORDER BY or LIMIT to")
	}
	rsub := &rgma.Subscription{
		ID: id,
		Deliver: func(producerID string, rows [][]relational.Value) {
			p := producers[producerID]
			rq := rowsQueries.Get().(*relational.RowsQuery)
			rq.Select = sel
			_, err := rq.Run(p.Table, p.Schema(), [][][]relational.Value{rows})
			if res := rq.Result(); err == nil && len(res.Rows) > 0 {
				ans := answers.Get().(*core.Answer)
				core.ResultAnswer(ans, producerID+"/", res, sub.Attrs)
				st.send(g.clock(), EventPut, ans.Enc, Work{RecordsReturned: len(res.Rows)})
				answers.Put(ans)
			}
			rq.Reset()
			rowsQueries.Put(rq)
			if err != nil {
				// The query over these rows fails; so does the stream,
				// after the events it already buffered.
				st.terminate(transport.AsError(err))
			}
		},
	}
	for _, p := range producers {
		p.Subscribe(rsub)
	}
	return func() {
		for _, p := range producers {
			p.Unsubscribe(id)
		}
	}, nil
}

// subscribeHawkeye surfaces Manager trigger matchmaking as events: the
// memo's constraint for Expr becomes a Trigger ClassAd's Requirements,
// fired against the current pool now and on every advertisement. The
// matched ad is rendered into the query path's pooled Answer, which the
// event copies. Callers hold g.mu.
func (g *Grid) subscribeHawkeye(st *Stream, sub Subscription, id string) (func(), error) {
	constraint, err := memoParse(&g.memo, Hawkeye, "Hawkeye constraint", sub.Expr, classad.ParseExpr)
	if err != nil {
		return nil, err
	}
	if sub.Role != "" && sub.Role != RoleAggregateServer {
		return nil, transport.Errf(transport.CodeBadRequest,
			"Hawkeye subscriptions run trigger matchmaking in the Manager (role %q or empty), not %q",
			RoleAggregateServer, sub.Role)
	}
	if _, ok := g.agents[sub.Host]; sub.Host != "" && !ok {
		return nil, g.unknownHost(sub.Host)
	}
	ad := classad.NewAd()
	if constraint != nil {
		ad.Set(classad.AttrRequirements, constraint)
	}
	tr := &hawkeye.Trigger{
		Name: id,
		Ad:   ad,
		Fire: func(machine string, matched *classad.Ad) {
			if sub.Host != "" && machine != sub.Host {
				return
			}
			ans := answers.Get().(*core.Answer)
			core.AdAnswer(ans, []*classad.Ad{matched}, sub.Attrs)
			st.send(g.clock(), EventTrigger, ans.Enc,
				Work{RecordsVisited: 1, RecordsReturned: 1, ResponseBytes: matched.SizeBytes()})
			answers.Put(ans)
		},
	}
	g.manager.SubmitTrigger(g.clock(), tr)
	return func() { g.manager.RemoveTrigger(id) }, nil
}

// mdsWatcher is the poll-and-diff source that gives MDS, which has no
// native push, the Subscription surface: each due poll runs q through
// g.read into one of the two answers the watcher owns, and is diffed
// with the other, the previous poll, on each record's bytes.
type mdsWatcher struct {
	st       *Stream
	q        Query // the poll, its Role resolved
	interval float64
	nextPoll float64
	cur      core.Answer
	prev     core.Answer // the previous poll; nil Enc before the first
}

// subscribeMDS installs a watcher, refusing before any poll what its
// query would fail on, and a role other than the GRIS's or the GIIS's
// aggregate. Callers hold g.mu.
func (g *Grid) subscribeMDS(st *Stream, sub Subscription) (func(), error) {
	q := Query{System: MDS, Role: sub.Role, Host: sub.Host, Expr: sub.Expr, Attrs: sub.Attrs}
	if _, err := memoParse(&g.memo, MDS, "MDS filter", q.Expr, ldap.ParseFilter); err != nil {
		return nil, err
	}
	switch {
	case q.Role == RoleAggregateServer, q.Role == "" && q.Host == "":
		q.Role = RoleAggregateServer
		if _, ok := g.grises[q.Host]; q.Host != "" && !ok {
			return nil, g.unknownHost(q.Host)
		}
	case q.Role == RoleInformationServer, q.Role == "":
		q.Role = RoleInformationServer
		if _, err := g.gris(q.Host); err != nil {
			return nil, err
		}
	default:
		return nil, transport.Errf(transport.CodeBadRequest,
			"MDS subscriptions watch the GRIS or GIIS (role %q, %q or empty), not %q",
			RoleInformationServer, RoleAggregateServer, q.Role)
	}
	w := &mdsWatcher{st: st, q: q, interval: sub.PollEvery}
	g.watchers = append(g.watchers, w)
	return func() { g.watchers = slices.DeleteFunc(g.watchers, func(c *mdsWatcher) bool { return c == w }) }, nil
}

// pollWatchersLocked runs every due MDS watcher at time now, through
// g.read, past admission, the result cache and Stats. Callers hold g.mu.
func (g *Grid) pollWatchersLocked(now float64) {
	for _, w := range g.watchers {
		if w.st.Err() != nil || (w.prev.Enc != nil && now < w.nextPoll) {
			continue
		}
		w.nextPoll = now + w.interval
		//gridmon:nolint ctxflow poll root: Advance takes no ctx, and a watch ends by its stream, not by a deadline
		work, err := g.read(context.Background(), w.q, w.q.Role, &w.cur)
		if err != nil {
			// The subscriber sees the buffered events, then the error.
			w.st.terminate(transport.AsError(err))
			continue
		}
		w.diff(g.clock(), work)
		w.prev, w.cur = w.cur, w.prev
	}
}

// diff sends what changed from w.prev to w.cur, each sorted by key: a
// Put event with the records new or whose bytes differ, their bytes as
// the poll rendered them, then a Delete event with the keys that
// vanished (an answer holds a DN once), each a record of no fields.
func (w *mdsWatcher) diff(now float64, work Work) {
	prevList, curList := mergeScratch.Get().(*[]wireRecord), mergeScratch.Get().(*[]wireRecord)
	prev, cur := recordsByKey(w.prev.Enc, *prevList), recordsByKey(w.cur.Enc, *curList)
	// Each list is written over the records it has walked.
	puts, dels, i := cur[:0], prev[:0], 0
	for _, r := range cur {
		for ; i < len(prev) && bytes.Compare(prev[i].key, r.key) < 0; i++ {
			dels = append(dels, prev[i])
		}
		if i < len(prev) && bytes.Equal(prev[i].key, r.key) {
			i++
			if bytes.Equal(prev[i-1].enc, r.enc) {
				continue
			}
		}
		puts = append(puts, r)
	}
	dels = append(dels, prev[i:]...)
	sec := answers.Get().(*core.Answer)
	if len(puts) > 0 {
		sec.Enc = binenc.AppendUvarint(sec.Enc[:0], uint64(len(puts))+1)
		for _, r := range puts {
			sec.Enc = append(sec.Enc, r.enc...)
		}
		w.st.send(now, EventPut, sec.Enc, work)
	}
	if len(dels) > 0 {
		sec.Enc = binenc.AppendUvarint(sec.Enc[:0], uint64(len(dels))+1)
		for _, r := range dels {
			sec.Enc = binenc.AppendUvarint(binenc.AppendBytes(sec.Enc, r.key), 0)
		}
		w.st.send(now, EventDelete, sec.Enc, Work{RecordsReturned: len(dels)})
	}
	answers.Put(sec)
	giveBack(&mergeScratch, prevList, prev)
	giveBack(&mergeScratch, curList, cur)
}

// recordsByKey appends to list the records of the record section enc,
// sorted by key.
func recordsByKey(enc []byte, list []wireRecord) []wireRecord {
	d := binenc.NewDec(enc)
	scanRecords(&d, enc, &list)
	slices.SortFunc(list, func(a, b wireRecord) int { return bytes.Compare(a.key, b.key) })
	return list
}
