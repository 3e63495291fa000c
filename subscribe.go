package gridmon

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"

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
//	MDS      an RFC 1960 LDAP filter selecting the entries to watch;
//	         the watcher polls the GRIS/GIIS on the grid clock and
//	         emits Put/Delete events for differences (MDS has no
//	         native push).
//	R-GMA    a SQL SELECT run whole over each batch a producer of its
//	         FROM table publishes, as a query over those rows runs it
//	         (the select list projects, then Attrs). Subscribe refuses
//	         ORDER BY and LIMIT (ErrBadRequest) and a column a producer
//	         lacks (ErrExec); an error evaluating a batch ends the
//	         stream with the query's error. Empty subscribes to every
//	         row of "siteinfo".
//	Hawkeye  a ClassAd constraint installed as a Trigger ClassAd's
//	         Requirements; matchmaking fires a Trigger event per
//	         matching Startd ad, at subscribe time for the current pool
//	         and then on every advertisement. Empty matches every ad.
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
	// DefaultStreamBuffer). When the consumer lags, new events beyond the
	// buffer are dropped and accounted (see ErrLagged) rather than queued
	// without limit.
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
// sensors, and Hawkeye triggers also fire on Advertise. Setup failures
// carry the same structured codes as Query: ErrParse for a bad Expr,
// ErrBadRequest for a bad target or role, ErrUnavailable for a system
// not deployed here.
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
		detach, err = g.subscribeMDS(st, sub, id)
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
// run on the query path's scratch and rendered by its row renderer.
// Callers hold g.mu.
func (g *Grid) subscribeRGMA(st *Stream, sub Subscription, id string) (func(), error) {
	if sub.Role != "" && sub.Role != RoleInformationServer {
		return nil, transport.Errf(transport.CodeBadRequest,
			"R-GMA subscriptions stream directly from producers (role %q or empty), not %q",
			RoleInformationServer, sub.Role)
	}
	sel, err := g.selectStmt(sub.Expr, "siteinfo")
	if err != nil {
		return nil, transport.Errf(transport.CodeParse, "R-GMA subscription: %v", err)
	}
	if sel.OrderBy != "" || sel.Limit > 0 {
		return nil, transport.Errf(transport.CodeBadRequest,
			"R-GMA subscription: a stream has no order to apply ORDER BY or LIMIT to")
	}
	hosts := g.cfg.hosts
	if sub.Host != "" {
		if _, ok := g.servlets[sub.Host]; !ok {
			return nil, transport.Errf(transport.CodeBadRequest,
				"unknown host %q (monitored hosts: %v)", sub.Host, g.cfg.hosts)
		}
		hosts = []string{sub.Host}
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
		return nil, transport.Errf(transport.CodeBadRequest,
			"no producer of table %q to subscribe to", sel.Table)
	}
	rsub := &rgma.Subscription{
		ID: id,
		Deliver: func(producerID string, rows [][]relational.Value) {
			p := producers[producerID]
			rq := rowsQueries.Get().(*relational.RowsQuery)
			rq.Select = sel
			_, err := rq.Run(p.Table, p.Schema(), [][][]relational.Value{rows})
			if res := rq.Result(); err == nil && len(res.Rows) > 0 {
				records := core.ResultRecords(producerID+"/", res, sub.Attrs)
				st.send(g.clock(), EventPut, records, Work{RecordsReturned: len(records)})
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
// subscription's Expr becomes a Trigger ClassAd's Requirements, fired
// against the current pool immediately and then on every advertisement.
// Callers hold g.mu.
func (g *Grid) subscribeHawkeye(st *Stream, sub Subscription, id string) (func(), error) {
	if sub.Role != "" && sub.Role != RoleAggregateServer {
		return nil, transport.Errf(transport.CodeBadRequest,
			"Hawkeye subscriptions run trigger matchmaking in the Manager (role %q or empty), not %q",
			RoleAggregateServer, sub.Role)
	}
	if sub.Host != "" {
		if _, ok := g.agents[sub.Host]; !ok {
			return nil, transport.Errf(transport.CodeBadRequest,
				"unknown host %q (monitored hosts: %v)", sub.Host, g.cfg.hosts)
		}
	}
	ad := classad.NewAd()
	if sub.Expr != "" {
		constraint, err := classad.ParseExpr(sub.Expr)
		if err != nil {
			return nil, transport.Errf(transport.CodeParse, "Hawkeye trigger constraint: %v", err)
		}
		ad.Set(classad.AttrRequirements, constraint)
	}
	tr := &hawkeye.Trigger{
		Name: id,
		Ad:   ad,
		Fire: func(machine string, matched *classad.Ad) {
			if sub.Host != "" && machine != sub.Host {
				return
			}
			records := core.AdRecords([]*classad.Ad{matched}, sub.Attrs)
			st.send(g.clock(), EventTrigger, records,
				Work{RecordsReturned: 1, ResponseBytes: matched.SizeBytes()})
		},
	}
	g.manager.SubmitTrigger(g.clock(), tr)
	return func() { g.manager.RemoveTrigger(id) }, nil
}

// mdsWatcher is the poll-and-diff source that gives MDS — which has no
// native push — the same Subscription surface as the other systems: at
// each due Advance it re-queries its GRIS/GIIS and emits Put events for
// new or changed entries and Delete events for vanished ones.
type mdsWatcher struct {
	id       string
	st       *Stream
	poll     func(now float64) ([]Record, Work, error)
	interval float64
	nextPoll float64
	last     map[string]Record
}

// mdsRecords decodes a watcher's poll, projected onto attrs.
func mdsRecords(entries []*ldap.Entry, attrs []string) []Record {
	var a core.Answer
	core.MDSAnswer(&a, entries, attrs)
	return a.Records()
}

// subscribeMDS installs a poll-and-diff watcher. Callers hold g.mu.
func (g *Grid) subscribeMDS(st *Stream, sub Subscription, id string) (func(), error) {
	var filter ldap.Filter
	if sub.Expr != "" {
		var err error
		filter, err = ldap.ParseFilter(sub.Expr)
		if err != nil {
			return nil, transport.Errf(transport.CodeParse, "MDS filter: %v", err)
		}
	}
	role := sub.Role
	if role == "" {
		if sub.Host != "" {
			role = RoleInformationServer
		} else {
			role = RoleAggregateServer
		}
	}
	// The poll is built here, so a bad target fails the Subscribe call,
	// not the first Advance after it.
	var poll func(now float64) ([]Record, Work, error)
	switch role {
	case RoleInformationServer:
		gris, err := g.gris(sub.Host)
		if err != nil {
			return nil, err
		}
		poll = func(now float64) ([]Record, Work, error) {
			entries, st := gris.Query(now, filter, sub.Attrs)
			return mdsRecords(entries, sub.Attrs), core.MDSWork(st), nil
		}
	case RoleAggregateServer:
		poll = func(now float64) ([]Record, Work, error) {
			entries, st, err := g.giis.Query(now, filter, sub.Attrs)
			return mdsRecords(entries, sub.Attrs), core.MDSWork(st), err
		}
	default:
		return nil, transport.Errf(transport.CodeBadRequest,
			"MDS subscriptions watch the GRIS or GIIS (role %q, %q or empty), not %q",
			RoleInformationServer, RoleAggregateServer, role)
	}
	w := &mdsWatcher{id: id, st: st, poll: poll, interval: sub.PollEvery}
	g.watchers = append(g.watchers, w)
	return func() {
		for i, cand := range g.watchers {
			if cand == w {
				g.watchers = append(g.watchers[:i], g.watchers[i+1:]...)
				return
			}
		}
	}, nil
}

// pollWatchersLocked runs every due MDS watcher at time now. Callers
// hold g.mu.
func (g *Grid) pollWatchersLocked(now float64) {
	for _, w := range g.watchers {
		if w.st.Err() != nil || (w.last != nil && now < w.nextPoll) {
			continue
		}
		w.nextPoll = now + w.interval
		recs, work, err := w.poll(now)
		if err != nil {
			// The source failed; the watch cannot continue honestly. The
			// subscriber sees the buffered events, then the error.
			w.st.terminate(transport.AsError(err))
			continue
		}
		puts, dels := diffRecords(w.last, recs)
		if len(puts) > 0 {
			w.st.send(g.clock(), EventPut, puts, work)
		}
		if len(dels) > 0 {
			w.st.send(g.clock(), EventDelete, dels, Work{RecordsReturned: len(dels)})
		}
		last := make(map[string]Record, len(recs))
		for _, r := range recs {
			last[r.Key] = r
		}
		w.last = last
	}
}

// diffRecords compares a previous snapshot with the current one: puts
// are new or changed records, dels carry the keys that vanished. Both
// are sorted by key so event order is deterministic.
func diffRecords(last map[string]Record, cur []Record) (puts, dels []Record) {
	seen := make(map[string]bool, len(cur))
	for _, r := range cur {
		seen[r.Key] = true
		prev, ok := last[r.Key]
		if !ok || !maps.Equal(prev.Fields, r.Fields) {
			puts = append(puts, r)
		}
	}
	for key := range last {
		if !seen[key] {
			dels = append(dels, Record{Key: key})
		}
	}
	sort.Slice(puts, func(i, j int) bool { return puts[i].Key < puts[j].Key })
	sort.Slice(dels, func(i, j int) bool { return dels[i].Key < dels[j].Key })
	return puts, dels
}
