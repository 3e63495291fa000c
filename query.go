package gridmon

import (
	"context"
	"sync"
	"time"

	"repro/internal/classad"
	"repro/internal/core"
	"repro/internal/ldap"
	"repro/internal/relational"
	"repro/internal/rgma"
	"repro/internal/transport"
)

// Query is the one request shape of the v2 API: it selects a system and
// a Table 1 role, and carries an expression in that system's native
// query dialect. The same Query works against an in-process Grid and a
// remote server reached with Dial.
//
// Expr is interpreted per system:
//
//	MDS      an RFC 1960 LDAP search filter, e.g. "(objectclass=MdsCpu)"
//	R-GMA    a SQL SELECT for information/aggregate queries, e.g.
//	         "SELECT host, value FROM siteinfo WHERE value >= 50";
//	         a table name for directory lookups (default "siteinfo")
//	R-GMA    (directory role) the table whose producers to resolve
//	Hawkeye  a ClassAd constraint, e.g. "TARGET.CpuLoad > 50"
//
// An empty Expr asks for everything. Attrs projects the returned
// records to the named fields (LDAP attributes, SQL columns, ClassAd
// attributes); empty keeps all fields.
type Query struct {
	// System selects MDS, RGMA or Hawkeye.
	System System `json:"system"`
	// Role selects the Table 1 component answering the query; the zero
	// value means RoleInformationServer.
	Role Role `json:"role,omitempty"`
	// Host targets one host's information server. Required for MDS and
	// Hawkeye information-server queries; for R-GMA an empty Host routes
	// through the mediating ConsumerServlet instead of one servlet.
	Host string `json:"host,omitempty"`
	// Expr is the query expression in the system's dialect (see above).
	Expr string `json:"expr,omitempty"`
	// Attrs optionally projects returned records to these fields.
	Attrs []string `json:"attrs,omitempty"`
}

// Querier is the query surface shared by the in-process facade (Grid)
// and the remote client (RemoteGrid, from Dial): one typed request in,
// decoded records plus Work accounting out.
type Querier interface {
	Query(ctx context.Context, q Query) (*ResultSet, error)
}

var (
	_ Querier       = (*Grid)(nil)
	_ Querier       = (*RemoteGrid)(nil)
	_ AppendQuerier = (*RemoteGrid)(nil)
)

// ErrorCode classifies a query failure. The codes travel on the wire,
// so a remote query fails with the same code as the equivalent
// in-process one.
type ErrorCode = transport.Code

// The query failure codes (see internal/transport for the full set).
const (
	ErrBadRequest  = transport.CodeBadRequest
	ErrUnknownOp   = transport.CodeUnknownOp
	ErrParse       = transport.CodeParse
	ErrExec        = transport.CodeExec
	ErrUnavailable = transport.CodeUnavailable
	ErrDeadline    = transport.CodeDeadline
	ErrCanceled    = transport.CodeCanceled
	// ErrOverloadedCode is the code every admission-control shed carries
	// (the canonical error instance is ErrOverloaded, which errors.Is
	// matches by this code).
	ErrOverloadedCode = transport.CodeOverloaded
	// ErrDegradedCode is the code a federation aggregator fails with when
	// it cannot assemble an answer at all (every branch down, or any
	// branch down under the fail-fast policy); a best-effort partial
	// answer returns data with ResultSet.Partial instead. See
	// internal/federation.
	ErrDegradedCode = transport.CodeDegraded
)

// ErrDegraded is the canonical degraded-federation error instance:
// errors.Is(err, ErrDegraded) matches any error carrying
// ErrDegradedCode.
var ErrDegraded error = &transport.Error{Code: transport.CodeDegraded}

// CodeOf extracts the structured code from a query error (ErrExec for
// plain errors).
func CodeOf(err error) ErrorCode { return transport.ErrorCode(err) }

// Query answers q against the grid's own components at the clock's
// current time. The returned ResultSet carries the decoded records, the
// Work the serving component performed, and the elapsed wall time.
// Failures carry structured codes (see CodeOf), one code per failure,
// the code Subscribe gives the same failure: ErrParse for an Expr that
// does not parse in any system, ErrBadRequest for a bad target or role,
// ErrExec for what fails in the engine (an R-GMA table no producer
// serves, a column its producers lack), ErrUnavailable for a system not
// deployed here, ErrDeadline when ctx expires first.
//
// The context is honored during execution, not just at the edges: the
// serving component checks it before starting, and the fan-out
// components (the GIIS aggregate and the mediated ConsumerServlet) check
// it again between sub-queries. Query is safe for concurrent use with
// Advance and Subscribe, and runs under the facade's read lock:
// independent queries are served in parallel, while the state-changing
// paths (Advance, Advertise) exclude them.
//
// An expression is parsed once per Grid: the parsed filter, SELECT or
// constraint is kept by system and text, so a repeated Expr goes
// straight to the engine even when the result cache misses. A parse
// depends only on the text, so nothing invalidates it; an Expr longer
// than 512 bytes is parsed on every query, and a bad one fails every
// time.
//
// With WithQueryCache configured, an identical query repeated within the
// TTL is answered from the cache without taking the facade lock at all;
// Work then reports CacheHits=1 and no engine accounting. (A query whose
// Attrs hold a name with a NUL byte always runs uncached.)
//
// With WithAdmission configured, a query that misses the cache must be
// admitted before it executes: past the concurrency limit it waits in
// the bounded FIFO queue, and past that bound (or the queue timeout) it
// fast-fails with ErrOverloaded — see WithAdmission for the semantics.
//
// Query is AppendQuery decoded through the grid's RecordTable, as every
// querier decodes: see RecordTable for what the caller owns.
func (g *Grid) Query(ctx context.Context, q Query) (*ResultSet, error) {
	return g.records.Query(ctx, g, q)
}

// answers pools the scratch Answers a query renders into.
var answers = sync.Pool{New: func() any { return new(core.Answer) }}

// AppendQuery answers q as Query does and appends its grid.query reply
// body to dst, the ResultSet as the wire carries it: the answer's record
// section is copied in, from the pooled scratch an uncached answer is
// rendered into or from the bytes a cache entry owns. No Records are
// built, and an uncached answer lives no longer than the call. On an
// error dst comes back as it was.
func (g *Grid) AppendQuery(ctx context.Context, q Query, dst []byte) ([]byte, error) {
	start := time.Now()
	ans := answers.Get().(*core.Answer)
	rs, e, err := g.answer(ctx, q, start, ans)
	if err == nil {
		flat := ans
		if e != nil {
			flat = &e.answer
		}
		rs.Elapsed = time.Since(start)
		dst = appendWireResultSet(dst, &rs, flat)
	}
	answers.Put(ans)
	return dst, err
}

// answer is AppendQuery without the reply, the one answer function
// every query goes through. An uncached answer is rendered into out. A
// cached one is in e, the cache entry holding it: the hit, or the miss
// just stored, rendered into out and copied, exact size, into the answer
// its entry owns.
func (g *Grid) answer(ctx context.Context, q Query, start time.Time, out *core.Answer) (rs ResultSet, e *cacheEntry, err error) {
	if err := ctx.Err(); err != nil {
		g.counters.Errors.Add(1)
		return rs, nil, transport.AsError(err)
	}
	rs.System, rs.Role, rs.Host = q.System, q.Role, q.Host
	if rs.Role == "" {
		rs.Role = RoleInformationServer
	}
	cache := g.cache
	if cache != nil && !cacheable(q) {
		cache = nil
	}
	var key cacheKey
	if cache != nil {
		key = keyFor(q, rs.Role)
		if e, ok := cache.lookup(key, start); ok {
			// A hit did no engine work: only the response-shaped fields
			// carry over from the cached computation. Admission is not
			// consulted — a hit consumes no engine capacity, which is
			// exactly what the gate protects.
			rs.Work = Work{
				CacheHits:       1,
				RecordsReturned: e.work.RecordsReturned,
				ResponseBytes:   e.work.ResponseBytes,
			}
			g.counters.Queries.Add(1)
			g.counters.CacheHits.Add(1)
			return rs, e, nil
		}
	}
	if err := g.beginRead(ctx); err != nil {
		// Sheds are accounted inside the gate (Stats.Shed), not as
		// query errors; a ctx expiry while queued counts as neither.
		return rs, nil, err
	}
	var gen uint64
	if cache != nil {
		// Read the cache generation while holding the read lock: an
		// Advance cannot run concurrently, so the answer below is
		// computed at exactly this generation and the store after the
		// unlock can never publish pre-Advance data as fresh.
		gen = cache.gen.Load()
	}
	rs.Work, err = g.read(ctx, q, rs.Role, out)
	g.endRead()
	if err != nil {
		g.counters.Errors.Add(1)
		return ResultSet{}, nil, transport.AsError(err)
	}
	if cache != nil {
		owned := core.Answer{Enc: make([]byte, len(out.Enc))}
		copy(owned.Enc, out.Enc)
		e = cache.store(key, gen, start, owned, rs.Work)
		rs.Work.CacheMisses = 1
		g.counters.CacheMisses.Add(1)
	}
	g.counters.Queries.Add(1)
	return rs, e, nil
}

// beginRead admits the caller as one reader of the engines, the way every
// op that reaches them is admitted: through the admission gate when one is
// configured (a shed returns its ErrOverloaded, a ctx expiry while queued
// its own code, and nothing is held), then under the facade's read lock,
// so readers run in parallel and only the state-changing paths exclude
// them. A nil return must be paired with endRead.
func (g *Grid) beginRead(ctx context.Context) error {
	if g.admit != nil {
		if err := g.admit.acquire(ctx); err != nil {
			return err
		}
	}
	g.counters.InFlight.Add(1)
	g.mu.RLock()
	return nil
}

// endRead releases what beginRead took.
func (g *Grid) endRead() {
	g.mu.RUnlock()
	g.counters.InFlight.Add(-1)
	if g.admit != nil {
		g.admit.release()
	}
}

// read answers q, under role, from the engine that serves it, rendering
// the answer into out. The checks run in the order every caller sees
// their errors — system, deployment, expression, role, host — and only
// then does the engine run. The clock is read once, and ctx is checked
// after it: here for the single-server engines, inside QueryCtx between
// sub-queries for the two fan-out ones (the GIIS and the mediating
// ConsumerServlet), so an abandoned query stops mid-flight. The answer
// is projected to q.Attrs: every decoder skips the fields nobody asked
// for, and the LDAP query sizes MDS's Work as the projected response. On
// an error out is as it was.
// Callers hold beginRead.
func (g *Grid) read(ctx context.Context, q Query, role Role, out *core.Answer) (Work, error) {
	switch q.System {
	case MDS, RGMA, Hawkeye:
	default:
		return Work{}, transport.Errf(transport.CodeBadRequest,
			"unknown system %q (want %q, %q or %q)", q.System, MDS, RGMA, Hawkeye)
	}
	if !g.Enabled(q.System) {
		return Work{}, transport.Errf(transport.CodeUnavailable, "%s is not deployed in this grid", q.System)
	}
	switch q.System {
	case MDS:
		return g.readMDS(ctx, role, q, out)
	case RGMA:
		return g.readRGMA(ctx, role, q, out)
	default:
		return g.readHawkeye(ctx, role, q, out)
	}
}

// engineNow reads the clock for one single-server engine call, then
// checks ctx.
func (g *Grid) engineNow(ctx context.Context) (float64, error) {
	now := g.clock()
	return now, ctx.Err()
}

func (g *Grid) readMDS(ctx context.Context, role Role, q Query, out *core.Answer) (Work, error) {
	filter, err := memoParse(&g.memo, MDS, "MDS filter", q.Expr, ldap.ParseFilter)
	if err != nil {
		return Work{}, err
	}
	switch role {
	case RoleInformationServer:
		gris, err := g.gris(q.Host)
		if err != nil {
			return Work{}, err
		}
		now, err := g.engineNow(ctx)
		if err != nil {
			return Work{}, err
		}
		lent := entryLists.Get().(*[]*ldap.Entry)
		entries, st := gris.QueryInto(now, filter, q.Attrs, *lent)
		core.MDSAnswer(out, entries, q.Attrs)
		giveBack(&entryLists, lent, entries)
		return core.MDSWork(st), nil
	case RoleDirectoryServer, RoleAggregateServer:
		// The GIIS plays both roles in Table 1.
		if _, ok := g.grises[q.Host]; q.Host != "" && !ok {
			return Work{}, g.unknownHost(q.Host)
		}
		lent := entryLists.Get().(*[]*ldap.Entry)
		entries, st, err := g.giis.QueryInto(ctx, g.clock(), filter, q.Attrs, *lent)
		if err == nil {
			core.MDSAnswer(out, entries, q.Attrs)
		}
		giveBack(&entryLists, lent, entries)
		if err != nil {
			return Work{}, err
		}
		return core.MDSWork(st), nil
	}
	return Work{}, badRole(role)
}

func (g *Grid) gris(host string) (*GRIS, error) {
	if host == "" {
		return nil, transport.Errf(transport.CodeBadRequest,
			"MDS information-server query needs a Host (one of %v)", g.cfg.hosts)
	}
	gris, ok := g.grises[host]
	if !ok {
		return nil, g.unknownHost(host)
	}
	return gris, nil
}

// unknownHost refuses a Host the grid does not monitor, on any role.
func (g *Grid) unknownHost(host string) error {
	return transport.Errf(transport.CodeBadRequest,
		"unknown host %q (monitored hosts: %v)", host, g.cfg.hosts)
}

// rowsQueries pools the row scratch of the R-GMA engines' SELECTs (see
// relational.RowsQuery): a query runs on one, core renders its Result,
// and the scratch goes back, holding none of the producers' rows. The
// rendered answer points into none of it: string cells are the
// producers' own strings, and numbers are rendered into the answer's
// text.
var rowsQueries = sync.Pool{New: func() any { return new(relational.RowsQuery) }}

// readRGMA answers an R-GMA query: the Registry's directory answer, or a
// SELECT run on pooled row scratch (selectRGMA).
func (g *Grid) readRGMA(ctx context.Context, role Role, q Query, out *core.Answer) (Work, error) {
	if role == RoleDirectoryServer {
		if _, ok := g.servlets[q.Host]; q.Host != "" && !ok {
			return Work{}, g.unknownHost(q.Host)
		}
		table := q.Expr
		if table == "" {
			table = "siteinfo"
		}
		now, err := g.engineNow(ctx)
		if err != nil {
			return Work{}, err
		}
		lent := rgma.LendAdverts()
		ads, st := g.registry.LookupInto(table, now, *lent)
		core.AdvertisementAnswer(out, ads, q.Attrs)
		rgma.ReturnAdverts(lent, ads)
		return core.RGMAWork(st), nil
	}
	rq := rowsQueries.Get().(*relational.RowsQuery)
	res, st, err := g.selectRGMA(ctx, role, q, rq)
	if err == nil {
		core.ResultAnswer(out, "", res, q.Attrs)
	}
	rq.Reset()
	rowsQueries.Put(rq)
	if err != nil {
		return Work{}, err
	}
	return core.RGMAWork(st), nil
}

// selectRGMA runs an R-GMA SELECT on rq. SQL is parsed where the engine
// would parse it, so the checks ahead of it come first: a host-targeted
// query checks its host and ctx, and the aggregate role refreshes the
// composite. A SELECT that does not parse fails with ErrParse, as a bad
// Expr does in every system. An empty Expr selects the whole table, and
// an empty Host on the information-server role goes through the
// mediating ConsumerServlet instead of one servlet.
func (g *Grid) selectRGMA(ctx context.Context, role Role, q Query, rq *relational.RowsQuery) (*relational.Result, rgma.QueryStats, error) {
	var err error
	switch role {
	case RoleInformationServer:
		if q.Host == "" {
			now := g.clock()
			if rq.Select, err = g.selectStmt(q.Expr, "siteinfo"); err != nil {
				return nil, rgma.QueryStats{}, err
			}
			return g.consumer.QueryIntoCtx(ctx, now, rq)
		}
		ps, ok := g.servlets[q.Host]
		if !ok {
			return nil, rgma.QueryStats{}, g.unknownHost(q.Host)
		}
		now, err := g.engineNow(ctx)
		if err != nil {
			return nil, rgma.QueryStats{}, err
		}
		if rq.Select, err = g.selectStmt(q.Expr, "siteinfo"); err != nil {
			return nil, rgma.QueryStats{}, err
		}
		return ps.QueryInto(now, rq)
	case RoleAggregateServer:
		if _, ok := g.servlets[q.Host]; q.Host != "" && !ok {
			return nil, rgma.QueryStats{}, g.unknownHost(q.Host)
		}
		now, err := g.engineNow(ctx)
		if err != nil {
			return nil, rgma.QueryStats{}, err
		}
		if rq.Select, err = g.selectStmt(q.Expr, g.composite.Table); err != nil {
			// A bad statement still costs the composite its refresh.
			st, err := g.composite.Refuse(now, err)
			return nil, st, err
		}
		return g.composite.QueryInto(now, rq)
	}
	return nil, rgma.QueryStats{}, badRole(role)
}

// selectStmt is the SELECT an R-GMA query's expr states, prepared once
// per Grid, so its plan is compiled once too; an empty expr is "SELECT *
// FROM table", planned per query.
func (g *Grid) selectStmt(expr, table string) (relational.SelectStmt, error) {
	p, err := memoParse(&g.memo, RGMA, "R-GMA SELECT", expr, relational.Prepare)
	if p == nil { // an empty expr, or one that does not parse
		return relational.SelectStmt{Table: table}, err
	}
	return p.Select, nil
}

func (g *Grid) readHawkeye(ctx context.Context, role Role, q Query, out *core.Answer) (Work, error) {
	constraint, err := memoParse(&g.memo, Hawkeye, "Hawkeye constraint", q.Expr, classad.ParseExpr)
	if err != nil {
		return Work{}, err
	}
	switch role {
	case RoleInformationServer:
		if q.Host == "" {
			return Work{}, transport.Errf(transport.CodeBadRequest,
				"Hawkeye information-server query needs a Host (one of %v)", g.cfg.hosts)
		}
		agent, ok := g.agents[q.Host]
		if !ok {
			return Work{}, g.unknownHost(q.Host)
		}
		now, err := g.engineNow(ctx)
		if err != nil {
			return Work{}, err
		}
		// The Agent answers with its Startd ad, collected into a pooled
		// one, or nothing (no record slice) when the constraint rejects it.
		lent := startdAds.Get().(*classad.Ad)
		ad, st := agent.QueryInto(now, constraint, lent)
		if ad == nil {
			core.NoRecords(out)
		} else {
			core.AdAnswer(out, []*classad.Ad{ad}, q.Attrs)
		}
		startdAds.Put(lent)
		return core.HawkeyeWork(st), nil
	case RoleDirectoryServer, RoleAggregateServer:
		// The Manager plays both roles in Table 1.
		if _, ok := g.agents[q.Host]; q.Host != "" && !ok {
			return Work{}, g.unknownHost(q.Host)
		}
		now, err := g.engineNow(ctx)
		if err != nil {
			return Work{}, err
		}
		lent := adLists.Get().(*[]*classad.Ad)
		ads, st := g.manager.QueryInto(now, constraint, *lent)
		core.AdAnswer(out, ads, q.Attrs)
		giveBack(&adLists, lent, ads)
		return core.HawkeyeWork(st), nil
	}
	return Work{}, badRole(role)
}

// The pools of what the engines answer in: the ads a direct Agent query
// collects into, and the lists an MDS search and a Manager query append
// to, which go back empty (giveBack). A Registry lookup's list is
// rgma's (LendAdverts).
var (
	startdAds  = sync.Pool{New: func() any { return classad.NewAd() }}
	entryLists = sync.Pool{New: func() any { return new([]*ldap.Entry) }}
	adLists    = sync.Pool{New: func() any { return new([]*classad.Ad) }}
)

// giveBack returns lent to pool as used, emptied and cleared (the
// engines leave nothing past the length).
func giveBack[E any](pool *sync.Pool, lent *[]E, used []E) {
	clear(used)
	*lent = used[:0]
	pool.Put(lent)
}

func badRole(role Role) error {
	return transport.Errf(transport.CodeBadRequest,
		"unknown role %q (want %q, %q or %q)", role,
		RoleInformationServer, RoleDirectoryServer, RoleAggregateServer)
}
