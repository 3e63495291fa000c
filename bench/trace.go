package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	gridmon "repro"
	"repro/internal/classad"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/gma"
	"repro/internal/hawkeye"
	"repro/internal/ldap"
	"repro/internal/relational"
	"repro/internal/rgma"
	"repro/internal/storage"
)

// The traced run. Layers are measured from outside, by timing calls
// into their public functions: the first traceQueries generated queries
// are replayed sequentially by one client, once at each nested
// boundary — remote, in-process facade, component, parse/decode/project
// — at a frozen clock. Each timed call is a span; a child span is the
// same query replayed one boundary deeper, so a layer's self time is
// its span minus its children. In-program tracing is a later change;
// this one records spans only from the benchmark's own files.

// span is one timed call.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	ID       int    `json:"id"`     // index of the replayed query, round or record
	Parent   int    `json:"parent"` // index of the parent span in the trace, -1 for a root
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps a run's spans in memory; they are written out when the
// run ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

// call times f as a span and returns the span's index.
func (t *tracer) call(name string, id, parent int, f func()) int {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, ID: id, Parent: parent, StartNs: int64(start), EndNs: int64(end)})
	return len(t.spans) - 1
}

// selfTimes returns, per span, its duration minus its child spans'.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// named returns the sorted durations, in µs, of the spans called name;
// with self set, their self times.
func (t *tracer) named(name string, self bool) []float64 {
	var selfNs []int64
	if self {
		selfNs = selfTimes(t.spans)
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		if self {
			out = append(out, float64(selfNs[i])/1e3)
		} else {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// mallocs is the process's cumulative allocation count. The replay is
// single-goroutine with nothing else running, so a delta across a pass
// divided by its calls is that layer's allocations per call.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layers is the traced replay's working state.
type layers struct {
	ctx context.Context
	w   *workload
	gen *generator
	res *result
	tr  *tracer
	sz  sizes
	ids []uint32 // the replayed queries

	gateAnswers []*gridmon.ResultSet

	remoteSpan []int // per replayed query: its remote span
	facadeSpan []int // and its in-process facade span
}

func (l *layers) p50(metric, spanName string) {
	v := l.tr.named(spanName, false)
	l.res.set(metric, percentile(v, 50), "us")
	l.res.Samples[metric] = fmt.Sprintf("n=%d", len(v))
}

// pass runs f once per replayed query and returns allocations per call.
func (l *layers) pass(f func(i int, gq *genQuery)) float64 {
	before := mallocs()
	for i, id := range l.ids {
		f(i, &l.gen.queries[id])
	}
	return float64(mallocs()-before) / float64(len(l.ids))
}

// runTraced is one workload's traced run: a shortened load part on the
// workload's own deployment (for the counters and the demoted
// end-to-end readings, reported under "load."), then the sequential
// replay that yields the per-layer metrics.
func runTraced(ctx context.Context, w *workload, seed int64, sz sizes) (*result, error) {
	res := newResult(w, seed, sz.seconds, true)
	gen := newGenerator(seed, w.shapes, w.mix)
	d, setups, err := deploy(ctx, w, gen, 1)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.SetupS = setups
	res.set("load.setup_s", setups[0], "s")
	lr := measureLoad(ctx, res, "load.", w, gen, d, seed, planFor(0.6*sz.seconds))
	if lr.err != nil {
		return nil, lr.err
	}

	l := &layers{ctx: ctx, w: w, gen: gen, res: res, sz: sz, ids: gen.seq[:sz.queries], gateAnswers: d.gate.answers,
		tr: &tracer{workload: w.name, t0: time.Now()}}
	scratch := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// fanout, hawkeyeUpdate, storage and the transport stub's empty reply
	// take nothing from the workload; they run under each one because
	// every traced run is its own process and reports every metric.
	steps := []func() error{
		func() error { return l.remote(d) },
		l.facade,
		l.cacheHits,
		l.parsers,
		l.transport,
		l.fanout,
		l.hawkeyeUpdate,
		func() error { return l.federation(d) },
		func() error { return l.storage(scratch) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	l.fromLoad(d, lr)

	if err := l.tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	res.printf("trace: %d spans written to %s", len(l.tr.spans), filepath.Join(outDir, "trace-"+w.name+".json"))
	return res, nil
}

// remote replays the queries through RemoteGrid.Query on the
// workload's own deployment, pump stopped: a pass to fill the caches
// the way steady state has them, then plain and recorded passes. The
// recorded pass against the plain one is the tracing overhead.
func (l *layers) remote(d *deployment) error {
	client := d.clients[0]
	var firstErr error
	run := func(record bool) time.Duration {
		start := time.Now()
		for i, id := range l.ids {
			q := l.gen.queries[id].q
			query := func() {
				rs, err := client.Query(l.ctx, q)
				if err == nil && !d.gate.checkAnswer(id, rs) {
					err = fmt.Errorf("traced replay: wrong answer to %+v", q)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
			if record {
				l.remoteSpan[i] = l.tr.call("gridmon.remote_query", i, -1, query)
			} else {
				query()
			}
		}
		return time.Since(start)
	}
	l.remoteSpan = make([]int, len(l.ids))
	run(false) // fills the caches the last pump round emptied
	// Two alternating pairs, the faster pass of each kind: a pass is
	// short against the machine's noise, and noise only ever slows one.
	// Only the second recorded pass keeps its spans: the deeper
	// boundaries hang their child spans on it.
	before := len(l.tr.spans)
	plain, traced := run(false), run(true)
	l.tr.spans = l.tr.spans[:before]
	plain, traced = min(plain, run(false)), min(traced, run(true))
	if firstErr != nil {
		return firstErr
	}
	l.p50("gridmon.remote_query_us", "gridmon.remote_query")
	overhead := traced.Seconds()/plain.Seconds() - 1
	l.res.set("bench.tracing_overhead", overhead, "ratio")
	l.res.printf("tracing overhead: %d sequential remote queries took %v plain, %v with spans recorded (%+.1f%%; faster of two passes each)",
		len(l.ids), plain.Round(time.Millisecond), traced.Round(time.Millisecond), 100*overhead)
	return nil
}

// probeGrid builds an in-process grid over the generator's hosts at a
// frozen clock: no server, no admission, cache only if asked.
func (l *layers) probeGrid(cache bool) (*gridmon.Grid, error) {
	opts := []gridmon.Option{gridmon.WithHosts(l.gen.hosts...), gridmon.WithRGMAProducers(rgmaProducers)}
	if cache {
		opts = append(opts, gridmon.WithQueryCache(time.Hour))
	}
	return gridmon.New(opts...)
}

// facade replays the queries against an in-process grid (the miss
// path), then one boundary deeper against the components the facade
// binds, then the decoders and the projection, each as child spans.
func (l *layers) facade() error {
	g, err := l.probeGrid(false)
	if err != nil {
		return err
	}
	defer g.Close()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Work, summed by system, for the ratios the engines report.
	var work [3]gridmon.Work
	var count [3]int
	l.facadeSpan = make([]int, len(l.ids))
	facadeAllocs := l.pass(func(i int, gq *genQuery) {
		l.facadeSpan[i] = l.tr.call("gridmon.query", i, l.remoteSpan[i], func() {
			rs, err := g.Query(l.ctx, gq.q)
			note(err)
			if err == nil {
				work[gq.kind%3].Add(rs.Work)
				count[gq.kind%3]++
			}
		})
	})
	if firstErr != nil {
		return firstErr
	}

	giis, grises := g.MDS()
	registry, consumer, servlets := g.RGMA()
	manager, agents := g.HawkeyePool()
	const now = 0.0

	// Expressions are parsed ahead of the component pass, as child
	// spans of the facade call that would have parsed them.
	filters := make([]ldap.Filter, len(l.ids))
	constraints := make([]classad.Expr, len(l.ids))
	l.pass(func(i int, gq *genQuery) {
		switch {
		case gq.q.Expr == "":
		case gq.kind.system() == gridmon.MDS:
			l.tr.call("ldap.parse", i, l.facadeSpan[i], func() {
				f, err := ldap.ParseFilter(gq.q.Expr)
				note(err)
				filters[i] = f
			})
		case gq.kind.system() == gridmon.Hawkeye:
			l.tr.call("classad.parse", i, l.facadeSpan[i], func() {
				e, err := classad.ParseExpr(gq.q.Expr)
				note(err)
				constraints[i] = e
			})
		}
	})

	// The raw engine results, kept for the decode pass.
	entries := make([][]*ldap.Entry, len(l.ids))
	tables := make([]*relational.Result, len(l.ids))
	ads := make([][]*classad.Ad, len(l.ids))
	// componentPass calls the component behind every query of the
	// chosen systems and returns allocations per call made.
	componentPass := func(only func(gridmon.System) bool) float64 {
		calls, before := 0, mallocs()
		l.pass(func(i int, gq *genQuery) {
			if !only(gq.kind.system()) {
				return
			}
			calls++
			parent := l.facadeSpan[i]
			sql := gq.q.Expr
			if sql == "" {
				sql = "SELECT * FROM siteinfo"
			}
			switch gq.kind {
			case kMDSInfo:
				l.tr.call("mds.gris_query", i, parent, func() {
					entries[i], _ = grises[gq.q.Host].Query(now, filters[i], gq.q.Attrs)
				})
			case kMDSDir, kMDSAgg:
				l.tr.call("mds.giis_query", i, parent, func() {
					var err error
					entries[i], _, err = giis.QueryCtx(l.ctx, now, filters[i], gq.q.Attrs)
					note(err)
				})
			case kRGMAInfo:
				l.tr.call("rgma.servlet_query", i, parent, func() {
					var err error
					tables[i], _, err = servlets[gq.q.Host].Query(now, sql)
					note(err)
				})
			case kRGMAAgg:
				l.tr.call("rgma.consumer_query", i, parent, func() {
					var err error
					tables[i], _, err = consumer.QueryCtx(l.ctx, now, sql)
					note(err)
				})
			case kRGMADir:
				table := gq.q.Expr
				if table == "" {
					table = "siteinfo"
				}
				l.tr.call("rgma.registry_lookup", i, parent, func() {
					_, _, err := registry.LookupProducersStats(table, now)
					note(err)
				})
			case kHawkInfo:
				l.tr.call("hawkeye.agent_query", i, parent, func() {
					if ad, _ := agents[gq.q.Host].Query(now, constraints[i]); ad != nil {
						ads[i] = []*classad.Ad{ad}
					}
				})
			case kHawkDir, kHawkAgg:
				l.tr.call("hawkeye.manager_query", i, parent, func() {
					ads[i], _ = manager.Query(now, constraints[i])
				})
			}
		})
		return float64(mallocs()-before) / float64(max(calls, 1))
	}
	// MDS on its own pass so its allocations can be told apart.
	mdsAllocs := componentPass(func(sys gridmon.System) bool { return sys == gridmon.MDS })
	componentPass(func(sys gridmon.System) bool { return sys != gridmon.MDS })

	decodeCalls := 0
	decodeBefore := mallocs()
	decoded := make([][]core.Record, len(l.ids))
	l.pass(func(i int, gq *genQuery) {
		if gq.kind == kRGMADir {
			return // the directory answer is advertisements, decoded inline
		}
		decodeCalls++
		l.tr.call("core.decode", i, l.facadeSpan[i], func() {
			switch gq.kind.system() {
			case gridmon.MDS:
				decoded[i] = core.MDSRecords(entries[i])
			case gridmon.RGMA:
				decoded[i] = core.RGMARecords(tables[i])
			default:
				decoded[i] = core.HawkeyeRecords(ads[i])
			}
		})
	})
	decodeAllocs := float64(mallocs()-decodeBefore) / float64(max(decodeCalls, 1))
	l.pass(func(i int, gq *genQuery) {
		// MDS projects inside the LDAP query; the facade projects the rest.
		if gq.kind.system() == gridmon.MDS || len(gq.q.Attrs) == 0 || gq.kind == kRGMADir {
			return
		}
		l.tr.call("core.project", i, l.facadeSpan[i], func() {
			core.ProjectRecords(decoded[i], gq.q.Attrs)
		})
	})
	if firstErr != nil {
		return firstErr
	}

	res := l.res
	l.p50("gridmon.query_us", "gridmon.query")
	res.set("gridmon.query_allocs", facadeAllocs, "1")
	res.set("gridmon.facade_self_us", percentile(l.tr.named("gridmon.query", true), 50), "us")
	l.p50("core.decode_us", "core.decode")
	res.set("core.decode_allocs", decodeAllocs, "1")
	l.p50("core.project_us", "core.project")
	l.p50("mds.gris_query_us", "mds.gris_query")
	l.p50("mds.giis_query_us", "mds.giis_query")
	res.set("mds.query_allocs", mdsAllocs, "1")
	l.p50("rgma.servlet_query_us", "rgma.servlet_query")
	l.p50("rgma.consumer_query_us", "rgma.consumer_query")
	l.p50("rgma.registry_lookup_us", "rgma.registry_lookup")
	l.p50("hawkeye.agent_query_us", "hawkeye.agent_query")
	l.p50("hawkeye.manager_query_us", "hawkeye.manager_query")

	per := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	res.set("ldap.visited_per_returned", per(work[0].RecordsVisited, work[0].RecordsReturned), "ratio")
	res.set("ldap.scan_fallbacks_per_query", per(work[0].ScanFallbacks, count[0]), "1")
	res.set("relational.scan_fallbacks_per_query", per(work[1].ScanFallbacks, count[1]), "1")
	res.set("rgma.subqueries_per_query", per(work[1].Subqueries, count[1]), "1")

	// The client, codec and framing share: what the remote call costs
	// beyond the facade call it causes. On a cached workload the remote
	// replay is all hits, so its counterpart is the hit path (set by
	// cacheHits, which runs next).
	if l.w.cacheTTL == 0 {
		res.set("gridmon.remote_self_us", percentile(l.tr.named("gridmon.remote_query", true), 50), "us")
	}
	return nil
}

// cacheHits replays the queries against a cached in-process grid that
// an unrecorded pass has filled: the hit path.
func (l *layers) cacheHits() error {
	g, err := l.probeGrid(true)
	if err != nil {
		return err
	}
	defer g.Close()
	var firstErr error
	query := func(gq *genQuery) {
		if _, err := g.Query(l.ctx, gq.q); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	l.pass(func(_ int, gq *genQuery) { query(gq) })
	allocs := l.pass(func(i int, gq *genQuery) {
		l.tr.call("gridmon.cache_hit", i, -1, func() { query(gq) })
	})
	if firstErr != nil {
		return firstErr
	}
	l.p50("gridmon.cache_hit_us", "gridmon.cache_hit")
	l.res.set("gridmon.cache_hit_allocs", allocs, "1")
	if l.w.cacheTTL > 0 {
		remote := l.res.Metrics["gridmon.remote_query_us"].Value
		l.res.set("gridmon.remote_self_us", remote-l.res.Metrics["gridmon.cache_hit_us"].Value, "us")
	}
	return nil
}

// parsers times the three expression parsers over the workload's whole
// pools (SQL is parsed inside the R-GMA components, so it has no child
// span in the replay above).
func (l *layers) parsers() error {
	var firstErr error
	poolPass := func(name string, pool []shape, parse func(string) error) float64 {
		before := mallocs()
		n := 0
		// Several laps, so a 64-entry pool gives a usable sample.
		for lap := 0; lap < 16; lap++ {
			for i, sh := range pool {
				n++
				l.tr.call(name, i, -1, func() {
					if err := parse(sh.expr); err != nil && firstErr == nil {
						firstErr = fmt.Errorf("%s %q: %w", name, sh.expr, err)
					}
				})
			}
		}
		return float64(mallocs()-before) / float64(n)
	}
	ldapAllocs := poolPass("ldap.parse_pool", l.gen.pools[0], func(s string) error { _, err := ldap.ParseFilter(s); return err })
	poolPass("relational.parse", l.gen.pools[1], func(s string) error { _, err := relational.Parse(s); return err })
	adAllocs := poolPass("classad.parse_pool", l.gen.pools[2], func(s string) error { _, err := classad.ParseExpr(s); return err })
	if firstErr != nil {
		return firstErr
	}
	l.p50("ldap.parse_us", "ldap.parse_pool")
	l.res.set("ldap.parse_allocs", ldapAllocs, "1")
	l.p50("relational.parse_us", "relational.parse")
	l.p50("classad.parse_us", "classad.parse_pool")
	l.res.set("classad.parse_allocs", adAllocs, "1")
	return nil
}

// stubQuerier answers every query with one fixed ResultSet.
type stubQuerier struct{ rs *gridmon.ResultSet }

func (s stubQuerier) Query(context.Context, gridmon.Query) (*gridmon.ResultSet, error) {
	return s.rs, nil
}

// countingConn counts the bytes a client reads off the wire.
type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// transport times the v3 round trip alone: a stub Querier behind
// ServeQueryV3, so nothing but the client, framing, codec and loopback
// is in the path.
func (l *layers) transport() error {
	// The workload's median real reply, by encoded size.
	answers := append([]*gridmon.ResultSet(nil), l.gateAnswers...)
	sort.Slice(answers, func(i, j int) bool { return answers[i].Work.ResponseBytes < answers[j].Work.ResponseBytes })
	reply := answers[len(answers)/2]

	var firstErr error
	roundTrips := func(rs *gridmon.ResultSet, inFlight int, body func(c *gridmon.RemoteGrid, read *atomic.Int64) error) error {
		srv, addr, err := serve(func(srv *gridmon.TransportServer) { gridmon.ServeQueryV3(srv, stubQuerier{rs}) })
		if err != nil {
			return err
		}
		defer srv.Close()
		var read atomic.Int64
		c, err := gridmon.DialContextWith(l.ctx, addr, gridmon.DialOptions{
			MaxInFlight: inFlight,
			WrapConn:    func(conn net.Conn) net.Conn { return countingConn{conn, &read} },
		})
		if err != nil {
			return err
		}
		defer c.Close()
		return body(c, &read)
	}
	sequential := func(name string, rs *gridmon.ResultSet) (allocs, bytesPerReply float64, err error) {
		err = roundTrips(rs, 1, func(c *gridmon.RemoteGrid, read *atomic.Int64) error {
			q := l.gen.queries[l.ids[0]].q
			call := func() {
				if _, err := c.Query(l.ctx, q); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			for i := 0; i < 200; i++ { // settle buffers and the connection
				call()
			}
			before, readBefore := mallocs(), read.Load()
			for i := range l.ids {
				l.tr.call(name, i, -1, call)
			}
			allocs = float64(mallocs()-before) / float64(len(l.ids))
			bytesPerReply = float64(read.Load()-readBefore) / float64(len(l.ids))
			return firstErr
		})
		return allocs, bytesPerReply, err
	}
	smallAllocs, _, err := sequential("transport.rtt_small", &gridmon.ResultSet{})
	if err != nil {
		return err
	}
	_, wireBytes, err := sequential("transport.rtt_reply", reply)
	if err != nil {
		return err
	}
	var pipelined float64
	err = roundTrips(&gridmon.ResultSet{}, 32, func(c *gridmon.RemoteGrid, _ *atomic.Int64) error {
		const window = 400 * time.Millisecond
		q := l.gen.queries[l.ids[0]].q
		var done atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if _, err := c.Query(l.ctx, q); err != nil {
						return
					}
					done.Add(1)
				}
			}()
		}
		time.Sleep(window)
		stop.Store(true)
		wg.Wait()
		pipelined = float64(done.Load()) / time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		return err
	}
	l.p50("transport.rtt_small_us", "transport.rtt_small")
	l.p50("transport.rtt_reply_us", "transport.rtt_reply")
	l.res.set("transport.allocs_per_call", smallAllocs, "1")
	l.res.set("transport.wire_bytes_per_reply", wireBytes, "B")
	l.res.set("transport.pipelined_qps", pipelined, "1/s")
	l.res.printf("transport stub: median reply has %d records, %d response bytes", len(reply.Records), reply.Work.ResponseBytes)
	return nil
}

// fanoutSubs is the subscriber set of the fan-out rig: the write-heavy
// workload's eight.
func fanoutSubs() []gridmon.Subscription { return workloadByName("churn_durable").subs }

// fanout times event delivery in-process: from the start of an Advance
// call to the last Stream.Next return among the eight subscribers.
func (l *layers) fanout() error {
	clock := &gridClock{}
	g, err := gridmon.New(gridmon.WithHosts(l.gen.hosts...), gridmon.WithRGMAProducers(rgmaProducers), gridmon.WithClock(clock.now))
	if err != nil {
		return err
	}
	defer g.Close()
	rounds := newRoundTable()
	ctx, cancel := context.WithCancel(l.ctx)
	defer cancel()
	var subs []*subscriber
	for _, sub := range fanoutSubs() {
		st, err := g.Subscribe(ctx, sub)
		if err != nil {
			return err
		}
		s := &subscriber{stream: st, rounds: rounds}
		subs = append(subs, s)
		s.wg.Add(1)
		go s.consume(ctx)
	}
	for round := 1; round <= l.sz.rounds; round++ {
		rounds.begin(round)
		clock.set(float64(round))
		var err error
		l.tr.call("gridmon.advance", round, -1, func() { err = g.Advance(float64(round)) })
		if err != nil {
			return err
		}
		// In-process delivery is synchronous up to the stream buffer;
		// give the consumers a moment to drain it before the next round.
		time.Sleep(time.Millisecond)
	}
	cancel()
	last := map[int64]int64{} // round start -> latest delivery lag
	for _, s := range subs {
		s.stream.Close()
		s.wg.Wait()
		for _, lag := range s.lags {
			if lag.lagNs > last[lag.roundStart] {
				last[lag.roundStart] = lag.lagNs
			}
		}
	}
	var fan []float64
	for _, ns := range last {
		fan = append(fan, float64(ns)/1e3)
	}
	sort.Float64s(fan)
	l.res.set("gridmon.fanout_us", percentile(fan, 50), "us")
	l.res.Samples["gridmon.fanout_us"] = fmt.Sprintf("n=%d rounds, %d subscribers", len(fan), len(subs))
	return nil
}

// hawkeyeUpdate times Manager.Update per Startd ad with three triggers
// submitted — the matchmaking every advertisement pays for.
func (l *layers) hawkeyeUpdate() error {
	mgr := hawkeye.NewManager("manager", 0)
	for i, expr := range []string{"TARGET.CpuLoad >= 0", "TARGET.MemFreeMB >= 100", "TARGET.CpuLoad > 90"} {
		ad := classad.NewAd()
		constraint, err := classad.ParseExpr(expr)
		if err != nil {
			return err
		}
		ad.Set(classad.AttrRequirements, constraint)
		mgr.SubmitTrigger(0, &hawkeye.Trigger{Name: fmt.Sprintf("trigger-%d", i), Ad: ad, Fire: func(string, *classad.Ad) {}})
	}
	agents := make([]*hawkeye.Agent, len(l.gen.hosts))
	for i, h := range l.gen.hosts {
		agents[i] = hawkeye.NewAgent(h, 30)
		if err := agents[i].AddModules(hawkeye.DefaultModules()); err != nil {
			return err
		}
	}
	for i := 0; i < l.sz.records; i++ {
		now := float64(i / len(agents))
		ad, _ := agents[i%len(agents)].StartdAd(now)
		var err error
		l.tr.call("hawkeye.update", i, -1, func() { _, err = mgr.Update(now, ad) })
		if err != nil {
			return err
		}
	}
	l.p50("hawkeye.update_us", "hawkeye.update")
	return nil
}

// federation times the Router in-process. On the federated workload it
// uses the workload's own Router; elsewhere it builds the same
// three-leaf tree, so the layer is measured on every workload's
// queries.
func (l *layers) federation(d *deployment) error {
	if d.router == nil {
		fed := *workloadByName("fed_scatter")
		fed.subs = nil
		rig, err := setup(l.ctx, &fed, l.gen, "", false)
		if err != nil {
			return err
		}
		defer rig.close()
		d = rig
	}
	leaves := make([]*gridmon.RemoteGrid, len(d.smap.Shards))
	for i, sh := range d.smap.Shards {
		c, err := gridmon.DialContextWith(l.ctx, sh.Addrs[0], gridmon.DialOptions{})
		if err != nil {
			return err
		}
		defer c.Close()
		leaves[i] = c
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var scatterSelf []float64
	for i, id := range l.ids[:len(l.ids)/2] {
		q := l.gen.queries[id].q
		if q.Host != "" {
			l.tr.call("federation.route", i, -1, func() { _, err := d.router.Query(l.ctx, q); note(err) })
			continue
		}
		scatter := l.tr.call("federation.scatter", i, -1, func() { _, err := d.router.Query(l.ctx, q); note(err) })
		// The same query asked of each leaf directly: the slowest one is
		// the part of the scatter the Router cannot be blamed for.
		parts := make([]*gridmon.ResultSet, len(leaves))
		var slowest int64
		for li, leaf := range leaves {
			s := l.tr.call("federation.leaf_query", i, -1, func() {
				rs, err := leaf.Query(l.ctx, q)
				note(err)
				parts[li] = rs
			})
			slowest = max(slowest, l.tr.spans[s].dur())
		}
		if firstErr != nil {
			return firstErr
		}
		scatterSelf = append(scatterSelf, float64(l.tr.spans[scatter].dur()-slowest)/1e3)
		l.tr.call("federation.merge", i, scatter, func() { federation.MergeResultSets(q, parts) })
	}
	if firstErr != nil {
		return firstErr
	}
	sort.Float64s(scatterSelf)
	l.p50("federation.route_us", "federation.route")
	l.p50("federation.scatter_us", "federation.scatter")
	l.res.set("federation.scatter_self_us", percentile(scatterSelf, 50), "us")
	l.p50("federation.merge_us", "federation.merge")
	return nil
}

// storage times the durable layer on scratch directories: WAL appends
// of registry-sized records, fsync, replay of the durable workload's
// pre-populated log, snapshot compaction, and registration through a
// durable Registry.
func (l *layers) storage(scratch string) error {
	record := encodeLike(churnAd(0))
	st, err := storage.OpenFile(filepath.Join(scratch, "store"), storage.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < l.sz.records; i++ {
		l.tr.call("storage.append", i, -1, func() { err = st.Append(record) })
		if err != nil {
			return err
		}
		if i%100 == 50 {
			// An explicit flush with records pending, apart from the
			// batched one every SyncEvery appends pays inside Append.
			l.tr.call("storage.sync", i, -1, func() { err = st.Sync() })
			if err != nil {
				return err
			}
		}
	}
	if err := st.Sync(); err != nil {
		return err
	}
	onDisk, err := dirSize(filepath.Join(scratch, "store"))
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	l.p50("storage.append_us", "storage.append")
	l.p50("storage.sync_us", "storage.sync")
	l.res.set("storage.wal_bytes_per_record", float64(onDisk)/float64(l.sz.records*len(record)), "ratio")

	// Replay: open the log a crashed Registry left behind.
	crashed := filepath.Join(scratch, "crashed")
	if err := prepopulate(crashed); err != nil {
		return err
	}
	var replay []float64
	var snapshot []byte
	for i := 0; i < 3; i++ {
		var opened *storage.FileStore
		s := l.tr.call("storage.replay", i, -1, func() { opened, err = storage.OpenFile(filepath.Join(crashed, "registry"), storage.Options{}) })
		if err != nil {
			return err
		}
		replay = append(replay, float64(l.tr.spans[s].dur())/1e6)
		if i < 2 {
			if err := opened.Close(); err != nil {
				return err
			}
			continue
		}
		// Last lap: load the log into a Registry and let its Close
		// compact it, to learn what a state image of this size looks like.
		reg, err := rgma.OpenRegistry("registry", opened, 0)
		if err != nil {
			return err
		}
		if err := reg.Close(); err != nil {
			return err
		}
		reopened, err := storage.OpenFile(filepath.Join(crashed, "registry"), storage.Options{})
		if err != nil {
			return err
		}
		snapshot, _ = reopened.Recovered()
		var snaps []float64
		for j := 0; j < 5; j++ {
			s := l.tr.call("storage.snapshot", j, -1, func() { err = reopened.SaveSnapshot(snapshot) })
			if err != nil {
				return err
			}
			snaps = append(snaps, float64(l.tr.spans[s].dur())/1e6)
		}
		if err := reopened.Close(); err != nil {
			return err
		}
		l.res.set("storage.snapshot_ms", median(snaps), "ms")
		l.res.Samples["storage.snapshot_ms"] = fmt.Sprintf("n=%d, %d-byte image", len(snaps), len(snapshot))
	}
	l.res.set("storage.replay_ms", median(replay), "ms")
	l.res.Samples["storage.replay_ms"] = fmt.Sprintf("n=%d, %d records", len(replay), walRecords)

	// Registration through a durable Registry at its default cadences.
	regStore, err := storage.OpenFile(filepath.Join(scratch, "registry"), storage.Options{})
	if err != nil {
		return err
	}
	reg, err := rgma.OpenRegistry("registry", regStore, 0)
	if err != nil {
		return err
	}
	for i := 0; i < l.sz.records; i++ {
		ad := churnAd(i % 512)
		l.tr.call("rgma.register", i, -1, func() { err = reg.RegisterProducer(ad, float64(i), 1e12) })
		if err != nil {
			return err
		}
	}
	if err := reg.Close(); err != nil {
		return err
	}
	l.p50("rgma.register_us", "rgma.register")
	return nil
}

// encodeLike builds a payload the size of the Registry's register
// record for ad (see internal/rgma's WAL grammar).
func encodeLike(ad gma.Advertisement) []byte {
	var e storage.Encoder
	e.Byte(1)
	e.String(ad.ProducerID)
	e.String(ad.Address)
	e.String(ad.TableName)
	e.String(ad.Predicate)
	e.Float64(1e12)
	return e.Bytes()
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// fromLoad fills the per-layer metrics that are counts taken during
// the load part, where the work actually happened.
func (l *layers) fromLoad(d *deployment, lr *loadRun) {
	res := l.res
	adv := sortedCopy(nsToUS(lr.advance))
	advTail := tailOf(adv, 99)
	res.set("gridmon.advance_us", percentile(adv, 50), "us")
	res.set("gridmon.advance_p99_us", advTail.value, "us")
	res.Samples["gridmon.advance_p99_us"] = fmt.Sprintf("n=%d, tail is p%.4g", advTail.n, advTail.pct)

	hitRate := 0.0
	if lr.hits+lr.misses > 0 {
		hitRate = float64(lr.hits) / float64(lr.hits+lr.misses)
	}
	res.set("gridmon.cache_hit_rate", hitRate, "ratio")

	var queuedShare, shedShare float64
	if len(lr.steps) > highStep && lr.steps[highStep].sent > 0 {
		st := lr.steps[highStep]
		queuedShare = float64(st.queued) / float64(st.sent)
		shedShare = float64(st.shed) / float64(st.sent)
	}
	res.set("gridmon.admit_queued_share", queuedShare, "ratio")
	res.set("gridmon.admit_shed_share", shedShare, "ratio")
	res.set("gridmon.events_dropped", float64(lr.dropped), "count")

	var retries, reconnects int64
	for _, c := range d.clients {
		cs := c.ClientStats()
		retries += cs.Retries
		reconnects += cs.Reconnects
	}
	res.set("gridmon.client_retries", float64(retries), "count")
	res.set("gridmon.client_reconnects", float64(reconnects), "count")

	var branchFailures, partialShare float64
	if d.router != nil {
		fs := d.router.Stats()
		branchFailures = float64(fs.BranchFailures)
		if fs.Queries > 0 {
			partialShare = float64(fs.Partials) / float64(fs.Queries)
		}
	}
	res.set("federation.branch_failures", branchFailures, "count")
	res.set("federation.partial_share", partialShare, "ratio")
}
