package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	gridmon "repro"
	"repro/internal/federation"
	"repro/internal/gma"
	"repro/internal/rgma"
	"repro/internal/storage"
)

// gridClock is the deployment's notion of time: the benchmark's own
// Advance pump steps it one unit per round, so every answer is a
// function of the round alone.
type gridClock struct{ bits atomic.Uint64 }

func (c *gridClock) now() float64  { return math.Float64frombits(c.bits.Load()) }
func (c *gridClock) set(v float64) { c.bits.Store(math.Float64bits(v)) }

// maxRounds bounds the pump's round table; a run stops pumping past it.
const maxRounds = 1 << 16

// roundTable records the wall time (UnixNano) at which each pump round
// began, so a subscriber can time an event from the Advance call that
// caused it: events are stamped with the grid clock, and the clock is
// the round number.
type roundTable []atomic.Int64

func newRoundTable() roundTable { return make(roundTable, maxRounds) }

func (t roundTable) begin(round int) { t[round].Store(time.Now().UnixNano()) }

// deployment is one workload's system under test, served in-process on
// real loopback TCP sockets over the v3 wire.
type deployment struct {
	w     *workload
	clock *gridClock

	grids   []*gridmon.Grid // one, or the federation's leaves
	servers []*gridmon.TransportServer
	router  *federation.Router // nil without a federation
	smap    federation.ShardMap
	addr    string // the address users dial (the Router's, when federated)
	dataDir string

	clients []*gridmon.RemoteGrid // one connection per user

	subs   []*subscriber
	subCtx context.CancelFunc

	rounds roundTable

	gate gateResult
}

// maxInFlight is the per-connection pipelining depth the open loop
// dispatches onto.
const maxInFlight = 8

func nproc() int { return runtime.GOMAXPROCS(0) }

func (d *deployment) gridOptions(hosts []string, dataDir string) []gridmon.Option {
	opts := []gridmon.Option{
		gridmon.WithHosts(hosts...),
		gridmon.WithRGMAProducers(rgmaProducers),
		gridmon.WithClock(d.clock.now),
		gridmon.WithAdmission(4*nproc(), 64, 100*time.Millisecond),
	}
	if d.w.cacheTTL > 0 {
		opts = append(opts, gridmon.WithQueryCache(d.w.cacheTTL))
	}
	if dataDir != "" {
		opts = append(opts, gridmon.WithStorage(dataDir))
	}
	return opts
}

func serve(register func(*gridmon.TransportServer)) (*gridmon.TransportServer, string, error) {
	srv := gridmon.NewTransportServer()
	register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	return srv, addr, nil
}

// prepopulate writes the durable workload's data directory the way a
// crashed server leaves it: walRecords registration records in the
// Registry's WAL, no snapshot, never closed. Set-up then has to replay
// them. It is generator work and is not part of setup_s.
func prepopulate(dir string) error {
	st, err := storage.OpenFile(filepath.Join(dir, "registry"), storage.Options{SyncEvery: walRecords})
	if err != nil {
		return err
	}
	// A snapshot cadence beyond walRecords keeps every record in the WAL.
	reg, err := rgma.OpenRegistry("registry", st, 2*walRecords)
	if err != nil {
		return err
	}
	for i := 0; i < walRecords; i++ {
		if err := reg.RegisterProducer(churnAd(i), 0, 1e12); err != nil {
			return err
		}
	}
	// Flush, then abandon the store without Close: Close would compact
	// the log into a snapshot and there would be nothing to replay.
	return st.Sync()
}

func churnAd(i int) gma.Advertisement {
	return gma.Advertisement{
		ProducerID: fmt.Sprintf("churn-%04d", i),
		Address:    fmt.Sprintf("churn-%02d:8080", i%64),
		TableName:  churnTable,
		Predicate:  fmt.Sprintf("slot = %d", i),
	}
}

// setup builds the deployment, listens, dials, subscribes and runs the
// correctness gate. dataDir is a pre-populated directory for a durable
// workload and empty otherwise. A rig built only to time a layer skips
// the gate.
func setup(ctx context.Context, w *workload, gen *generator, dataDir string, gate bool) (*deployment, error) {
	d := &deployment{
		w:       w,
		clock:   &gridClock{},
		dataDir: dataDir,
		rounds:  newRoundTable(),
	}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	hostSets := [][]string{gen.hosts}
	if w.leaves > 0 {
		placeholder := make([]string, w.leaves)
		for i := range placeholder {
			placeholder[i] = fmt.Sprintf("leaf-%d", i)
		}
		hostSets = federation.NewShardMap(placeholder...).PartitionHosts(gen.hosts)
	}
	var addrs []string
	for _, hosts := range hostSets {
		g, err := gridmon.New(d.gridOptions(hosts, dataDir)...)
		if err != nil {
			return nil, err
		}
		d.grids = append(d.grids, g)
		srv, addr, err := serve(g.Serve)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, srv)
		addrs = append(addrs, addr)
	}
	d.addr = addrs[0]
	if w.leaves > 0 {
		d.smap = federation.NewShardMap(addrs...)
		router, err := federation.New(federation.Config{Map: d.smap, Policy: federation.BestEffort})
		if err != nil {
			return nil, err
		}
		d.router = router
		srv, addr, err := serve(router.Serve)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, srv)
		d.addr = addr
	}

	for i := 0; i < nproc(); i++ {
		c, err := gridmon.DialContextWith(ctx, d.addr, gridmon.DialOptions{MaxInFlight: maxInFlight})
		if err != nil {
			return nil, err
		}
		d.clients = append(d.clients, c)
	}

	subCtx, cancel := context.WithCancel(ctx)
	d.subCtx = cancel
	for _, sub := range w.subs {
		st, err := d.clients[0].Subscribe(subCtx, sub)
		if err != nil {
			return nil, fmt.Errorf("subscribe %s %q: %w", sub.System, sub.Expr, err)
		}
		s := &subscriber{stream: st, rounds: d.rounds}
		d.subs = append(d.subs, s)
		s.wg.Add(1)
		go s.consume(subCtx)
	}

	if gate {
		d.gate = d.runGate(ctx, gen)
		if d.gate.err != nil {
			return nil, d.gate.err
		}
	}
	ok = true
	return d, nil
}

// close tears the deployment down and waits for everything it started.
func (d *deployment) close() {
	if d.subCtx != nil {
		d.subCtx()
	}
	for _, s := range d.subs {
		s.stream.Close()
		s.wg.Wait()
	}
	for _, c := range d.clients {
		c.Close()
	}
	if d.router != nil {
		d.router.Close()
	}
	for _, srv := range d.servers {
		srv.Close()
	}
	for _, g := range d.grids {
		g.Close()
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// advance runs one pump round: it records the round's wall-clock start,
// steps the clock and runs every grid's monitoring round. It returns
// how long the Advance calls took.
func (d *deployment) advance(round int) (time.Duration, error) {
	start := time.Now()
	d.rounds.begin(round)
	d.clock.set(float64(round))
	for _, g := range d.grids {
		if err := g.Advance(float64(round)); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// subscriber is one wire subscriber with the goroutine that drains it.
type subscriber struct {
	stream *gridmon.Stream
	rounds roundTable
	wg     sync.WaitGroup

	// Written by consume only; read after wg.Wait.
	lags []eventLag
	err  error // a terminal error other than cancellation
}

// eventLag is one delivered event: the wall time its round began and
// how long after that Stream.Next returned it.
type eventLag struct {
	roundStart int64
	lagNs      int64
}

func (s *subscriber) consume(ctx context.Context) {
	defer s.wg.Done()
	for {
		ev, err := s.stream.Next(ctx)
		if err != nil {
			if errors.Is(err, gridmon.ErrLagged) {
				continue // counted by Stream.Dropped
			}
			if ctx.Err() == nil && !errors.Is(err, gridmon.ErrStreamClosed) {
				s.err = err
			}
			return
		}
		now := time.Now().UnixNano()
		round := int(ev.Time)
		if round <= 0 || round >= maxRounds {
			continue // set-up time deliveries have no pump round to time from
		}
		if start := s.rounds[round].Load(); start != 0 {
			s.lags = append(s.lags, eventLag{roundStart: start, lagNs: now - start})
		}
	}
}

// gateResult is the correctness gate's verdict and what later phases
// check answers against.
type gateResult struct {
	checked    int
	mismatches []string
	// expect[id] is the record count of query id's answer, or -1 when
	// the count depends on the round.
	expect []int
	// counted[id]: the gate answer had len(Records) ==
	// Work.RecordsReturned, so later answers must too. (The mediated
	// ConsumerServlet sums its sub-queries' counts into Work, so for it
	// the two legitimately differ.)
	counted []bool
	err     error
	// answers keeps the first gate answers; the traced run's transport
	// stub replies with the one of median size.
	answers []*gridmon.ResultSet
}

func recordsEqual(a, b []gridmon.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !maps.Equal(a[i].Fields, b[i].Fields) {
			return false
		}
	}
	return true
}

// expected computes the answers query q must have, from the grids
// directly: the in-process facade's answer, or for a federation the
// canonical merge of the direct leaf answers (the owning leaf's answer
// for a host-targeted query). On a cached workload that is two answers,
// the miss that fills the cache and the hit that follows it; hit is nil
// otherwise. (The federated workload has no result cache.)
func (d *deployment) expected(ctx context.Context, q gridmon.Query) (miss, hit *gridmon.ResultSet, err error) {
	if d.router == nil || q.Host != "" {
		g := d.grids[0]
		if d.router != nil {
			g = d.grids[d.smap.ShardFor(q.Host)]
		}
		miss, err = g.Query(ctx, q)
		if err == nil && d.w.cacheTTL > 0 {
			hit, err = g.Query(ctx, q)
		}
		return miss, hit, err
	}
	parts := make([]*gridmon.ResultSet, len(d.grids))
	for i, g := range d.grids {
		if parts[i], err = g.Query(ctx, q); err != nil {
			return nil, nil, err
		}
	}
	return federation.MergeResultSets(q, parts), nil, nil
}

// runGate checks, at the frozen set-up clock, that every distinct
// generated query's remote answer equals the answer computed from the
// grids directly, records and Work both. The direct answers are computed
// first, one after another; the remote ones are then fetched over every
// connection at the open loop's pipelining depth, so that the gate's
// time is the time the work takes and not that of 3,000 idle wake-ups
// in a row, which on a shared box is the noisiest thing there is. On a
// cached workload a remote answer is a hit when the direct pass's entry
// is still in the cache and a miss when the cache has started over since
// (it does at 1024 entries); it is compared with the direct answer of
// the same kind.
func (d *deployment) runGate(ctx context.Context, gen *generator) gateResult {
	n := len(gen.queries)
	res := gateResult{expect: make([]int, n), counted: make([]bool, n)}
	wantMiss := make([]*gridmon.ResultSet, n)
	wantHit := make([]*gridmon.ResultSet, n)
	for id, gq := range gen.queries {
		var err error
		if wantMiss[id], wantHit[id], err = d.expected(ctx, gq.q); err != nil {
			res.err = fmt.Errorf("gate: %s %+v in-process: %w", gq.kind, gq.q, err)
			return res
		}
	}

	got := make([]*gridmon.ResultSet, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < len(d.clients)*maxInFlight; i++ {
		wg.Add(1)
		go func(c *gridmon.RemoteGrid) {
			defer wg.Done()
			for {
				id := int(next.Add(1)) - 1
				if id >= n {
					return
				}
				got[id], errs[id] = c.Query(ctx, gen.queries[id].q)
			}
		}(d.clients[i%len(d.clients)])
	}
	wg.Wait()

	for id, gq := range gen.queries {
		if errs[id] != nil {
			res.err = fmt.Errorf("gate: %s %+v remote: %w", gq.kind, gq.q, errs[id])
			return res
		}
		got, want := got[id], wantMiss[id]
		if got.Work.CacheHits > 0 && wantHit[id] != nil {
			want = wantHit[id]
		}
		res.checked++
		switch {
		case !recordsEqual(got.Records, want.Records):
			res.mismatches = append(res.mismatches, fmt.Sprintf("%s %+v: records differ (%d remote, %d direct)",
				gq.kind, gq.q, len(got.Records), len(want.Records)))
		case got.Work != want.Work:
			res.mismatches = append(res.mismatches, fmt.Sprintf("%s %+v: work differs (%+v remote, %+v direct)",
				gq.kind, gq.q, got.Work, want.Work))
		case got.Partial:
			res.mismatches = append(res.mismatches, fmt.Sprintf("%s %+v: partial answer", gq.kind, gq.q))
		}
		res.counted[id] = len(got.Records) == got.Work.RecordsReturned
		res.expect[id] = len(got.Records)
		if gq.varying {
			res.expect[id] = -1
		}
		if id < 512 {
			res.answers = append(res.answers, got)
		}
	}
	return res
}

// checkAnswer is the per-answer check of the measured phases: complete,
// self-consistent, and of the size the gate saw when that is fixed.
func (g *gateResult) checkAnswer(id uint32, rs *gridmon.ResultSet) bool {
	if rs.Partial || (g.counted[id] && len(rs.Records) != rs.Work.RecordsReturned) {
		return false
	}
	want := g.expect[id]
	return want < 0 || len(rs.Records) == want
}
