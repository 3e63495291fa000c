package federation

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	gridmon "repro"
	"repro/internal/transport"
)

// Router is the aggregator node of the tree — the paper's upper-level
// GIIS. It answers the same typed Query/Subscribe surface as a single
// grid by routing to the leaf grids its ShardMap names: host-targeted
// requests go to the owning shard, broad queries scatter-gather across
// every shard. It is safe for concurrent use.
type Router struct {
	policy        Policy
	maxFanout     int
	branchTimeout time.Duration
	dial          gridmon.DialOptions

	// mu guards smap, pool, backends, nworkers and closed; queries
	// snapshot smap and backends at entry and run entirely against that
	// epoch. backends is smap's shards resolved to pool clients, built
	// once per epoch and never written after, so a snapshot shares it
	// without a copy.
	mu       sync.RWMutex
	smap     ShardMap
	pool     map[string]*gridmon.RemoteGrid // one lazy resilient client per address
	backends [][]*gridmon.RemoteGrid

	// Broad queries hand their branches, all but the last, to branch
	// workers: goroutines the Router keeps and reuses, at most maxWorkers
	// of them. jobs reaches an idle one; stop, closed by Close, retires
	// them, and workers counts them for Close to wait on.
	jobs       chan branchJob
	stop       chan struct{}
	workers    sync.WaitGroup
	maxWorkers int
	nworkers   int  // guarded by mu
	closed     bool // guarded by mu
	// scatters pools each broad query's branch bookkeeping (*scatter).
	scatters sync.Pool
	// records holds the records Query decoded last.
	records gridmon.RecordTable

	queries     atomic.Int64
	partials    atomic.Int64
	degraded    atomic.Int64
	branchFails atomic.Int64
}

// The Router serves the same pull/push surface as a Grid.
var (
	_ gridmon.Querier    = (*Router)(nil)
	_ gridmon.Subscriber = (*Router)(nil)
)

// New builds a Router over cfg.Map. Construction touches no sockets:
// each address gets a lazy resilient client (DialLazy), so a leaf that
// is down at construction costs its branch's budget on the first
// query — and trips that address's breaker — rather than failing New.
func New(cfg Config) (*Router, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	policy := cfg.Policy
	if policy == "" {
		policy = BestEffort
	}
	if policy != BestEffort && policy != FailFast {
		return nil, fmt.Errorf("unknown policy %q (want %q or %q)", policy, BestEffort, FailFast)
	}
	fanout := cfg.MaxFanout
	if fanout <= 0 {
		fanout = DefaultMaxFanout
	}
	dial := cfg.Dial
	if dial.Breaker.Threshold <= 0 {
		dial.Breaker = gridmon.Breaker{
			Threshold: DefaultBreakerThreshold,
			Cooldown:  DefaultBreakerCooldown,
		}
	}
	r := &Router{
		policy:        policy,
		maxFanout:     fanout,
		branchTimeout: cfg.BranchTimeout,
		dial:          dial,
		smap:          cfg.Map,
		pool:          make(map[string]*gridmon.RemoteGrid),
		jobs:          make(chan branchJob),
		stop:          make(chan struct{}),
		// Enough workers for one connection's full pipeline of broad
		// queries, each with MaxFanout branches in flight.
		maxWorkers: transport.DefaultMaxPipeline * fanout,
	}
	for _, sh := range cfg.Map.Shards {
		for _, a := range sh.Addrs {
			if _, ok := r.pool[a]; !ok {
				r.pool[a] = gridmon.DialLazy(a, dial)
			}
		}
	}
	r.backends = r.resolve(cfg.Map)
	return r, nil
}

// Map snapshots the current shard map (its Epoch tells callers which
// generation they saw).
func (r *Router) Map() ShardMap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.smap
}

// SetMap swaps the shard map mid-run. The new map's epoch must be
// strictly greater than the current one — the guard against stale
// provisioning racing a newer push. Clients for new addresses are
// created lazily-dialing; clients for addresses no longer referenced
// are closed, and a closed client never dials again. In-flight queries
// finish against the epoch they snapshotted: a branch whose client was
// closed under it fails with CodeUnavailable ("client closed") and
// fails over to the shard's next replica, as any unavailable branch
// does, rather than opening a connection nothing would close.
func (r *Router) SetMap(m ShardMap) error {
	if err := m.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Epoch <= r.smap.Epoch {
		return fmt.Errorf("shard map epoch %d is not newer than current epoch %d", m.Epoch, r.smap.Epoch)
	}
	need := make(map[string]bool)
	for _, sh := range m.Shards {
		for _, a := range sh.Addrs {
			need[a] = true
		}
	}
	for addr, rg := range r.pool {
		if !need[addr] {
			rg.Close()
			delete(r.pool, addr)
		}
	}
	for addr := range need {
		if _, ok := r.pool[addr]; !ok {
			r.pool[addr] = gridmon.DialLazy(addr, r.dial)
		}
	}
	r.smap = m
	r.backends = r.resolve(m)
	return nil
}

// Close closes every backend client and retires the branch workers,
// waiting for any still running a branch. A closed client never dials
// again, so after Close every branch fails with CodeUnavailable
// ("client closed"), no connection is opened, and a broad query runs
// each branch but the last on a goroutine of its own.
func (r *Router) Close() error {
	r.mu.Lock()
	for _, rg := range r.pool {
		rg.Close()
	}
	if !r.closed {
		r.closed = true
		close(r.stop)
	}
	r.mu.Unlock()
	r.workers.Wait()
	return nil
}

// resolve maps m's shards to their pool clients. Callers hold mu.
func (r *Router) resolve(m ShardMap) [][]*gridmon.RemoteGrid {
	backends := make([][]*gridmon.RemoteGrid, len(m.Shards))
	for i, sh := range m.Shards {
		backends[i] = make([]*gridmon.RemoteGrid, len(sh.Addrs))
		for j, a := range sh.Addrs {
			backends[i][j] = r.pool[a]
		}
	}
	return backends
}

// snapshot returns the current map and its resolved clients under one
// read lock. It allocates nothing: the clients are the epoch's own
// slices, which nobody writes.
func (r *Router) snapshot() (ShardMap, [][]*gridmon.RemoteGrid) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.smap, r.backends
}

// carve derives one branch's context from the caller's remaining
// budget — always from the parent context, never a fresh root, so the
// caller cancelling cancels every branch. A fan-out branch gets
// DefaultBranchBudget of the deadline remaining when it starts (the
// reserve keeps the merge inside the caller's deadline); BranchTimeout
// caps either way and bounds branches when the caller brought no
// deadline.
// With neither a deadline nor a BranchTimeout there is nothing to carve:
// the branch runs under the parent itself and cancel does nothing, so
// such a branch costs no context.
func (r *Router) carve(ctx context.Context, fanout bool) (context.Context, context.CancelFunc) {
	if dl, ok := ctx.Deadline(); ok {
		d := time.Until(dl)
		if fanout {
			d = time.Duration(float64(d) * DefaultBranchBudget)
		}
		if r.branchTimeout > 0 && d > r.branchTimeout {
			d = r.branchTimeout
		}
		return context.WithTimeout(ctx, d)
	}
	if r.branchTimeout > 0 {
		return context.WithTimeout(ctx, r.branchTimeout)
	}
	return ctx, noCancel
}

// noCancel is the cancel of a branch that runs under its parent context.
func noCancel() {}

// branchOutcome is what one shard's branch produced: a reply body or an
// error, plus the replica address that produced it (the last one tried,
// on failure).
type branchOutcome struct {
	addr string
	// body is the reply, as the leaf sent it. A broad query's outcomes
	// are pooled, so body keeps its capacity from query to query and a
	// branch copies its reply into it without allocating.
	body []byte
	err  error
	// late marks a fail-fast branch that ended after a sibling's failure
	// had canceled the group.
	late bool
}

// reset empties o for the next query, keeping the room its body has.
func (o *branchOutcome) reset() { *o = branchOutcome{body: o.body[:0]} }

// definitive reports whether a branch error is request-level — the
// same data on a replica must answer it the same way, so failover
// cannot help. Everything else (connection errors, deadlines, breaker
// fast-fails, sheds, exec errors — which is also how dial failures
// surface) tries the next replica within the branch budget.
func definitive(err error) bool {
	switch transport.ErrorCode(err) {
	case transport.CodeBadRequest, transport.CodeParse, transport.CodeUnknownOp:
		return true
	}
	return false
}

// queryBranch answers q on one shard, failing over across its replicas,
// and appends the reply body to dst (on an error out is dst). addr is
// the replica that answered, or the last one tried.
func queryBranch(ctx context.Context, backends []*gridmon.RemoteGrid, q gridmon.Query, dst []byte) (addr string, out []byte, err error) {
	for _, rg := range backends {
		addr = rg.Addr()
		out, err = rg.AppendQuery(ctx, q, dst)
		if err == nil || ctx.Err() != nil || definitive(err) {
			return addr, out, err
		}
	}
	return addr, out, err
}

// callBranch runs one idempotent op on a shard with the same replica
// failover as queryBranch.
func callBranch(ctx context.Context, backends []*gridmon.RemoteGrid, op string, req, resp interface{}) error {
	var lastErr error
	for _, rg := range backends {
		err := rg.Call(ctx, op, req, resp)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || definitive(err) {
			return transport.AsError(err)
		}
	}
	return transport.AsError(lastErr)
}

// Query answers q across the federation: AppendQuery, decoded through
// the Router's RecordTable (see gridmon.RecordTable for what the caller
// owns).
func (r *Router) Query(ctx context.Context, q gridmon.Query) (*gridmon.ResultSet, error) {
	return r.records.Query(ctx, r, q)
}

// AppendQuery answers q across the federation and appends its grid.query
// reply body to dst, relaying the leaves' bytes: no branch reply is
// decoded, so no string is cut from one and no field map is built. A
// host-targeted query routes to the one shard owning the host and
// appends the leaf's reply unchanged but for Elapsed (Records and Work
// byte-identical to a single grid monitoring the same hosts); a broad
// query scatter-gathers every shard and splices their records into one
// reply as MergeResultSets merges them (gridmon.MergeReplies). Branch
// failures degrade per the configured Policy — see the package comment.
// Elapsed measures the full federated round trip. On an error dst comes
// back as it was.
func (r *Router) AppendQuery(ctx context.Context, q gridmon.Query, dst []byte) ([]byte, error) {
	start := time.Now()
	r.queries.Add(1)
	if err := ctx.Err(); err != nil {
		return dst, transport.AsError(err)
	}
	smap, backends := r.snapshot()
	if q.Host == "" {
		return r.queryBroad(ctx, start, backends, q, dst)
	}
	shard := smap.ShardFor(q.Host)
	bctx, cancel := r.carve(ctx, false)
	defer cancel()
	_, out, err := queryBranch(bctx, backends[shard], q, dst)
	if err != nil {
		r.branchFails.Add(1)
		if err := ctx.Err(); err != nil {
			return dst, transport.AsError(err)
		}
		return dst, err
	}
	return gridmon.StampElapsed(out, len(dst), time.Since(start)), nil
}

// scatter is one broad query's branch bookkeeping: what its branches
// share and what each produced. The Router pools it, so fanning a query
// out allocates nothing for it once warm.
type scatter struct {
	r        *Router
	ctx      context.Context    // the group context branches carve from
	cancel   context.CancelFunc // fail-fast's group cancel, else noCancel
	q        gridmon.Query
	backends [][]*gridmon.RemoteGrid
	outs     []branchOutcome
	bodies   [][]byte // the answered branches' bodies, in shard order
	wg       sync.WaitGroup
	// sem bounds the branches in flight when the map has more shards
	// than MaxFanout (bounded): the caller takes a slot for each branch
	// before starting it, and the branch gives it back. It is made the
	// first time a query needs it, so a map no larger than MaxFanout
	// never makes one.
	sem chan struct{}
}

// bounded reports whether the query has more branches than MaxFanout.
func (s *scatter) bounded() bool { return len(s.outs) > s.r.maxFanout }

// branchJob is branch i of a broad query, as handed to a branch worker.
type branchJob struct {
	s *scatter
	i int
}

// getScatter returns pooled bookkeeping for a query over shards shards.
func (r *Router) getScatter(shards int) *scatter {
	s, _ := r.scatters.Get().(*scatter)
	if s == nil {
		s = &scatter{r: r}
	}
	if cap(s.outs) < shards {
		s.outs = make([]branchOutcome, shards)
	}
	s.outs = s.outs[:shards]
	if s.bounded() && s.sem == nil {
		s.sem = make(chan struct{}, r.maxFanout)
	}
	return s
}

// putScatter returns s to the pool, holding on to nothing of its query.
func (r *Router) putScatter(s *scatter) {
	for i := range s.outs {
		s.outs[i].reset()
	}
	clear(s.bodies)
	s.ctx, s.cancel, s.q, s.backends, s.bodies = nil, nil, gridmon.Query{}, nil, s.bodies[:0]
	r.scatters.Put(s)
}

// acquire waits for a fan-out slot for branch i of a bounded query. If
// the group's context ends first, branch i is settled as canceled
// without running, and acquire reports false.
func (s *scatter) acquire(i int) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	case <-s.ctx.Done():
		out := &s.outs[i]
		out.addr = s.backends[i][0].Addr()
		out.err = transport.AsError(s.ctx.Err())
		out.late = s.r.policy == FailFast
		s.wg.Done()
		return false
	}
}

// run is branch i: it answers the shard under its carved context, under
// fail-fast cancels its siblings when it fails, and gives back its
// fan-out slot when the query is bounded.
func (s *scatter) run(i int) {
	out := &s.outs[i]
	bctx, cancel := s.r.carve(s.ctx, true)
	out.addr, out.body, out.err = queryBranch(bctx, s.backends[i], s.q, out.body[:0])
	cancel()
	if out.err != nil && s.r.policy == FailFast {
		out.late = s.ctx.Err() != nil
		s.cancel()
	}
	if s.bounded() {
		<-s.sem
	}
	s.wg.Done()
}

// dispatch hands job to an idle branch worker, or to a new one while
// there are fewer than maxWorkers. At the bound it waits for a worker to
// come free: every busy worker runs a branch that already holds its
// fan-out slot, so one does. Once Close has retired the workers, job
// runs on a goroutine of its own.
func (r *Router) dispatch(job branchJob) {
	select {
	case r.jobs <- job:
		return
	default:
	}
	r.mu.Lock()
	spawn := !r.closed && r.nworkers < r.maxWorkers
	if spawn {
		r.nworkers++
		r.workers.Add(1)
	}
	r.mu.Unlock()
	if spawn {
		go r.branchWorker(job)
		return
	}
	select {
	case r.jobs <- job:
	case <-r.stop:
		go job.s.run(job.i)
	}
}

// branchWorker runs job, then every branch dispatch hands it, until
// Close retires it.
func (r *Router) branchWorker(job branchJob) {
	defer r.workers.Done()
	for {
		job.s.run(job.i)
		select {
		case job = <-r.jobs:
		case <-r.stop:
			return
		}
	}
}

// queryBroad fans q out to every shard and merges per the policy,
// appending the reply to dst. The branches start in shard order, at most
// MaxFanout in flight at once: every one but the last on a branch
// worker, the last on the calling goroutine.
func (r *Router) queryBroad(ctx context.Context, start time.Time, backends [][]*gridmon.RemoteGrid,
	q gridmon.Query, dst []byte) ([]byte, error) {
	s := r.getScatter(len(backends))
	defer r.putScatter(s)
	s.ctx, s.cancel, s.q, s.backends = ctx, noCancel, q, backends
	if r.policy == FailFast {
		// Fail-fast siblings stop as soon as one branch fails: the
		// answer is already decided.
		s.ctx, s.cancel = context.WithCancel(ctx)
		defer s.cancel()
	}
	last := len(backends) - 1
	s.wg.Add(len(backends))
	for i := range backends {
		if s.bounded() && !s.acquire(i) {
			continue
		}
		if i == last {
			s.run(i)
		} else {
			r.dispatch(branchJob{s: s, i: i})
		}
	}
	s.wg.Wait()
	outs := s.outs

	// A fail-fast branch that ended after the group was canceled reports
	// one fixed cancellation naming the first shard that failed on its
	// own, not whichever error the cancel happened to surface as in its
	// client: the same failure always degrades with the same error.
	first := -1
	for i, out := range outs {
		if out.err != nil && !out.late {
			first = i
			break
		}
	}
	var fails []gridmon.BranchError
	for i, out := range outs {
		if out.late && first >= 0 && !definitive(out.err) {
			out.err = transport.Errf(transport.CodeCanceled, "canceled after shard %d failed", first)
		}
		if out.err != nil {
			te := transport.AsError(out.err)
			fails = append(fails, gridmon.BranchError{
				Shard: i, Addr: out.addr, Code: te.Code, Message: te.Message,
			})
			continue
		}
		s.bodies = append(s.bodies, out.body)
	}
	if len(fails) > 0 {
		r.branchFails.Add(int64(len(fails)))
		if err := ctx.Err(); err != nil {
			// The caller's own context died; the branch failures are its
			// echo, not degradation.
			return dst, transport.AsError(err)
		}
		survivors := len(outs) - len(fails)
		if survivors == 0 && passthroughCode(fails) {
			// Every branch answered the same request-level error — the same
			// answer a single grid would give, so pass it through untouched.
			return dst, &transport.Error{Code: fails[0].Code, Message: fails[0].Message}
		}
		if r.policy == FailFast || survivors == 0 {
			r.degraded.Add(1)
			// List originating failures before the cancellations fail-fast
			// induced in their siblings.
			sort.SliceStable(fails, func(i, j int) bool {
				return fails[i].Code != transport.CodeCanceled && fails[j].Code == transport.CodeCanceled
			})
			return dst, degradedError(len(outs), fails)
		}
		r.partials.Add(1)
	}
	// The merge names the failed branches, Partial when there are any.
	b, err := gridmon.MergeReplies(dst, q, s.bodies, fails, time.Since(start))
	if err != nil {
		return dst, transport.AsError(err)
	}
	return b, nil
}

// Subscribe proxies a host-targeted subscription to the shard owning
// the host (with replica failover on setup). A broad subscription is
// refused: a standing merged stream would need cross-shard ordering
// the federation does not promise — subscribe per host, or to each
// leaf directly. Once established the stream is a direct channel to
// the leaf; a mid-stream branch failure surfaces as the stream's
// terminal error exactly as RemoteGrid.Subscribe documents.
func (r *Router) Subscribe(ctx context.Context, sub gridmon.Subscription) (*gridmon.Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, transport.AsError(err)
	}
	if sub.Host == "" {
		return nil, transport.Errf(transport.CodeBadRequest,
			"federated subscribe needs a Host (a standing stream is served by the shard owning it)")
	}
	smap, backends := r.snapshot()
	shard := smap.ShardFor(sub.Host)
	var lastErr error
	for _, rg := range backends[shard] {
		st, err := rg.Subscribe(ctx, sub)
		if err == nil {
			return st, nil
		}
		lastErr = err
		if ctx.Err() != nil || definitive(err) {
			break
		}
	}
	return nil, transport.AsError(lastErr)
}

// Hosts lists every monitored host across the shards, sorted (each
// leaf reports its own subset; the sort makes the union order
// deterministic regardless of shard layout).
func (r *Router) Hosts(ctx context.Context) ([]string, error) {
	smap, backends := r.snapshot()
	hosts := []string{}
	for i := range smap.Shards {
		var hl gridmon.HostList
		if err := callBranch(ctx, backends[i], "grid.hosts", nil, &hl); err != nil {
			return nil, err
		}
		hosts = append(hosts, hl.Hosts...)
	}
	sort.Strings(hosts)
	return hosts, nil
}

// Systems lists the deployed systems, taken from the first shard that
// answers (the tree deploys the same systems on every leaf).
func (r *Router) Systems(ctx context.Context) ([]gridmon.System, error) {
	smap, backends := r.snapshot()
	var lastErr error
	for i := range smap.Shards {
		var sl gridmon.SystemList
		if err := callBranch(ctx, backends[i], "grid.systems", nil, &sl); err != nil {
			lastErr = err
			continue
		}
		return sl.Systems, nil
	}
	return nil, transport.AsError(lastErr)
}

// BackendStats is one replica address's health as the Router sees it:
// the resilient client's counters, breaker state included (an open
// breaker is a branch marked down; half-open is a probe under way).
type BackendStats struct {
	Shard  int                 `json:"shard"`
	Addr   string              `json:"addr"`
	Client gridmon.ClientStats `json:"client"`
}

// Stats is a snapshot of the Router's federation counters, served over
// the fed.stats op.
type Stats struct {
	Epoch  uint64 `json:"epoch"`
	Shards int    `json:"shards"`
	Policy Policy `json:"policy"`
	// Queries counts Query calls; Partials the best-effort answers that
	// came back partial; Degraded the queries that failed with
	// CodeDegraded; BranchFailures every failed branch across all
	// queries.
	Queries        int64          `json:"queries"`
	Partials       int64          `json:"partials"`
	Degraded       int64          `json:"degraded"`
	BranchFailures int64          `json:"branch_failures"`
	Backends       []BackendStats `json:"backends"`
}

// Stats snapshots the Router's counters and every backend's health.
func (r *Router) Stats() Stats {
	smap, backends := r.snapshot()
	st := Stats{
		Epoch:          smap.Epoch,
		Shards:         len(smap.Shards),
		Policy:         r.policy,
		Queries:        r.queries.Load(),
		Partials:       r.partials.Load(),
		Degraded:       r.degraded.Load(),
		BranchFailures: r.branchFails.Load(),
	}
	for i, shard := range backends {
		for _, rg := range shard {
			st.Backends = append(st.Backends, BackendStats{
				Shard: i, Addr: rg.Addr(), Client: rg.ClientStats(),
			})
		}
	}
	return st
}

// Serve registers the aggregator's ops on srv: the same grid.query /
// grid.subscribe / grid.hosts / grid.systems surface a leaf serves —
// so a RemoteGrid pointed at an aggregator works unchanged, and trees
// can stack (an aggregator's shard address may itself be an
// aggregator) — plus fed.stats for the federation counters. A served
// Router answers grid.query flat, pair by pair, as a Grid does.
func (r *Router) Serve(srv *gridmon.TransportServer) {
	gridmon.ServeQueryV3(srv, r)
	gridmon.ServeSubscribe(srv, r)
	transport.Handle(srv, "grid.hosts", func(ctx context.Context, _ struct{}) (gridmon.HostList, error) {
		hosts, err := r.Hosts(ctx)
		if err != nil {
			return gridmon.HostList{}, err
		}
		return gridmon.HostList{Hosts: hosts}, nil
	})
	transport.Handle(srv, "grid.systems", func(ctx context.Context, _ struct{}) (gridmon.SystemList, error) {
		systems, err := r.Systems(ctx)
		if err != nil {
			return gridmon.SystemList{}, err
		}
		return gridmon.SystemList{Systems: systems}, nil
	})
	transport.Handle(srv, "fed.stats", func(ctx context.Context, _ struct{}) (Stats, error) {
		return r.Stats(), nil
	})
}
