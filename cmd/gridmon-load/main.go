// Command gridmon-load is a closed-loop load generator for a live grid
// server — the paper's measurement methodology (Figures 3–10) against
// real sockets: N concurrent users each issue a query, wait for the
// answer, think, and repeat; the tool reports throughput, mean/p50/p99
// response time and cache hit rate per concurrency level.
//
// Usage:
//
//	gridmon-load [-addr host:port] [-users 1,2,4,8] [-duration 3s] [-think 0]
//	             [-system MDS|R-GMA|Hawkeye] [-role info|dir|agg] [-host h]
//	             [-expr e] [-attrs a,b] [-o table|json] [-max-error-rate 0]
//	             [-hosts lucky3,...] [-producers 3] [-advance 1s] [-cache 0]
//	             [-data DIR] [-admit-max 0] [-admit-queue 16] [-admit-timeout 100ms]
//	             [-scenario restart|overload|churn] [-fed-shards 3]
//	             [-cpuprofile f] [-memprofile f]
//
// With no -addr the tool serves itself: it builds an in-process grid
// (over -hosts, with -producers R-GMA producers per host and, when
// -cache is positive, a WithQueryCache result cache), serves it on a
// loopback port, and runs an Advance pump every -advance — so one
// command reproduces the paper's closed-loop curves end to end:
//
//	gridmon-load -users 1,2,5,10,20,50 -duration 5s -cache 30s
//
// Each user dials its own connection, so concurrency levels map to real
// concurrent sockets; levels run one after another against the same
// server (state is steady, queries are read-only). When the query shape
// needs a Host (MDS or Hawkeye information servers) and -host is empty,
// users rotate across the grid's monitored hosts.
//
// Each level also reports allocs/op and bytes/op — the process's heap
// allocation deltas per completed query — so the codec cost of the wire
// shows up next to the latency columns.
//
// The cache hit rate is computed from the Work.CacheHits/CacheMisses
// counters in each response, so it reflects the serving grid's cache,
// not client-side state. Against a grid without WithQueryCache the
// column reads "-".
//
// Transport errors no longer vanish into an exit status of 0: each
// level reports its error and shed counts (sheds — the server's
// admission gate refusing with the overloaded code — are controlled
// refusals and tallied separately from failures), and the process exits
// non-zero when any level's error rate exceeds -max-error-rate (default
// 0: any transport error fails the run).
//
// Three fault scenarios replace the level sweep when -scenario is set,
// each emitting JSON:
//
//	-scenario restart   self-serve only, requires -data: kill the server
//	                    (listener, connections, and grid — no goodbye
//	                    snapshot) a third into the run, restart it over
//	                    the same data directory, and report the
//	                    client-observed recovery gap. Clients retry with
//	                    backoff, as DialWith clients do.
//	-scenario overload  calibrate single-user capacity, then offer at
//	                    least twice the saturating load and report
//	                    accepted latency, shed rate and throughput. Pair
//	                    with -admit-max to watch the gate hold the tail,
//	                    or without it to watch latency collapse.
//	-scenario churn     self-serve only: shard -hosts over -fed-shards
//	                    leaf grids behind a federation aggregator, kill
//	                    one leaf mid-run and restart it, and report the
//	                    degraded-window length (kill to the first
//	                    complete answer after the restart) and the
//	                    partial-result rate clients saw. Fails when the
//	                    federation never heals.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	gridmon "repro"
)

// main delegates to run so deferred cleanup — stopping the in-process
// server and flushing the pprof profiles — happens on error exits too
// (log.Fatal/os.Exit would skip it and leave a truncated profile).
func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "", "server address (empty: serve an in-process grid)")
	usersList := flag.String("users", "1,2,4,8", "comma-separated concurrency levels")
	duration := flag.Duration("duration", 3*time.Second, "measurement window per level")
	think := flag.Duration("think", 0, "per-user think time between requests")
	system := flag.String("system", "MDS", "target system: MDS, R-GMA or Hawkeye")
	role := flag.String("role", "", "target role: info (default), dir or agg (full Table 1 names also accepted)")
	host := flag.String("host", "", "target host (empty: rotate when the query needs one)")
	expr := flag.String("expr", "", "query expression in the system's dialect")
	attrs := flag.String("attrs", "", "comma-separated projection attributes")
	output := flag.String("o", "table", "output format: table or json")
	hostsList := flag.String("hosts", "lucky3,lucky4,lucky5,lucky6,lucky7", "self-serve: monitored host names")
	producers := flag.Int("producers", 3, "self-serve: R-GMA producers per host")
	advance := flag.Duration("advance", time.Second, "self-serve: Advance pump interval (0 disables the pump)")
	cacheTTL := flag.Duration("cache", 0, "self-serve: WithQueryCache TTL (0 disables the cache)")
	dataDir := flag.String("data", "", "self-serve: durable data directory (required by -scenario restart)")
	admitMax := flag.Int("admit-max", 0, "self-serve: admission control max concurrent queries (0 = unlimited)")
	admitQueue := flag.Int("admit-queue", 16, "self-serve: admission control queue bound")
	admitTimeout := flag.Duration("admit-timeout", 100*time.Millisecond, "self-serve: admission control queue timeout")
	scenario := flag.String("scenario", "", "run a fault scenario instead of the level sweep: restart, overload or churn")
	fedShards := flag.Int("fed-shards", 3, "churn: number of leaf grids the -hosts universe is sharded over")
	maxErrRate := flag.Float64("max-error-rate", 0,
		"exit non-zero when a level's transport-error rate exceeds this fraction (sheds excluded)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the client loop to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	levels, err := parseLevels(*usersList)
	if err != nil {
		log.Print(err)
		return 1
	}
	if *output != "table" && *output != "json" {
		log.Printf("bad -o %q (want table or json)", *output)
		return 1
	}

	switch *scenario {
	case "", "restart", "overload", "churn":
	default:
		log.Printf("bad -scenario %q (want restart, overload or churn)", *scenario)
		return 1
	}
	if *scenario == "restart" && (*addr != "" || *dataDir == "") {
		log.Print("-scenario restart needs a self-served durable grid: leave -addr empty and set -data")
		return 1
	}
	if *scenario == "churn" {
		if *addr != "" {
			log.Print("-scenario churn builds its own federation: leave -addr empty")
			return 1
		}
		cfg := selfConfig{
			hosts:        strings.Split(*hostsList, ","),
			producers:    *producers,
			advance:      *advance,
			cacheTTL:     *cacheTTL,
			admitMax:     *admitMax,
			admitQueue:   *admitQueue,
			admitTimeout: *admitTimeout,
		}
		q := gridmon.Query{
			System: gridmon.System(*system),
			Role:   parseRole(*role),
			Host:   *host,
			Expr:   *expr,
		}
		if *attrs != "" {
			q.Attrs = strings.Split(*attrs, ",")
		}
		return runChurnScenario(cfg, q, levels[0], *fedShards, *duration, *think)
	}

	target := *addr
	var self *selfServer
	if target == "" {
		cfg := selfConfig{
			hosts:        strings.Split(*hostsList, ","),
			producers:    *producers,
			advance:      *advance,
			cacheTTL:     *cacheTTL,
			dataDir:      *dataDir,
			admitMax:     *admitMax,
			admitQueue:   *admitQueue,
			admitTimeout: *admitTimeout,
		}
		var err error
		self, err = startSelfServer(cfg, "127.0.0.1:0")
		if err != nil {
			log.Print(err)
			return 1
		}
		defer self.stop()
		target = self.addr
		fmt.Fprintf(os.Stderr, "serving in-process grid on %s (advance %v, cache %v, data %q, admit-max %d)\n",
			target, *advance, *cacheTTL, *dataDir, *admitMax)
	}

	q := gridmon.Query{
		System: gridmon.System(*system),
		Role:   parseRole(*role),
		Host:   *host,
		Expr:   *expr,
	}
	if *attrs != "" {
		q.Attrs = strings.Split(*attrs, ",")
	}
	hosts, err := gridHosts(target)
	if err != nil {
		log.Print(err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Print(err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}
	}()

	switch *scenario {
	case "restart":
		return runRestartScenario(self, q, hosts, levels[0], *duration, *think)
	case "overload":
		return runOverloadScenario(target, q, hosts, *duration, *think, *admitMax, *admitQueue)
	}

	var results []levelResult
	for _, users := range levels {
		res, err := runLevel(target, q, hosts, users, *duration, *think, gridmon.DialOptions{})
		if err != nil {
			log.Print(err)
			return 1
		}
		results = append(results, res)
	}

	if *output == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Print(err)
			return 1
		}
	} else {
		printTable(results)
	}
	return exitForErrors(results, *maxErrRate)
}

// exitForErrors is the error-threshold gate: a run whose transport
// errors exceed the tolerated rate must not exit 0 (sheds are the
// server's controlled refusals and don't count against it).
func exitForErrors(results []levelResult, maxRate float64) int {
	status := 0
	for _, r := range results {
		attempts := r.Queries + r.Errors
		if attempts == 0 {
			fmt.Fprintf(os.Stderr, "level %d users: no queries completed\n", r.Users)
			status = 1
			continue
		}
		rate := float64(r.Errors) / float64(attempts)
		if rate > maxRate {
			fmt.Fprintf(os.Stderr, "level %d users: error rate %.2f%% (%d/%d) exceeds -max-error-rate %.2f%%\n",
				r.Users, 100*rate, r.Errors, attempts, 100*maxRate)
			status = 1
		}
	}
	return status
}

// levelResult is one concurrency level's measurement — one point of the
// paper's throughput and response-time curves.
type levelResult struct {
	Users   int `json:"users"`
	Queries int `json:"queries"`
	// Errors counts transport/server failures; Shed counts admission
	// refusals (the overloaded code) — the server protecting itself, not
	// failing. ShedP99MS is how long a refusal took to arrive.
	Errors int `json:"errors"`
	Shed   int `json:"shed"`
	// Partials counts successes that came back with ResultSet.Partial —
	// a federation aggregator answering from surviving shards only.
	Partials   int     `json:"partials,omitempty"`
	Throughput float64 `json:"throughput_qps"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	ShedP99MS  float64 `json:"shed_p99_ms,omitempty"`
	// CacheHitRate is hits/(hits+misses) summed over every response's
	// Work counters; nil when the serving grid has no query cache.
	CacheHitRate *float64 `json:"cache_hit_rate,omitempty"`
	// AllocsPerOp and BytesPerOp are the process's heap allocations per
	// completed query over the level window (runtime.MemStats deltas,
	// think-time sleeps included). In self-serve mode the server shares
	// the process, so the figure covers both halves of the exchange —
	// which is exactly the codec cost the binary wire format attacks.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// userStats is one user's tally, merged after the level completes.
type userStats struct {
	latencies []time.Duration
	shedLats  []time.Duration
	errors    int
	partials  int
	hits      int
	misses    int
}

// runLevel drives one closed-loop concurrency level: users goroutines,
// each on its own connection, querying back-to-back (plus think time)
// for the duration.
func runLevel(addr string, q gridmon.Query, hosts []string, users int,
	duration, think time.Duration, dial gridmon.DialOptions) (levelResult, error) {
	return runLevelObserved(addr, q, hosts, users, duration, think, dial,
		func(_, _ time.Time, _ *gridmon.ResultSet) {})
}

// runLevelObserved is runLevel with a completion hook: observe is called
// with each successful query's start and completion times and its
// result (the restart scenario spots the first success begun after the
// kill; the churn scenario additionally watches ResultSet.Partial).
func runLevelObserved(addr string, q gridmon.Query, hosts []string, users int,
	duration, think time.Duration, dial gridmon.DialOptions,
	observe func(start, done time.Time, rs *gridmon.ResultSet)) (levelResult, error) {
	// Dial every user before the window opens so slow connects don't
	// eat into the measurement.
	conns := make([]*gridmon.RemoteGrid, users)
	for i := range conns {
		rg, err := gridmon.DialWith(addr, dial)
		if err != nil {
			return levelResult{}, fmt.Errorf("user %d: %v", i, err)
		}
		conns[i] = rg
		defer rg.Close()
	}
	stats := make([]userStats, users)
	// Heap-allocation deltas over the measurement window, normalized per
	// completed query after the level ends.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	deadline := time.Now().Add(duration)
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < users; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &stats[u]
			for i := 0; time.Now().Before(deadline); i++ {
				uq := q
				if uq.Host == "" && needsHost(q) && len(hosts) > 0 {
					uq.Host = hosts[(i+u)%len(hosts)]
				}
				t0 := time.Now()
				rs, err := conns[u].Query(ctx, uq)
				if err != nil {
					if errors.Is(err, gridmon.ErrOverloaded) {
						st.shedLats = append(st.shedLats, time.Since(t0))
						// Back off as a well-behaved shed client does,
						// instead of hammering the gate.
						time.Sleep(time.Millisecond)
					} else {
						st.errors++
					}
					continue
				}
				done := time.Now()
				observe(t0, done, rs)
				st.latencies = append(st.latencies, done.Sub(t0))
				if rs.Partial {
					st.partials++
				}
				st.hits += rs.Work.CacheHits
				st.misses += rs.Work.CacheMisses
				if think > 0 {
					time.Sleep(think)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	res := mergeStats(users, stats, elapsed)
	if res.Queries > 0 {
		res.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Queries)
		res.BytesPerOp = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(res.Queries)
	}
	return res, nil
}

// mergeStats folds the per-user tallies into one level's result.
func mergeStats(users int, stats []userStats, elapsed time.Duration) levelResult {
	var all, shed []time.Duration
	res := levelResult{Users: users}
	hits, misses := 0, 0
	for _, st := range stats {
		all = append(all, st.latencies...)
		shed = append(shed, st.shedLats...)
		res.Errors += st.errors
		res.Partials += st.partials
		hits += st.hits
		misses += st.misses
	}
	res.Queries = len(all)
	res.Shed = len(shed)
	if len(shed) > 0 {
		sort.Slice(shed, func(i, j int) bool { return shed[i] < shed[j] })
		res.ShedP99MS = ms(percentile(shed, 0.99))
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Queries) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		res.MeanMS = float64(sum.Microseconds()) / float64(len(all)) / 1000
		res.P50MS = ms(percentile(all, 0.50))
		res.P99MS = ms(percentile(all, 0.99))
	}
	if hits+misses > 0 {
		rate := float64(hits) / float64(hits+misses)
		res.CacheHitRate = &rate
	}
	return res
}

// needsHost reports whether the query shape requires a Host: the
// per-resource information servers of MDS and Hawkeye.
func needsHost(q gridmon.Query) bool {
	if q.Role != "" && q.Role != gridmon.RoleInformationServer {
		return false
	}
	return q.System == gridmon.MDS || q.System == gridmon.Hawkeye
}

// percentile returns the p-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func printTable(results []levelResult) {
	fmt.Printf("%7s %9s %7s %7s %12s %10s %10s %10s %9s %11s %11s\n",
		"users", "queries", "errors", "shed", "qps", "mean-ms", "p50-ms", "p99-ms", "cache-hit", "allocs/op", "bytes/op")
	for _, r := range results {
		hit := "-"
		if r.CacheHitRate != nil {
			hit = fmt.Sprintf("%.1f%%", 100**r.CacheHitRate)
		}
		fmt.Printf("%7d %9d %7d %7d %12.1f %10.3f %10.3f %10.3f %9s %11.0f %11.0f\n",
			r.Users, r.Queries, r.Errors, r.Shed, r.Throughput, r.MeanMS, r.P50MS, r.P99MS, hit,
			r.AllocsPerOp, r.BytesPerOp)
	}
}

// parseRole maps the CLI shorthand (or a full Table 1 name) to a Role.
func parseRole(s string) gridmon.Role {
	switch strings.ToLower(s) {
	case "", "info", "information server":
		return "" // Query's zero value: information server
	case "dir", "directory", "directory server":
		return gridmon.RoleDirectoryServer
	case "agg", "aggregate", "aggregate information server":
		return gridmon.RoleAggregateServer
	}
	return gridmon.Role(s) // let the server reject unknowns with a clear error
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -users entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-users is empty")
	}
	return out, nil
}

// gridHosts asks the server for its monitored hosts (for -host rotation).
func gridHosts(addr string) ([]string, error) {
	rg, err := gridmon.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer rg.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return rg.Hosts(ctx)
}

// selfConfig is everything needed to build (and rebuild, for the
// restart scenario) the in-process grid server.
type selfConfig struct {
	hosts        []string
	producers    int
	advance      time.Duration
	cacheTTL     time.Duration
	dataDir      string
	admitMax     int
	admitQueue   int
	admitTimeout time.Duration
}

// selfServer is the in-process grid server, restartable over the same
// data directory and address — the self-serve counterpart of killing
// and relaunching gridmon-live -data.
type selfServer struct {
	cfg      selfConfig
	addr     string
	srv      *gridmon.TransportServer
	grid     *gridmon.Grid
	stopPump chan struct{}
}

// startSelfServer builds the grid from cfg and serves it on listenAddr.
func startSelfServer(cfg selfConfig, listenAddr string) (*selfServer, error) {
	opts := []gridmon.Option{
		gridmon.WithHosts(cfg.hosts...),
		gridmon.WithRGMAProducers(cfg.producers),
		gridmon.WithWallClock(),
	}
	if cfg.cacheTTL > 0 {
		opts = append(opts, gridmon.WithQueryCache(cfg.cacheTTL))
	}
	if cfg.dataDir != "" {
		opts = append(opts, gridmon.WithStorage(cfg.dataDir))
	}
	if cfg.admitMax > 0 {
		opts = append(opts, gridmon.WithAdmission(cfg.admitMax, cfg.admitQueue, cfg.admitTimeout))
	}
	grid, err := gridmon.New(opts...)
	if err != nil {
		return nil, err
	}
	srv := gridmon.NewTransportServer()
	grid.Serve(srv)
	bound, err := srv.Listen(listenAddr)
	if err != nil {
		return nil, err
	}
	s := &selfServer{cfg: cfg, addr: bound, srv: srv, grid: grid, stopPump: make(chan struct{})}
	if cfg.advance > 0 {
		go func(stop chan struct{}, grid *gridmon.Grid) {
			ticker := time.NewTicker(cfg.advance)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					if err := grid.Advance(grid.Now()); err != nil {
						log.Printf("advance: %v", err)
					}
				}
			}
		}(s.stopPump, grid)
	}
	return s, nil
}

// kill is the crash: the pump stops, the listener and every connection
// drop, and the grid is abandoned — no Close, no goodbye snapshot, so a
// restart over the same -data recovers from WAL + last snapshot exactly
// as after a kill -9.
func (s *selfServer) kill() {
	close(s.stopPump)
	s.srv.Close()
}

// restart rebuilds the grid over the same configuration (and data
// directory) and re-listens on the same address.
func (s *selfServer) restart() error {
	next, err := startSelfServer(s.cfg, s.addr)
	if err != nil {
		return err
	}
	*s = *next
	return nil
}

// stop shuts the server down cleanly (final snapshot included).
func (s *selfServer) stop() {
	select {
	case <-s.stopPump:
	default:
		close(s.stopPump)
	}
	s.srv.Close()
	if err := s.grid.Close(); err != nil {
		log.Printf("shutdown: %v", err)
	}
}
