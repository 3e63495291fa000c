// Command gridmon-live runs all three monitoring services as one real TCP
// server built on the gridmon.Grid facade: MDS queries, R-GMA SQL, and
// Hawkeye constraint scans, dispatched by operation name over the
// binary framed transport (see internal/transport). Pair it with
// gridmon-query, or connect programmatically with gridmon.Dial.
//
// Usage:
//
//	gridmon-live [-role grid|leaf|giis] [-addr 127.0.0.1:7946] [-hosts lucky3,lucky4,lucky7]
//	             [-advance 5s] [-data DIR] [-admit-max N] [-admit-queue N] [-admit-timeout D]
//	             [-shards a:7001/b:7001,c:7002] [-shard-index N] [-policy best-effort|fail-fast]
//	             [-fanout N] [-branch-timeout D] [-retries N] [-attempt-timeout D] [-breaker N,COOLDOWN]
//
// Roles — the paper's tree, one process per node:
//
//	grid   (default) one self-contained grid serving every op below.
//	leaf   a lower-level node: the same grid server, but when -shards and
//	       -shard-index are given the leaf monitors only its shard of the
//	       -hosts universe (the slice federation.ShardMap assigns it), so N
//	       leaves started with the same -hosts and -shards cover the
//	       universe exactly once.
//	giis   the upper-level aggregator: no grid of its own — it answers
//	       grid.query / grid.subscribe / grid.hosts / grid.systems by
//	       scatter-gather over the leaf addresses in -shards (commas
//	       separate shards, slashes separate a shard's replicas), plus
//	       fed.stats for federation counters. -policy picks what a failed
//	       branch means (partial answers vs fail-fast), -fanout bounds
//	       concurrent branches, -branch-timeout caps each branch, and
//	       -retries / -attempt-timeout / -breaker configure the resilient
//	       clients the aggregator keeps per leaf address.
//
// Operations served (ops.list reports the full namespace):
//
//	grid.query      typed query (body: gridmon.Query; binary codec) — what gridmon.Dial speaks
//	grid.subscribe  typed event stream (body: gridmon.Subscription; binary)
//	grid.hosts      list monitored hosts
//	grid.systems    list deployed systems
//	ops.list        list every registered op
//	ops.stats       serving counters (gridmon.Stats)
//
// grid.query is the one read op: a gridmon.Query names the system and
// the Table 1 role, so every GRIS, GIIS, servlet, Registry, composite,
// Agent and Manager of the deployment answers through it.
//
// A background loop calls Grid.Advance every -advance interval: R-GMA
// sensors regenerate (feeding continuous queries), Hawkeye agents
// advertise (running trigger matchmaking), and MDS watchers poll-and-
// diff — so grid.subscribe streams move in real time.
//
// grid.query and grid.subscribe are the binary ops (a JSON-bodied
// grid.query gets bad_request); every other op takes a JSON body. A
// peer that does not open with the protocol's magic preamble — a client
// of the removed JSON framings, say — is disconnected without an answer.
//
// With -data DIR the grid's directory state is durable: the R-GMA
// Registry and the GIIS registration table are write-ahead-logged under
// DIR and recovered on the next start over the same directory — even
// after a kill -9. On SIGINT or SIGTERM the server stops accepting
// connections, then flushes a final snapshot so the next start recovers
// without replay.
//
// With -admit-max N the grid sheds load instead of collapsing under it:
// at most N queries execute concurrently, up to -admit-queue more wait
// (each at most -admit-timeout), and everything beyond fast-fails with
// the structured "overloaded" code. ops.stats (or gridmon-query -o json
// ops.stats) reports what the gate did.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	gridmon "repro"
	"repro/internal/federation"
	"repro/internal/transport"
)

func main() {
	role := flag.String("role", "grid", "grid | leaf (shard of -hosts) | giis (aggregator over -shards)")
	addr := flag.String("addr", "127.0.0.1:7946", "listen address")
	hostList := flag.String("hosts", "lucky3,lucky4,lucky5,lucky6,lucky7", "monitored host names")
	producers := flag.Int("producers", 3, "R-GMA producers per host")
	advance := flag.Duration("advance", 5*time.Second, "monitoring-round interval (drives subscriptions)")
	dataDir := flag.String("data", "", "data directory for durable directory state (empty: volatile)")
	admitMax := flag.Int("admit-max", 0, "admission control: max concurrent queries (0 = unlimited)")
	admitQueue := flag.Int("admit-queue", 16, "admission control: max queued queries past -admit-max")
	admitTimeout := flag.Duration("admit-timeout", 100*time.Millisecond, "admission control: max wait in the queue")
	shards := flag.String("shards", "", "shard map: shards comma-separated, replica addresses slash-separated")
	shardIndex := flag.Int("shard-index", -1, "leaf: monitor shard N of -hosts under -shards (-1: all hosts)")
	policy := flag.String("policy", "", "giis: best-effort (default) or fail-fast")
	fanout := flag.Int("fanout", 0, "giis: max concurrent branches per broad query (0: default)")
	branchTimeout := flag.Duration("branch-timeout", 0, "giis: per-branch deadline cap (0: caller's budget only)")
	retries := flag.Int("retries", 0, "giis: retries per backend call")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "giis: per-attempt timeout per backend call")
	breaker := flag.String("breaker", "", "giis: backend circuit breaker as THRESHOLD[,COOLDOWN] (empty: federation default)")
	flag.Parse()
	if *advance <= 0 {
		log.Fatalf("-advance %v: the monitoring-round interval must be positive", *advance)
	}
	hosts := strings.Split(*hostList, ",")

	if *role == "giis" {
		runGIIS(*addr, *shards, *policy, *fanout, *branchTimeout, *retries, *attemptTimeout, *breaker)
		return
	}
	if *role != "grid" && *role != "leaf" {
		log.Fatalf("-role %q: want grid, leaf or giis", *role)
	}
	if *shardIndex >= 0 {
		if *role != "leaf" {
			log.Fatalf("-shard-index needs -role leaf")
		}
		m, err := federation.ParseShardMap(*shards)
		if err != nil {
			log.Fatalf("-shards: %v", err)
		}
		if *shardIndex >= len(m.Shards) {
			log.Fatalf("-shard-index %d: the map has %d shard(s)", *shardIndex, len(m.Shards))
		}
		hosts = m.PartitionHosts(hosts)[*shardIndex]
		if len(hosts) == 0 {
			log.Fatalf("shard %d of %q owns none of the %d host(s)", *shardIndex, *shards, len(strings.Split(*hostList, ",")))
		}
	}

	opts := []gridmon.Option{
		gridmon.WithHosts(hosts...),
		gridmon.WithRGMAProducers(*producers),
		gridmon.WithWallClock(),
	}
	if *dataDir != "" {
		opts = append(opts, gridmon.WithStorage(*dataDir))
	}
	if *admitMax > 0 {
		opts = append(opts, gridmon.WithAdmission(*admitMax, *admitQueue, *admitTimeout))
	}
	grid, err := gridmon.New(opts...)
	if err != nil {
		log.Fatal(err)
	}

	// Run monitoring rounds in real time: sensors regenerate, agents
	// advertise, watchers poll — every push path any subscriber relies on.
	go func() {
		for {
			time.Sleep(*advance)
			if err := grid.Advance(grid.Now()); err != nil {
				log.Printf("advance: %v", err)
			}
		}
	}()

	srv := transport.NewServer()
	grid.Serve(srv)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gridmon-live serving MDS + R-GMA + Hawkeye on %s\n", bound)
	fmt.Printf("ops: %s\n", strings.Join(srv.Ops(), " "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Stop taking requests first, then flush: the final snapshot must
	// not race in-flight mutations.
	srv.Close()
	if err := grid.Close(); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}

// runGIIS serves the federation aggregator: no grid of its own, just
// the Router scatter-gathering the -shards leaves.
func runGIIS(addr, shards, policy string, fanout int, branchTimeout time.Duration,
	retries int, attemptTimeout time.Duration, breaker string) {
	if shards == "" {
		log.Fatal("-role giis needs -shards (the leaf addresses to aggregate)")
	}
	m, err := federation.ParseShardMap(shards)
	if err != nil {
		log.Fatalf("-shards: %v", err)
	}
	pol, err := federation.ParsePolicy(policy)
	if err != nil {
		log.Fatalf("-policy: %v", err)
	}
	br, err := gridmon.ParseBreaker(breaker)
	if err != nil {
		log.Fatalf("-breaker: %v", err)
	}
	router, err := federation.New(federation.Config{
		Map:           m,
		Policy:        pol,
		MaxFanout:     fanout,
		BranchTimeout: branchTimeout,
		Dial: gridmon.DialOptions{
			MaxRetries:     retries,
			AttemptTimeout: attemptTimeout,
			Breaker:        br,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := transport.NewServer()
	router.Serve(srv)
	bound, err := srv.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gridmon-live GIIS aggregating %d shard(s) (%s) on %s\n", len(m.Shards), pol, bound)
	fmt.Printf("ops: %s\n", strings.Join(srv.Ops(), " "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	router.Close()
}
