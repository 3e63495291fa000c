// Package federation turns N single-process grids into the paper's
// tree. The paper's architecture is hierarchical — per-host GRIS
// report into a GIIS, and GIISes register into upper-level GIISes —
// but a single gridmon.Grid collapses the whole hierarchy into one
// process. Here the hierarchy is real: leaf grids (cmd/gridmon-live
// -role leaf) each monitor a shard of the hosts, and a Router — the
// upper GIIS — aggregates them over transport sockets behind the
// same Querier/Subscriber surface a single grid serves.
//
// Host registrations are sharded by hash: ShardMap assigns every host
// to exactly one shard (FNV-1a of the host name modulo the shard
// count), and each shard is one or more replica addresses (primary
// first). The map carries an explicit Epoch so it can be swapped
// mid-run (Router.SetMap): a query snapshots the map once and runs
// entirely against that epoch.
//
// Query routing: a host-targeted query goes to the one shard that owns
// the host and the answer is returned exactly as the leaf produced it
// — byte-identical to a single grid monitoring the same hosts, since
// per-host data is deterministic in (host, time). A broad query fans
// out to every shard with bounded concurrency, each branch under a
// deadline budget carved from the caller's remaining context (or under
// the caller's context itself when there is nothing to carve); the
// per-shard replies are spliced into one, as MergeResultSets merges
// result sets (records in canonical key order, Work summed field-wise,
// no aggregator charges added). Beside the answer data it
// carries, what a broad query costs the Router does not grow with the
// shard count: its branches run on goroutines the Router reuses and on
// the caller's, their bookkeeping is pooled, and each branch reply is
// copied once, into bytes the branch reuses from query to query, and
// relayed without being decoded.
//
// Degradation: each replica address has its own resilient client with
// a circuit breaker (consecutive failures mark the address down,
// half-open probes bring it back); a branch fails over to its next
// replica on connection-class errors. What a failed branch means is
// policy: BestEffort (default) returns the surviving shards' records
// with ResultSet.Partial set and per-branch error metadata; FailFast
// turns any branch failure into a CodeDegraded error. When no branch
// survives, both policies fail — with the branches' own code when
// they agree on a request-level error (bad_request, parse_error,
// unknown_op), with CodeDegraded otherwise.
package federation

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	gridmon "repro"
)

// Shard is one leaf of the tree: a primary address and optional
// replicas, tried in order when the one before fails with a
// connection-class error.
type Shard struct {
	// Addrs lists the shard's replica addresses, primary first. Every
	// replica serves the same host subset (per-host data is
	// deterministic in host and time, so any replica's answer is the
	// shard's answer).
	Addrs []string `json:"addrs"`
}

// ShardMap assigns every host to a shard. The zero map is invalid; use
// NewShardMap or ParseShardMap.
type ShardMap struct {
	// Epoch versions the map so it can change mid-run: Router.SetMap
	// only accepts a map with a strictly greater epoch, and every query
	// runs against the epoch it snapshotted at entry.
	Epoch uint64 `json:"epoch"`
	// Shards lists the leaves; a host belongs to shard
	// fnv1a(host) % len(Shards).
	Shards []Shard `json:"shards"`
}

// NewShardMap builds an epoch-1 map with one single-replica shard per
// address.
func NewShardMap(addrs ...string) ShardMap {
	m := ShardMap{Epoch: 1, Shards: make([]Shard, 0, len(addrs))}
	for _, a := range addrs {
		m.Shards = append(m.Shards, Shard{Addrs: []string{a}})
	}
	return m
}

// ParseShardMap parses the -shards flag syntax: shards separated by
// commas, replica addresses within a shard by slashes, e.g.
// "host1:7001/host2:7001,host3:7002". The map gets epoch 1.
func ParseShardMap(s string) (ShardMap, error) {
	m := ShardMap{Epoch: 1}
	for _, shard := range strings.Split(s, ",") {
		var sh Shard
		for _, addr := range strings.Split(shard, "/") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return ShardMap{}, fmt.Errorf("shard map %q: empty address", s)
			}
			sh.Addrs = append(sh.Addrs, addr)
		}
		m.Shards = append(m.Shards, sh)
	}
	return m, m.Validate()
}

// Validate reports whether the map can route at all: at least one
// shard, every shard with at least one non-empty address.
func (m ShardMap) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard map has no shards")
	}
	for i, sh := range m.Shards {
		if len(sh.Addrs) == 0 {
			return fmt.Errorf("shard %d has no addresses", i)
		}
		for _, a := range sh.Addrs {
			if a == "" {
				return fmt.Errorf("shard %d has an empty address", i)
			}
		}
	}
	return nil
}

// ShardFor returns the shard index owning host: FNV-1a of the host
// name modulo the shard count. The hash is stable across processes and
// runs, so every node of the tree — and the provisioning that decides
// which leaf monitors which hosts — agrees on the assignment.
func (m ShardMap) ShardFor(host string) int {
	h := fnv.New32a()
	h.Write([]byte(host))
	return int(h.Sum32() % uint32(len(m.Shards)))
}

// PartitionHosts splits a host list into per-shard sublists in input
// order — the provisioning helper: a leaf serving shard i monitors
// exactly PartitionHosts(hosts)[i].
func (m ShardMap) PartitionHosts(hosts []string) [][]string {
	parts := make([][]string, len(m.Shards))
	for _, h := range hosts {
		i := m.ShardFor(h)
		parts[i] = append(parts[i], h)
	}
	return parts
}

// Policy selects what a branch failure means for the whole query.
type Policy string

const (
	// BestEffort merges the surviving branches into a partial answer
	// (ResultSet.Partial, per-branch metadata in ResultSet.Branches)
	// and only fails when no branch survives. The default.
	BestEffort Policy = "best-effort"
	// FailFast turns any branch failure into a CodeDegraded error: the
	// caller wants the complete answer or none.
	FailFast Policy = "fail-fast"
)

// ParsePolicy maps the -policy flag to a Policy ("" means BestEffort).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return BestEffort, nil
	case BestEffort, FailFast:
		return Policy(s), nil
	}
	return "", fmt.Errorf("unknown policy %q (want %q or %q)", s, BestEffort, FailFast)
}

// The config defaults New fills in.
const (
	// DefaultMaxFanout bounds how many branches of one broad query are
	// in flight at once.
	DefaultMaxFanout = 8
	// DefaultBranchBudget is the fraction of the caller's remaining
	// deadline each fan-out branch receives; the reserved remainder
	// keeps the merge and the aggregator's own response inside the
	// caller's deadline. Host-targeted queries keep the caller's full
	// deadline — there are no siblings to budget against.
	DefaultBranchBudget = 0.9
	// DefaultBreakerThreshold / DefaultBreakerCooldown configure the
	// per-address circuit breaker when cfg.Dial.Breaker is unset: a
	// federation without branch health tracking defeats the point, so
	// the breaker is default-on (set a huge Threshold to effectively
	// disable it).
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = time.Second
)

// Config configures a Router. Map is required; everything else
// defaults (see the Default* constants).
type Config struct {
	// Map is the shard map the Router starts with (Validate must pass).
	Map ShardMap
	// Policy selects best-effort (default) or fail-fast degradation.
	Policy Policy
	// MaxFanout bounds concurrent branches per broad query (default
	// DefaultMaxFanout). A map with no more shards than MaxFanout runs
	// every branch at once and needs no semaphore; a larger one makes
	// each branch wait for one of MaxFanout slots before it starts, and
	// its deadline budget is carved when it starts. MaxFanout also sizes
	// the goroutines the Router keeps to run branches: at most
	// transport.DefaultMaxPipeline × MaxFanout, one connection's full
	// pipeline of broad queries at full fan-out.
	MaxFanout int
	// BranchTimeout, when > 0, caps every branch's deadline regardless
	// of the caller's budget — and bounds branches when the caller has
	// no deadline at all. 0 leaves deadline-less callers unbounded
	// (modulo Dial.AttemptTimeout).
	BranchTimeout time.Duration
	// Dial configures every backend client (per-attempt timeout,
	// retries, backoff, breaker, WrapConn — the chaos seam). An unset
	// Breaker gets the federation default threshold/cooldown.
	Dial gridmon.DialOptions
}
