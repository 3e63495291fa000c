package federation_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	gridmon "repro"
	"repro/internal/federation"
	"repro/internal/leakcheck"
)

// The differential gates. Two oracles pin the Router's answers:
//
//  1. The in-process scatter-gather oracle — each leaf grid queried
//     directly, merged with MergeResultSets. The wire path (transport,
//     budgets, merge) must match it bit for bit: Records AND Work.
//  2. A single in-process grid over the union host set. Host-targeted
//     answers are literally identical (per-host data is deterministic
//     in host and time). Broad answers carry the same records (in
//     canonical order) and Work equal up to the federation tax — the
//     per-node constants a tree of B nodes genuinely pays B times
//     where one process pays once (one consumer/registry/manager per
//     node). The tax is pinned EXACTLY per system and validated at
//     two different shard counts, so any accounting drift fails.

// broadQueries fan out to every shard.
var broadQueries = []gridmon.Query{
	{System: gridmon.MDS, Role: gridmon.RoleAggregateServer, Expr: "(objectclass=MdsCpu)"},
	{System: gridmon.MDS, Role: gridmon.RoleAggregateServer},
	{System: gridmon.MDS, Role: gridmon.RoleDirectoryServer},
	{System: gridmon.RGMA, Role: gridmon.RoleInformationServer, Expr: "SELECT host, value FROM siteinfo"},
	{System: gridmon.RGMA, Role: gridmon.RoleDirectoryServer},
	{System: gridmon.RGMA, Role: gridmon.RoleAggregateServer},
	{System: gridmon.Hawkeye, Role: gridmon.RoleAggregateServer, Expr: "TARGET.CpuLoad >= 0"},
	{System: gridmon.Hawkeye, Role: gridmon.RoleDirectoryServer},
}

// hostQueries target one host's information server (filled per host).
func hostQueries(host string) []gridmon.Query {
	return []gridmon.Query{
		{System: gridmon.MDS, Role: gridmon.RoleInformationServer, Host: host, Expr: "(objectclass=MdsCpu)"},
		{System: gridmon.RGMA, Role: gridmon.RoleInformationServer, Host: host, Expr: "SELECT host, value FROM siteinfo"},
		{System: gridmon.Hawkeye, Role: gridmon.RoleInformationServer, Host: host},
	}
}

// compositeTaxBytes is the response-envelope overhead each extra
// composite producer (R-GMA aggregate role) adds to ResponseBytes —
// measured, and validated below at two shard counts: if it were not a
// per-node constant, one of the counts would fail.
const compositeTaxBytes = 21

// federationTax returns the exact Work surcharge a B-shard tree pays
// over a single process for one broad query: (B-1) times each
// per-node constant. `single` is the single grid's own Work — the
// ScanFallbacks constants are conditional on the query actually
// falling back to a scan.
func federationTax(q gridmon.Query, single gridmon.Work, branches int) gridmon.Work {
	e := branches - 1
	var tax gridmon.Work
	switch q.System {
	case gridmon.MDS:
		// Every GIIS DIT holds one structural suffix entry its searches
		// visit; an unindexed filter costs one scan fallback per GIIS.
		tax.RecordsVisited = e
		if single.ScanFallbacks > 0 {
			tax.ScanFallbacks = e
		}
	case gridmon.RGMA:
		switch q.Role {
		case gridmon.RoleDirectoryServer:
			// One registry lookup thread per registry.
			tax.ThreadSpawns = e
		case gridmon.RoleAggregateServer:
			// One composite producer per node: its own query thread +
			// registry thread, one registry lookup, one table scan, and
			// the per-response envelope bytes.
			tax.Subqueries = e
			tax.ThreadSpawns = 2 * e
			tax.ScanFallbacks = e
			tax.ResponseBytes = compositeTaxBytes * e
		default:
			// The mediated consumer: one consumer thread + one registry
			// lookup (thread + subquery) per node.
			tax.Subqueries = e
			tax.ThreadSpawns = 2 * e
		}
	case gridmon.Hawkeye:
		// One pool scan per Manager.
		if single.ScanFallbacks > 0 {
			tax.ScanFallbacks = e
		}
	}
	return tax
}

// sortedByKey returns a copy of recs stably sorted into canonical key
// order — the order MergeResultSets commits to.
func sortedByKey(recs []gridmon.Record) []gridmon.Record {
	out := append([]gridmon.Record(nil), recs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// fieldMultiset renders each record's fields (ignoring the Key) and
// sorts the renderings — the comparison for R-GMA row records, whose
// keys are positional row numbers, unique only within one producing
// node.
func fieldMultiset(recs []gridmon.Record) []string {
	out := make([]string, 0, len(recs))
	for _, r := range recs {
		var sb strings.Builder
		for _, name := range r.SortedFieldNames() {
			fmt.Fprintf(&sb, "%s=%s;", name, r.Fields[name])
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// keyedRecords reports whether q's records carry globally-unique keys
// (LDAP DNs, producer ids, machine names) rather than per-node row
// numbers.
func keyedRecords(q gridmon.Query) bool {
	if q.System != gridmon.RGMA {
		return true
	}
	// R-GMA registry records are keyed by producer id — unique; row
	// records from the mediated and composite paths are positional.
	return q.Role == gridmon.RoleDirectoryServer
}

// TestFederatedOracleIdentity: the wire path must be bit-identical to
// the in-process scatter-gather oracle — Records, order included, and
// every Work field.
func TestFederatedOracleIdentity(t *testing.T) {
	leakcheck.Check(t)
	c := newCluster(t, 3, nil, federation.Config{})
	ctx := testCtx(t)
	for _, q := range broadQueries {
		want, err := c.oracleMerge(ctx, q)
		if err != nil {
			t.Fatalf("%s/%s oracle: %v", q.System, q.Role, err)
		}
		got, err := c.router.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s/%s federated: %v", q.System, q.Role, err)
		}
		if got.Partial || len(got.Branches) != 0 {
			t.Errorf("%s/%s: healthy federation answered partial=%v branches=%v",
				q.System, q.Role, got.Partial, got.Branches)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Errorf("%s/%s: records differ from the in-process oracle", q.System, q.Role)
		}
		if got.Work != want.Work {
			t.Errorf("%s/%s: work differs from oracle\nfederated: %+v\noracle:    %+v",
				q.System, q.Role, got.Work, want.Work)
		}
	}
}

// TestFederatedHostTargetedIdentity: a host-targeted query routes to
// the one shard owning the host, and its answer — Records AND Work —
// is byte-identical to a single grid monitoring all the hosts.
func TestFederatedHostTargetedIdentity(t *testing.T) {
	leakcheck.Check(t)
	c := newCluster(t, 3, nil, federation.Config{})
	single := buildGrid(t, fedHosts)
	ctx := testCtx(t)
	for _, host := range fedHosts {
		for _, q := range hostQueries(host) {
			want, err := single.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s %s single: %v", host, q.System, err)
			}
			got, err := c.router.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s %s federated: %v", host, q.System, err)
			}
			if got.Partial || len(got.Branches) != 0 {
				t.Errorf("%s %s: targeted query answered partial", host, q.System)
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Errorf("%s %s: records differ from the single grid", host, q.System)
			}
			if got.Work != want.Work {
				t.Errorf("%s %s: work differs\nfederated: %+v\nsingle:    %+v",
					host, q.System, got.Work, want.Work)
			}
		}
	}
}

// TestFederatedSingleGridEquivalence: broad answers against the single
// union grid — same records (canonical order vs a key-sort of the
// single grid's engine order; field multisets for positional R-GMA
// rows) and Work equal after the exactly-pinned federation tax. Runs
// at two shard counts so a mis-modeled tax cannot pass by luck.
func TestFederatedSingleGridEquivalence(t *testing.T) {
	leakcheck.Check(t)
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newCluster(t, shards, nil, federation.Config{})
			single := buildGrid(t, fedHosts)
			ctx := testCtx(t)
			for _, q := range broadQueries {
				want, err := single.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s/%s single: %v", q.System, q.Role, err)
				}
				got, err := c.router.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s/%s federated: %v", q.System, q.Role, err)
				}
				if want.Len() == 0 {
					t.Fatalf("%s/%s: single grid answered no records — the gate proves nothing", q.System, q.Role)
				}
				if keyedRecords(q) {
					if !reflect.DeepEqual(got.Records, sortedByKey(want.Records)) {
						t.Errorf("%s/%s: records differ from the single grid (canonicalized)", q.System, q.Role)
					}
				} else if !reflect.DeepEqual(fieldMultiset(got.Records), fieldMultiset(want.Records)) {
					t.Errorf("%s/%s: row contents differ from the single grid", q.System, q.Role)
				}
				expect := want.Work
				expect.Add(federationTax(q, want.Work, shards))
				if got.Work != expect {
					t.Errorf("%s/%s at %d shards: work off the pinned tax\nfederated: %+v\nexpected:  %+v\nsingle:    %+v",
						q.System, q.Role, shards, got.Work, expect, want.Work)
				}
			}
		})
	}
}
