package federation

import (
	"fmt"
	"sort"
	"strings"

	gridmon "repro"
	"repro/internal/transport"
)

// MergeResultSets combines healthy per-shard answers into the
// federated answer: records are concatenated in shard order and then
// stably sorted into canonical key order (ties keep shard order), and
// Work is the pure field-wise sum of the branches' Work — the
// aggregator adds no charges of its own, so the merged accounting is
// exactly what the leaves did. System/Role/Host are taken from the
// query (Role defaulting to RoleInformationServer, as Grid.Query
// does); Elapsed is the caller's to stamp.
//
// Canonical order is the one observable difference from a single
// grid's broad answer, which returns records in engine traversal
// order; with hosts hashed across shards no merge can reproduce that
// interleaving, so the federation commits to a deterministic order
// instead. Record sets and Work remain equal (see the differential
// tests).
//
// MergeResultSets is the reference merge. The Router merges the same
// way over its branches' reply bodies (gridmon.MergeReplies), decoding
// none of them, and the differential suite and the benchmark's
// correctness gate hold what it answers to this function.
func MergeResultSets(q gridmon.Query, parts []*gridmon.ResultSet) *gridmon.ResultSet {
	out := gridmon.ResultSet{System: q.System, Role: q.Role, Host: q.Host, Records: []gridmon.Record{}}
	if out.Role == "" {
		out.Role = gridmon.RoleInformationServer
	}
	for _, p := range parts {
		out.Records = append(out.Records, p.Records...)
		out.Work = MergeWork(out.Work, p.Work)
	}
	sort.SliceStable(out.Records, func(i, j int) bool {
		return out.Records[i].Key < out.Records[j].Key
	})
	return &out
}

// MergeWork sums two branches' Work field-wise. It is exactly
// core.Work.Add — re-exposed here so the federation's merge arithmetic
// has its own property test: every numeric field of the result must be
// the sum of the inputs' fields, including fields added to Work after
// this was written (see TestMergeWorkSumsEveryField).
func MergeWork(a, b gridmon.Work) gridmon.Work {
	a.Add(b)
	return a
}

// passthroughCode reports whether every branch failed with the same
// request-level code a single grid would also have answered with —
// bad_request, parse_error, unknown_op — in which case the Router
// returns that error directly instead of CodeDegraded. Availability-
// class codes never pass through: an all-branches-unavailable answer
// (breakers open, leaves down) is degradation, not a property of the
// request.
func passthroughCode(branches []gridmon.BranchError) bool {
	if len(branches) == 0 {
		return false
	}
	code := branches[0].Code
	switch code {
	case transport.CodeBadRequest, transport.CodeParse, transport.CodeUnknownOp:
	default:
		return false
	}
	for _, b := range branches[1:] {
		if b.Code != code {
			return false
		}
	}
	return true
}

// degradedError builds the CodeDegraded failure naming every failed
// branch. Branches that failed only because a fail-fast sibling
// cancelled them are listed after the originating failures.
func degradedError(total int, branches []gridmon.BranchError) *transport.Error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d of %d branch(es) failed:", len(branches), total)
	for _, b := range branches {
		fmt.Fprintf(&sb, " shard %d (%s): %s [%s];", b.Shard, b.Addr, b.Message, b.Code)
	}
	return &transport.Error{Code: transport.CodeDegraded, Message: strings.TrimSuffix(sb.String(), ";")}
}
