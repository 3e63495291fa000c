package gridmon

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// Record is one decoded result record in the shape shared by all three
// systems: a key (an LDAP DN, a row key, a machine name) plus flat
// string fields.
type Record = core.Record

// Work quantifies what the serving component did to answer a query, in
// units common to all three systems (see internal/core).
type Work = core.Work

// ResultSet is a query's answer: decoded records, the Work the serving
// component performed, and the elapsed wall time observed by the caller
// (so a remote ResultSet's Elapsed includes the network round trip,
// while Records and Work are byte-identical to the in-process answer).
//
// A federation aggregator (internal/federation) answering under the
// best-effort policy may return a partial answer: Partial is true and
// Branches records, per failed branch, what went wrong. Both fields
// travel the wire inside the grid.query response, so a remote caller
// sees exactly what an in-process caller of the Router would. A
// single grid never sets them.
//
// Records is the caller's to sort, re-slice or append to, but a
// RemoteGrid answer's field maps may be shared with earlier answers of
// the same client and are read-only (see Record).
type ResultSet struct {
	System  System        `json:"system"`
	Role    Role          `json:"role"`
	Host    string        `json:"host,omitempty"`
	Records []Record      `json:"records"`
	Work    Work          `json:"work"`
	Elapsed time.Duration `json:"elapsed"`
	// Partial reports that one or more federation branches failed and
	// Records covers only the surviving shards. False on a complete
	// answer (and always false from a single grid).
	Partial bool `json:"partial,omitempty"`
	// Branches carries the per-branch failure metadata when Partial is
	// set (or when a degraded answer is being explained).
	Branches []BranchError `json:"branch_errors,omitempty"`
}

// BranchError is one federation branch's failure: which shard, the
// replica address that answered (or the last one tried), and the
// structured code the branch failed with.
type BranchError struct {
	Shard   int       `json:"shard"`
	Addr    string    `json:"addr"`
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Len returns the number of records.
func (rs *ResultSet) Len() int { return len(rs.Records) }

// Keys lists the record keys in result order.
func (rs *ResultSet) Keys() []string {
	out := make([]string, len(rs.Records))
	for i, r := range rs.Records {
		out[i] = r.Key
	}
	return out
}

// Field returns the named field of record i ("" when absent).
func (rs *ResultSet) Field(i int, name string) string {
	if i < 0 || i >= len(rs.Records) {
		return ""
	}
	return rs.Records[i].Fields[name]
}

// String renders the result set as a compact text table: a summary line
// with the component accounting, then one line per record with its
// fields in sorted order.
func (rs *ResultSet) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s: %d record(s), %d visited, %d bytes, %.3fs\n",
		rs.System, rs.Role, len(rs.Records), rs.Work.RecordsVisited,
		rs.Work.ResponseBytes, rs.Elapsed.Seconds())
	if rs.Partial {
		fmt.Fprintf(&sb, "  PARTIAL: %d branch(es) failed\n", len(rs.Branches))
		for _, b := range rs.Branches {
			fmt.Fprintf(&sb, "    shard %d (%s): %s [%s]\n", b.Shard, b.Addr, b.Message, b.Code)
		}
	}
	for _, r := range rs.Records {
		fmt.Fprintf(&sb, "  %s\n", r.Key)
		for _, name := range r.SortedFieldNames() {
			fmt.Fprintf(&sb, "    %s: %s\n", name, r.Fields[name])
		}
	}
	return sb.String()
}
