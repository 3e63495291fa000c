package gridmon_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	gridmon "repro"
	"repro/internal/allocmeter"
	"repro/internal/binenc"
	"repro/internal/federation"
)

// splitBodies cuts fuzz input into branch reply bodies: data[0]'s low
// two bits plus one say how many, and its top bit whether the merge
// names a failed branch; every body but the last is length-prefixed, and
// the last is whatever is left.
func splitBodies(data []byte) (bodies [][]byte, failed bool) {
	if len(data) == 0 {
		return nil, false
	}
	n := int(data[0]&3) + 1
	d := binenc.NewDec(data[1:])
	for i := 0; i < n-1 && d.Err() == nil; i++ {
		if b := d.Bytes(); d.Err() == nil {
			bodies = append(bodies, b)
		}
	}
	return append(bodies, d.Rest()), data[0]&0x80 != 0
}

// joinBodies is the fuzz input splitBodies cuts into bodies.
func joinBodies(failed bool, bodies ...[]byte) []byte {
	head := byte(len(bodies) - 1)
	if failed {
		head |= 0x80
	}
	b := []byte{head}
	for _, body := range bodies[:len(bodies)-1] {
		b = binenc.AppendUvarint(b, uint64(len(body)))
		b = append(b, body...)
	}
	return append(b, bodies[len(bodies)-1]...)
}

// FuzzWireMerge feeds arbitrary branch reply bodies to the merge a
// federation Router splices its broad answers with. It accepts exactly
// what decoding each body accepts, never panics, allocates no more than
// a fixed multiple of its input, and leaves dst as it was when it
// refuses; a merge it accepts decodes to what MergeResultSets merges
// from the decoded bodies: the records in key order, ties in branch
// order, and Work summed, with the query's System, Role and Host and
// the merge's own Elapsed, Partial and Branches.
func FuzzWireMerge(f *testing.F) {
	g, err := gridmon.New(gridmon.WithHosts("lucky3", "lucky4", "lucky7"), gridmon.WithClock(func() float64 { return 1 }))
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	reply := func(q gridmon.Query) []byte {
		b, err := g.AppendQuery(ctx, q, nil)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	mds := reply(gridmon.Query{System: gridmon.MDS, Role: gridmon.RoleAggregateServer, Expr: "(objectclass=MdsCpu)"})
	rgma := reply(gridmon.Query{System: gridmon.RGMA, Expr: "SELECT host, host FROM siteinfo"})
	miss := reply(gridmon.Query{System: gridmon.Hawkeye, Host: "lucky4", Expr: "false"})
	empty := reply(gridmon.Query{System: gridmon.RGMA, Expr: "SELECT * FROM siteinfo WHERE value > 1000000"})
	f.Add([]byte{})
	f.Add(joinBodies(false, mds, rgma, mds))
	f.Add(joinBodies(true, miss, empty))
	f.Add(joinBodies(false, rgma[:len(rgma)-1], rgma))
	f.Add(joinBodies(false, append(bytes.Clone(empty), "trailing"...)))

	q := gridmon.Query{System: gridmon.MDS, Role: gridmon.RoleAggregateServer}
	f.Fuzz(func(t *testing.T, data []byte) {
		bodies, failed := splitBodies(data)
		var branches []gridmon.BranchError
		if failed {
			branches = []gridmon.BranchError{{Shard: 1, Addr: "127.0.0.1:1", Code: gridmon.ErrUnavailable, Message: "down"}}
		}
		parts := make([]*gridmon.ResultSet, 0, len(bodies))
		accept := true
		for _, body := range bodies {
			rs, err := gridmon.DecodeReply(body)
			if err != nil {
				accept = false
				break
			}
			parts = append(parts, rs)
		}

		// Bytes allocated by one merge. The widest thing it sizes is its
		// list of records, one slot per two input bytes, 48 bytes a slot,
		// grown by doubling.
		budget := uint64(256*len(data) + 64<<10)
		if n, ok := allocmeter.Bytes(budget, nil, func() { _, err = gridmon.MergeReplies(nil, q, bodies, branches, 7) }); !ok {
			t.Fatalf("merging %d bytes allocated %d", len(data), n)
		}

		merged, err := gridmon.MergeReplies([]byte("kept"), q, bodies, branches, 7)
		if (err == nil) != accept {
			t.Fatalf("merge err %v, yet every body decodes: %v", err, accept)
		}
		if !bytes.HasPrefix(merged, []byte("kept")) {
			t.Fatalf("the merge changed what dst held: %q", merged)
		}
		if err != nil {
			if len(merged) != len("kept") {
				t.Fatalf("a refused merge appended %q", merged[len("kept"):])
			}
			return
		}
		got, err := gridmon.DecodeReply(merged[len("kept"):])
		if err != nil {
			t.Fatalf("the merge does not decode: %v", err)
		}
		want := federation.MergeResultSets(q, parts)
		want.Elapsed, want.Partial, want.Branches = 7, failed, branches
		for _, w := range []*gridmon.Work{&got.Work, &want.Work} {
			if math.IsNaN(w.CollectorInvocations) {
				w.CollectorInvocations = 0 // NaN is unequal to itself
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("the merge decodes to\n%#v\nMergeResultSets gives\n%#v", got, want)
		}
	})
}
