package gridmon

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestDecodedAnswersOutliveTheirFrames: nothing a v3 answer decodes to
// may alias the connection's pooled frame buffers, which the next reply
// overwrites. 256 queries are pipelined on one connection and every
// answer is held until all have returned; only then is each compared
// with the in-process answer. A decoder that sliced the frame instead of
// its own copy would hand back records whose text a later frame has
// since replaced.
func TestDecodedAnswersOutliveTheirFrames(t *testing.T) {
	grid := newTestGrid(t)
	remote := serveGrid(t, grid)
	ctx := context.Background()

	want := make([]*ResultSet, len(protoQueries))
	for i, q := range protoQueries {
		// Twice, so caches and the R-GMA mediator are as warm as they
		// get and repeats account the same Work.
		for n := 0; n < 2; n++ {
			rs, err := grid.Query(ctx, q)
			if err != nil {
				t.Fatalf("%s/%s in-process: %v", q.System, q.Role, err)
			}
			want[i] = rs
		}
	}

	const calls = 256
	got := make([]*ResultSet, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = remote.Query(ctx, protoQueries[i%len(protoQueries)])
		}(i)
	}
	wg.Wait()

	for i := range got {
		q, w := protoQueries[i%len(protoQueries)], want[i%len(protoQueries)]
		if errs[i] != nil {
			t.Fatalf("call %d (%s/%s): %v", i, q.System, q.Role, errs[i])
		}
		g := got[i]
		if g.System != w.System || g.Role != w.Role || g.Host != w.Host ||
			g.Work != w.Work || !reflect.DeepEqual(g.Records, w.Records) {
			t.Fatalf("call %d (%s/%s): held answer differs from the in-process one:\n got %+v\nwant %+v", i, q.System, q.Role, g, w)
		}
	}
}
