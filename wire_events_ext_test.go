package gridmon_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/federation"
)

// TestWireEventRelayBytes: an event served by a Grid and relayed by a
// federation Router reaches the client with its record section
// byte-identical to the section the Grid's source rendered, which an
// in-process subscription on the same Grid holds. The events carry
// records of many fields, whose order a hop that decoded them into
// field maps and encoded them again would shuffle: no hop re-encodes.
func TestWireEventRelayBytes(t *testing.T) {
	var clock atomic.Uint64
	clock.Store(math.Float64bits(1))
	leaf, err := gridmon.New(gridmon.WithHosts(scratchHosts[:3]...),
		gridmon.WithClock(func() float64 { return math.Float64frombits(clock.Load()) }))
	if err != nil {
		t.Fatal(err)
	}
	router := newRouter(t, federation.Config{Map: federation.NewShardMap(serveLeaves(t, []gridmon.Querier{leaf})...)})
	srv := gridmon.NewTransportServer()
	router.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	client, err := gridmon.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained, stop := context.WithCancel(ctx)
	stop()

	for _, sub := range []gridmon.Subscription{
		{System: gridmon.RGMA, Host: "lucky4", Expr: "SELECT * FROM siteinfo"},
		{System: gridmon.Hawkeye, Host: "lucky4"},
	} {
		source, err := leaf.Subscribe(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		relayed, err := client.Subscribe(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		events, fields := 0, 0
		for round := 0; round <= 3; round++ {
			if round > 0 {
				at := float64(1 + round)
				clock.Store(math.Float64bits(at))
				if err := leaf.Advance(at); err != nil {
					t.Fatal(err)
				}
			}
			for {
				seq, want, err := gridmon.NextSection(drained, source)
				if err != nil {
					break
				}
				gotSeq, got, err := gridmon.NextSection(ctx, relayed)
				if err != nil {
					t.Fatalf("%+v: event %d: %v", sub, seq, err)
				}
				if gotSeq != seq || got != want {
					t.Fatalf("%+v: event %d relayed as event %d with section\n%q\nthe source rendered\n%q", sub, seq, gotSeq, got, want)
				}
				d := binenc.NewDecString(want)
				for _, r := range core.DecodeRecords(&d) {
					fields = max(fields, len(r.Fields))
				}
				events++
			}
		}
		if events == 0 || fields < 4 {
			t.Fatalf("%+v: %d events, at most %d fields a record: nothing whose field order shows", sub, events, fields)
		}
		source.Close()
		relayed.Close()
	}
}
