package gridmon_test

import (
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/federation"
)

// TestV3ScratchFrames: the grid.query handler lends every answer pooled
// scratch and takes it back once the frame is encoded, yet no frame
// carries anything of the answers served before it. Each source serves
// every alloc-budget and stress shape, the Agent miss with no record
// slice among them, largest answer first, shuffled and concurrently (see
// CheckV3ScratchFrames): an uncached Grid, a cached Grid answering hits
// (copied from the answer the entry owns), one whose entries expire at
// once, so every query is a miss rendered into a new entry's answer, and
// a Router over three loopback leaves, which decodes a routed answer
// straight into the scratch and merges a broad one into it.
func TestV3ScratchFrames(t *testing.T) {
	hosts := []string{"lucky3", "lucky4", "lucky7"}
	grid := func(hosts []string, opts ...gridmon.Option) *gridmon.Grid {
		g, err := gridmon.New(append([]gridmon.Option{
			gridmon.WithHosts(hosts...), gridmon.WithClock(func() float64 { return 1 }),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	queries := gridmon.ScratchQueries()
	t.Run("grid", func(t *testing.T) {
		gridmon.CheckV3ScratchFrames(t, grid(hosts), queries)
	})
	t.Run("cache-hits", func(t *testing.T) {
		gridmon.CheckV3ScratchFrames(t, grid(hosts, gridmon.WithQueryCache(time.Hour)), queries)
	})
	t.Run("cache-misses", func(t *testing.T) {
		gridmon.CheckV3ScratchFrames(t, grid(hosts, gridmon.WithQueryCache(time.Nanosecond)), queries)
	})
	t.Run("router", func(t *testing.T) {
		// Two hosts a shard, so each of the three leaves owns some.
		all := append(hosts, "lucky5", "lucky6", "lucky8", "lucky9")
		parts := federation.ShardMap{Epoch: 1, Shards: make([]federation.Shard, 3)}.PartitionHosts(all)
		addrs := make([]string, len(parts))
		for i, part := range parts {
			if len(part) == 0 {
				t.Fatalf("shard %d owns none of %v", i, all)
			}
			srv := gridmon.NewTransportServer()
			grid(part).Serve(srv)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			addrs[i] = addr
		}
		router, err := federation.New(federation.Config{Map: federation.NewShardMap(addrs...)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { router.Close() })
		gridmon.CheckV3ScratchFrames(t, router, queries)
	})
}
