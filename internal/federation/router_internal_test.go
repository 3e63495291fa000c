package federation

import (
	"testing"

	gridmon "repro"
)

// TestSnapshotAllocatesNothing: every query snapshots the map and its
// clients, so the snapshot must be the epoch's own slices, built once by
// New or SetMap, naming the clients of exactly the map's addresses.
func TestSnapshotAllocatesNothing(t *testing.T) {
	first, err := ParseShardMap("a:1/b:1,c:1")
	if err != nil {
		t.Fatal(err)
	}
	second, err := ParseShardMap("c:1,d:1/a:1,e:1")
	if err != nil {
		t.Fatal(err)
	}
	second.Epoch = 2
	r, err := New(Config{Map: first})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, m := range []ShardMap{first, second} {
		if i > 0 {
			if err := r.SetMap(m); err != nil {
				t.Fatal(err)
			}
		}
		var backends [][]*gridmon.RemoteGrid
		if n := testing.AllocsPerRun(100, func() { _, backends = r.snapshot() }); n != 0 {
			t.Errorf("epoch %d: a snapshot allocates %.0f times", m.Epoch, n)
		}
		if len(backends) != len(m.Shards) {
			t.Fatalf("epoch %d: %d shards resolved, want %d", m.Epoch, len(backends), len(m.Shards))
		}
		for s, sh := range m.Shards {
			if len(backends[s]) != len(sh.Addrs) {
				t.Fatalf("epoch %d shard %d: %d clients for %v", m.Epoch, s, len(backends[s]), sh.Addrs)
			}
			for j, addr := range sh.Addrs {
				if got := backends[s][j].Addr(); got != addr {
					t.Errorf("epoch %d shard %d replica %d: client for %s, want %s", m.Epoch, s, j, got, addr)
				}
			}
		}
	}
}
