package gridmon

import (
	"context"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// TestRemoteGridSurvivesServerRestart is the client's view of the
// gridmon-live -data restart drill: the server is killed mid-session
// (listener and connections cut, durable grid abandoned without a
// goodbye snapshot — the kill -9 shape) and restarted on the same
// address over the same data directory. The resilient client must ride
// out the outage on its retry loop — reconnecting on its own, with no
// help from the test — and the recovered server must answer with the
// directory state the WAL preserved.
func TestRemoteGridSurvivesServerRestart(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	grid1 := buildDurableGrid(t, dir)
	srv1 := transport.NewServer()
	grid1.Serve(srv1)
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	remote, err := DialWith(addr, DialOptions{
		AttemptTimeout: time.Second,
		MaxRetries:     60,
		Backoff:        Backoff{Base: 20 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	q := Query{System: MDS, Role: RoleDirectoryServer}
	before, err := remote.Query(ctx, q)
	if err != nil {
		t.Fatalf("pre-restart query: %v", err)
	}
	if before.Len() == 0 {
		t.Fatal("pre-restart query returned no records")
	}

	// Crash: cut the wire and abandon the grid. No grid1.Close() — the
	// durable state must carry the restart on WAL + last snapshot alone.
	srv1.Close()

	// Restart after a real outage window, on the same address and data.
	type reopened struct {
		srv *transport.Server
		err error
	}
	restarted := make(chan reopened, 1)
	go func() {
		time.Sleep(200 * time.Millisecond)
		grid2, err := New(
			WithHosts(testHosts...),
			fixedClock(1),
			WithSystems(MDS, RGMA),
			WithStorage(dir),
		)
		if err != nil {
			restarted <- reopened{err: err}
			return
		}
		srv2 := transport.NewServer()
		grid2.Serve(srv2)
		if _, err := srv2.Listen(addr); err != nil {
			restarted <- reopened{err: err}
			return
		}
		restarted <- reopened{srv: srv2}
	}()

	// The client is on its own now: this query spans the outage, and
	// only the retry loop can land it.
	start := time.Now()
	after, err := remote.Query(ctx, q)
	gap := time.Since(start)
	if err != nil {
		t.Fatalf("query across the restart: %v", err)
	}
	r := <-restarted
	if r.err != nil {
		t.Fatalf("restart: %v", r.err)
	}
	t.Cleanup(r.srv.Close)

	if after.Len() != before.Len() {
		t.Errorf("recovered directory answered %d records, want %d (durable state lost?)",
			after.Len(), before.Len())
	}
	for i := range before.Records {
		if before.Records[i].Key != after.Records[i].Key {
			t.Errorf("record %d: key %q after restart, want %q", i, after.Records[i].Key, before.Records[i].Key)
		}
	}
	st := remote.ClientStats()
	if st.Reconnects < 1 || st.Retries < 1 {
		t.Errorf("client stats across the restart: %+v (want at least one retry and reconnect)", st)
	}
	t.Logf("client-observed recovery gap: %v (stats %+v)", gap, st)

	// The healed connection is a normal one: the next call is clean.
	if _, err := remote.Query(ctx, q); err != nil {
		t.Fatalf("post-recovery query: %v", err)
	}
}
