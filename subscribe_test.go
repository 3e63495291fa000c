package gridmon

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// steppedGrid builds a grid whose clock follows the *float64 the test
// steps before each Advance, so two independently built grids generate
// identical event streams.
func steppedGrid(t *testing.T, opts ...Option) (*Grid, *float64) {
	t.Helper()
	now := new(float64)
	grid, err := New(append([]Option{
		WithHosts(testHosts...),
		WithClock(func() float64 { return *now }),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return grid, now
}

// collectEvents reads exactly n events, failing the test if the stream
// errors or stalls first.
func collectEvents(t *testing.T, st *Stream, n int) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := make([]Event, 0, n)
	for len(out) < n {
		ev, err := st.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d/%d events: %v", len(out), n, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestSubscribeEquivalence is the push half of the v2 API's core
// contract: the same Subscription driven through the same Advance
// sequence yields the identical ordered event sequence — Seq, Time,
// Kind, Records and Work — in-process and over TCP, for all three
// systems.
func TestSubscribeEquivalence(t *testing.T) {
	leakcheck.Check(t)
	cases := []struct {
		name string
		sub  Subscription
		want int // events after subscribe + Advance(5) + Advance(10)
	}{
		// MDS polls-and-diffs the GIIS: the first poll snapshots every
		// matching entry as one Put; the cached directory then holds
		// steady, so no further events.
		{"MDS", Subscription{System: MDS, Expr: "(objectclass=MdsCpu)", PollEvery: 2}, 1},
		// R-GMA streams each producer's regenerated rows: 3 hosts x 3
		// producers = 9 Put events per Advance.
		{"RGMA", Subscription{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE value >= 0"}, 18},
		// A table name matches its producers' case-insensitively, as it
		// does in a query.
		{"RGMA folded table", Subscription{System: RGMA, Expr: "SELECT * FROM SiteInfo WHERE value >= 0"}, 18},
		// Hawkeye trigger matchmaking: 3 machines match at subscribe
		// time, then 3 more per advertise round.
		{"Hawkeye", Subscription{System: Hawkeye, Expr: "TARGET.CpuLoad >= 0"}, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local, localNow := steppedGrid(t)
			served, servedNow := steppedGrid(t)
			remote := serveGrid(t, served)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			inProc, err := local.Subscribe(ctx, tc.sub)
			if err != nil {
				t.Fatalf("in-process subscribe: %v", err)
			}
			overTCP, err := remote.Subscribe(ctx, tc.sub)
			if err != nil {
				t.Fatalf("over-TCP subscribe: %v", err)
			}
			for _, tick := range []float64{5, 10} {
				*localNow, *servedNow = tick, tick
				if err := local.Advance(tick); err != nil {
					t.Fatal(err)
				}
				if err := served.Advance(tick); err != nil {
					t.Fatal(err)
				}
			}
			localEvents := collectEvents(t, inProc, tc.want)
			remoteEvents := collectEvents(t, overTCP, tc.want)
			if !reflect.DeepEqual(localEvents, remoteEvents) {
				t.Errorf("event sequences differ\nin-process: %+v\nover TCP:   %+v",
					localEvents, remoteEvents)
			}
			for i, ev := range localEvents {
				if ev.Seq != uint64(i+1) {
					t.Errorf("event %d: seq = %d, want %d", i, ev.Seq, i+1)
				}
				if len(ev.Records) == 0 {
					t.Errorf("event %d carries no records", i)
				}
			}
			if inProc.Dropped() != 0 || overTCP.Dropped() != 0 {
				t.Errorf("drops on an unlagged stream: local %d, remote %d",
					inProc.Dropped(), overTCP.Dropped())
			}
		})
	}
}

// TestSubscribeAttrs: a subscription's Attrs narrows every event's
// records to exactly what projecting the unnarrowed event would keep —
// the push decoders select while decoding rather than after — and
// leaves Work alone.
func TestSubscribeAttrs(t *testing.T) {
	leakcheck.Check(t)
	cases := []struct {
		name  string
		sub   Subscription
		attrs []string
		want  int
	}{
		{"RGMA", Subscription{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE value >= 0"}, []string{"value", "host", "nosuch"}, 9},
		{"Hawkeye", Subscription{System: Hawkeye, Expr: "TARGET.CpuLoad >= 0"}, []string{"CpuLoad", "Name"}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			grid, now := steppedGrid(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			full, err := grid.Subscribe(ctx, tc.sub)
			if err != nil {
				t.Fatal(err)
			}
			narrowedSub := tc.sub
			narrowedSub.Attrs = tc.attrs
			narrowed, err := grid.Subscribe(ctx, narrowedSub)
			if err != nil {
				t.Fatal(err)
			}
			*now = 5
			if err := grid.Advance(5); err != nil {
				t.Fatal(err)
			}
			fullEvents := collectEvents(t, full, tc.want)
			for i, ev := range collectEvents(t, narrowed, tc.want) {
				want := fullEvents[i]
				projected := core.ProjectRecords(want.Records, tc.attrs)
				if !reflect.DeepEqual(ev.Records, projected) {
					t.Errorf("event %d: records %+v, want the projection %+v", i, ev.Records, projected)
				}
				if len(ev.Records[0].Fields) == 0 || len(ev.Records[0].Fields) >= len(want.Records[0].Fields) {
					t.Errorf("event %d: %d fields of %d — projection kept nothing or everything",
						i, len(ev.Records[0].Fields), len(want.Records[0].Fields))
				}
				if ev.Work != want.Work || ev.Kind != want.Kind {
					t.Errorf("event %d: work %+v kind %q, unnarrowed %+v %q", i, ev.Work, ev.Kind, want.Work, want.Kind)
				}
			}
		})
	}
}

// TestSubscribeKinds: each system's events carry its documented kind.
func TestSubscribeKinds(t *testing.T) {
	leakcheck.Check(t)
	grid, now := steppedGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mdsSt, err := grid.Subscribe(ctx, Subscription{System: MDS, Host: "lucky3"})
	if err != nil {
		t.Fatal(err)
	}
	rgmaSt, err := grid.Subscribe(ctx, Subscription{System: RGMA, Host: "lucky4"})
	if err != nil {
		t.Fatal(err)
	}
	hawkSt, err := grid.Subscribe(ctx, Subscription{System: Hawkeye, Host: "lucky7"})
	if err != nil {
		t.Fatal(err)
	}
	*now = 5
	if err := grid.Advance(5); err != nil {
		t.Fatal(err)
	}
	if ev := collectEvents(t, mdsSt, 1)[0]; ev.Kind != EventPut {
		t.Errorf("MDS event kind = %q, want %q", ev.Kind, EventPut)
	}
	if ev := collectEvents(t, rgmaSt, 1)[0]; ev.Kind != EventPut {
		t.Errorf("R-GMA event kind = %q, want %q", ev.Kind, EventPut)
	}
	ev := collectEvents(t, hawkSt, 1)[0]
	if ev.Kind != EventTrigger {
		t.Errorf("Hawkeye event kind = %q, want %q", ev.Kind, EventTrigger)
	}
	// The Host narrowing held: only lucky7's ads fired the trigger.
	if ev.Records[0].Key != "lucky7" {
		t.Errorf("Hawkeye trigger record key = %q, want lucky7", ev.Records[0].Key)
	}
}

// TestSubscribeLag: a consumer slower than its bounded buffer loses the
// overflow — with accounting — instead of growing the buffer without
// limit. The first Next after the overflow reports the loss once as a
// *LagError; buffered events then deliver with their original sequence
// numbers, so the gap is visible in Seq.
func TestSubscribeLag(t *testing.T) {
	leakcheck.Check(t)
	grid, now := steppedGrid(t, WithSystems(RGMA), WithRGMAProducers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := grid.Subscribe(ctx, Subscription{System: RGMA, Host: "lucky3", Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One producer on one host: one event per Advance. Four rounds
	// against a buffer of two drops the last two.
	for _, tick := range []float64{5, 10, 15, 20} {
		*now = tick
		if err := grid.Advance(tick); err != nil {
			t.Fatal(err)
		}
	}
	_, err = st.Next(ctx)
	if !errors.Is(err, ErrLagged) {
		t.Fatalf("first Next = %v, want ErrLagged", err)
	}
	var lag *LagError
	if !errors.As(err, &lag) || lag.Dropped != 2 {
		t.Fatalf("lag error = %#v, want 2 dropped", err)
	}
	evs := collectEvents(t, st, 2)
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("buffered seqs = %d, %d; want 1, 2", evs[0].Seq, evs[1].Seq)
	}
	if st.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", st.Dropped())
	}
	// The lag was reported once; delivery has resumed cleanly.
	*now = 25
	if err := grid.Advance(25); err != nil {
		t.Fatal(err)
	}
	ev, err := st.Next(ctx)
	if err != nil {
		t.Fatalf("Next after lag report: %v", err)
	}
	if ev.Seq != 5 {
		t.Errorf("post-lag seq = %d, want 5 (3 and 4 were dropped)", ev.Seq)
	}
}

// TestRemoteBufferFollowsServer: with no Buffer in the Subscription,
// the remote stream adopts the serving grid's bound, DefaultStreamBuffer
// (carried in the stream preamble), so lag behavior matches in-process;
// an explicit Buffer still wins.
func TestRemoteBufferFollowsServer(t *testing.T) {
	leakcheck.Check(t)
	served, _ := steppedGrid(t)
	remote := serveGrid(t, served)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := remote.Subscribe(ctx, Subscription{System: RGMA})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Buffer(); got != DefaultStreamBuffer {
		t.Errorf("remote buffer = %d, want the server's %d", got, DefaultStreamBuffer)
	}
	st2, err := remote.Subscribe(ctx, Subscription{System: RGMA, Buffer: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Buffer(); got != 3 {
		t.Errorf("explicit buffer = %d, want 3", got)
	}
}

// TestSubscribeBufferBounded: a Buffer over maxStreamBuffer is refused
// with ErrBadRequest before a channel is sized by it (1<<60 used to
// panic in make), and one at the maximum is the stream's bound.
func TestSubscribeBufferBounded(t *testing.T) {
	leakcheck.Check(t)
	grid, _ := steppedGrid(t, WithSystems(RGMA), WithRGMAProducers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, buffer := range []int{maxStreamBuffer + 1, 1 << 60, math.MaxInt} {
		st, err := grid.Subscribe(ctx, Subscription{System: RGMA, Buffer: buffer})
		if st != nil || transport.ErrorCode(err) != ErrBadRequest {
			t.Errorf("Buffer %d: stream %v, err %v, want bad_request", buffer, st, err)
		}
	}
	st, err := grid.Subscribe(ctx, Subscription{System: RGMA, Buffer: maxStreamBuffer})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Buffer(); got != maxStreamBuffer {
		t.Errorf("buffer = %d, want %d", got, maxStreamBuffer)
	}
}

// TestSubscribeTeardown: cancelling the subscribe context detaches every
// source — producer hubs, Manager triggers, MDS watchers — and Next
// reports the cancellation after the buffer drains.
func TestSubscribeTeardown(t *testing.T) {
	leakcheck.Check(t)
	grid, _ := steppedGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	subs := make([]*Stream, 0, 3)
	for _, sub := range []Subscription{
		{System: MDS},
		{System: RGMA},
		{System: Hawkeye, Expr: "TARGET.CpuLoad > 1e9"},
	} {
		st, err := grid.Subscribe(ctx, sub)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, st)
	}
	_, _, servlets := grid.RGMA()
	if got := servlets["lucky3"].Producers()[0].Subscribers(); got != 1 {
		t.Fatalf("producer subscribers before cancel = %d", got)
	}
	mgr, _ := grid.HawkeyePool()
	if got := mgr.NumTriggers(); got != 1 {
		t.Fatalf("triggers before cancel = %d", got)
	}

	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		grid.mu.Lock()
		watchers := len(grid.watchers)
		grid.mu.Unlock()
		if watchers == 0 && mgr.NumTriggers() == 0 &&
			servlets["lucky3"].Producers()[0].Subscribers() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sources still attached after cancel: watchers=%d triggers=%d subs=%d",
				watchers, mgr.NumTriggers(), servlets["lucky3"].Producers()[0].Subscribers())
		}
		time.Sleep(time.Millisecond)
	}
	for i, st := range subs {
		if _, err := st.Next(context.Background()); !errors.Is(err, context.Canceled) {
			t.Errorf("stream %d Next after cancel = %v, want context.Canceled", i, err)
		}
		if st.Err() == nil {
			t.Errorf("stream %d Err() = nil after cancel", i)
		}
	}
}

// TestStreamClose: the consumer hanging up via Close detaches sources
// and surfaces ErrStreamClosed.
func TestStreamClose(t *testing.T) {
	leakcheck.Check(t)
	grid, _ := steppedGrid(t, WithSystems(Hawkeye))
	st, err := grid.Subscribe(context.Background(), Subscription{
		System: Hawkeye, Expr: "TARGET.CpuLoad > 1e9"})
	if err != nil {
		t.Fatal(err)
	}
	mgr, _ := grid.HawkeyePool()
	st.Close()
	deadline := time.Now().Add(5 * time.Second)
	for mgr.NumTriggers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("trigger still installed after Close")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := st.Next(context.Background()); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Next after Close = %v, want ErrStreamClosed", err)
	}
}

// TestRemoteSubscribeCancel: cancelling a remote subscription's context
// propagates over the wire — the server detaches its sources — and the
// client stream terminates with the cancellation.
func TestRemoteSubscribeCancel(t *testing.T) {
	leakcheck.Check(t)
	served, servedNow := steppedGrid(t)
	remote := serveGrid(t, served)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := remote.Subscribe(ctx, Subscription{System: RGMA})
	if err != nil {
		t.Fatal(err)
	}
	*servedNow = 5
	if err := served.Advance(5); err != nil {
		t.Fatal(err)
	}
	collectEvents(t, st, 9)
	cancel()
	_, _, servlets := served.RGMA()
	deadline := time.Now().Add(5 * time.Second)
	for servlets["lucky3"].Producers()[0].Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("server-side subscription still attached after client cancel")
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer drainCancel()
	for {
		_, err := st.Next(drainCtx)
		if err == nil {
			continue // events buffered before the cancel still deliver
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("terminal error = %v, want context.Canceled", err)
		}
		break
	}
}

// TestDiffRecords: the MDS watcher's diff classifies new, changed and
// vanished records by their bytes, each sorted by key.
func TestDiffRecords(t *testing.T) {
	leakcheck.Check(t)
	rec := func(key, v string) Record { return Record{Key: key, Fields: map[string]string{"v": v}} }
	w := &mdsWatcher{st: newStream(Subscription{}, 8)}
	over, stop := context.WithCancel(context.Background())
	stop()
	poll := func(recs ...Record) (events []Event) {
		w.cur.Enc = core.AppendRecords(w.cur.Enc[:0], recs)
		w.diff(1, Work{RecordsVisited: 9})
		w.prev, w.cur = w.cur, w.prev
		for {
			ev, err := w.st.Next(over)
			if err != nil {
				return events
			}
			events = append(events, Event{Kind: ev.Kind, Records: ev.Records, Work: ev.Work})
		}
	}
	want := []Event{{Kind: EventPut, Records: []Record{rec("a", "1"), rec("b", "2"), rec("c", "3")}, Work: Work{RecordsVisited: 9}}}
	if got := poll(rec("c", "3"), rec("a", "1"), rec("b", "2")); !reflect.DeepEqual(got, want) {
		t.Errorf("first poll: %+v, want %+v", got, want)
	}
	want = []Event{
		{Kind: EventPut, Records: []Record{rec("b", "99"), rec("d", "4")}, Work: Work{RecordsVisited: 9}},
		{Kind: EventDelete, Records: []Record{{Key: "a"}}, Work: Work{RecordsReturned: 1}},
	}
	if got := poll(rec("d", "4"), rec("c", "3"), rec("b", "99")); !reflect.DeepEqual(got, want) {
		t.Errorf("second poll: %+v, want changed b and new d, then vanished a", got)
	}
	if got := poll(rec("b", "99"), rec("c", "3"), rec("d", "4")); len(got) != 0 {
		t.Errorf("unchanged poll: %+v, want no events", got)
	}
}

// TestMDSReplyBytesAreStable: two freshly built grids serve the MDS
// cells of allocBudgetCells byte for byte alike, Elapsed aside. The MDS
// watcher diffs records on their bytes, so an entry whose attribute
// order changed from one provider run to the next would be sent as
// changed.
func TestMDSReplyBytesAreStable(t *testing.T) {
	a, b := newTestGrid(t), newTestGrid(t)
	for _, cell := range allocBudgetCells {
		if cell.q.System != MDS {
			continue
		}
		var replies [2][]byte
		for i, g := range []*Grid{a, b} {
			reply, err := g.AppendQuery(context.Background(), cell.q, nil)
			if err != nil {
				t.Fatalf("%s: %v", cellName(cell.q), err)
			}
			replies[i] = StampElapsed(reply, 0, 0)
		}
		if !bytes.Equal(replies[0], replies[1]) {
			t.Errorf("%s: two grids serve different bytes", cellName(cell.q))
		}
	}
}

// TestMDSPollAllocs: a due poll of an MDS watcher over a GRIS whose data
// has not changed allocates nothing: the query renders into the answer
// the watcher owns, and the diff walks pooled scratch and sends nothing.
func TestMDSPollAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	grid, now := steppedGrid(t, WithSystems(MDS))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := grid.Subscribe(ctx, Subscription{System: MDS, Host: "lucky4", Expr: "(objectclass=*)"})
	if err != nil {
		t.Fatal(err)
	}
	*now = 5
	poll := func() {
		grid.mu.Lock()
		grid.pollWatchersLocked(*now)
		grid.mu.Unlock()
	}
	poll()
	collectEvents(t, st, 1)
	if allocs := testing.AllocsPerRun(100, poll); allocs != 0 {
		t.Errorf("a due poll over an unchanged GRIS: %.0f allocs, want 0", allocs)
	}
	if st.Dropped() != 0 || len(st.ch) != 0 {
		t.Errorf("an unchanged GRIS sent events: %d buffered, %d dropped", len(st.ch), st.Dropped())
	}
}

// TestMDSWatchPollInterval: PollEvery gates how often the watcher
// re-queries the directory.
func TestMDSWatchPollInterval(t *testing.T) {
	leakcheck.Check(t)
	grid, now := steppedGrid(t, WithSystems(MDS))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := grid.Subscribe(ctx, Subscription{System: MDS, PollEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	// First Advance polls (initial snapshot); the next due poll is at
	// t+10, so the Advance at t=7 must not poll again even though the
	// directory is unchanged — watch the watcher's schedule directly.
	*now = 5
	grid.Advance(5)
	collectEvents(t, st, 1)
	grid.mu.Lock()
	next := grid.watchers[0].nextPoll
	grid.mu.Unlock()
	if next != 15 {
		t.Errorf("nextPoll after first poll at t=5 = %v, want 15", next)
	}
	*now = 7
	grid.Advance(7)
	grid.mu.Lock()
	next = grid.watchers[0].nextPoll
	grid.mu.Unlock()
	if next != 15 {
		t.Errorf("nextPoll after off-cadence Advance = %v, want 15", next)
	}
	*now = 15
	grid.Advance(15)
	grid.mu.Lock()
	next = grid.watchers[0].nextPoll
	grid.mu.Unlock()
	if next != 25 {
		t.Errorf("nextPoll after due poll at t=15 = %v, want 25", next)
	}
}

// TestAdvanceConcurrentWithLegacyOps is the -race regression for the
// gridmon-live configuration: the background Advance pump mutating
// sensors and caches while remote clients ask the same components what
// the retired param-based ops (rgma.query, mds.query, hawkeye.query)
// used to ask them, now as grid.query. The clients are readers under
// the facade's lock (beginRead); the pump is its writer. Unlike
// TestConcurrentRemoteQueryWithAdvance the clock is fixed, so the
// Advance tick alone drives sensor regeneration while handlers read it.
func TestAdvanceConcurrentWithLegacyOps(t *testing.T) {
	leakcheck.Check(t)
	grid, _ := steppedGrid(t)
	srv := transport.NewServer()
	grid.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// The pump: continuous monitoring rounds, as gridmon-live's -advance
	// loop runs them.
	done := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		for tick := 1.0; ; tick++ {
			select {
			case <-done:
				return
			default:
			}
			if err := grid.Advance(tick); err != nil {
				t.Errorf("advance: %v", err)
				return
			}
		}
	}()
	// The clients: one per system, hammering the same components.
	queries := []Query{
		{System: RGMA, Expr: "SELECT host, value FROM siteinfo"},
		{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)"},
		{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.CpuLoad >= 0"},
	}
	var queryWG sync.WaitGroup
	for _, q := range queries {
		queryWG.Add(1)
		go func(q Query) {
			defer queryWG.Done()
			client, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			for i := 0; i < 25; i++ {
				res, err := client.Query(context.Background(), q)
				if err != nil {
					t.Errorf("%s query: %v", q.System, err)
					return
				}
				if len(res.Records) == 0 {
					t.Errorf("%s query %q: no records", q.System, q.Expr)
					return
				}
			}
		}(q)
	}
	finished := make(chan struct{})
	go func() {
		queryWG.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("grid.query vs Advance did not finish")
	}
	close(done)
	pumpWG.Wait()
}

// cancelAfterCtx is a context whose Err flips to Canceled after n
// checks — a deterministic probe that cancellation is honored DURING
// query execution, between the entry check and the exit.
type cancelAfterCtx struct {
	context.Context
	calls int32
	after int32
}

func (c *cancelAfterCtx) Err() error {
	if atomic.AddInt32(&c.calls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestQueryMidExecutionCancellation: a context that expires after
// Grid.Query's entry check still stops the query — the serving
// component checks it mid-flight — and the failure carries the
// canceled code.
func TestQueryMidExecutionCancellation(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t)
	for _, q := range []Query{
		{System: MDS, Role: RoleAggregateServer},
		{System: RGMA},
		{System: Hawkeye, Role: RoleAggregateServer},
	} {
		ctx := &cancelAfterCtx{Context: context.Background(), after: 1}
		_, err := grid.Query(ctx, q)
		if err == nil || CodeOf(err) != ErrCanceled {
			t.Errorf("%s: err = %v (code %v), want canceled", q.System, err, CodeOf(err))
		}
	}
}
