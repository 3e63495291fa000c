package gridmon

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// NextSection is Next for tests outside the package: the next event's
// Seq and its record section as the stream holds it, undecoded.
func NextSection(ctx context.Context, st *Stream) (uint64, string, error) {
	ev, dropped, err := st.next(ctx)
	if dropped > 0 {
		return 0, "", &LagError{Dropped: dropped}
	}
	return ev.seq, ev.sec, err
}

// TestWireEventScratch: an event never aliases pooled scratch. Every
// source renders into the query path's pooled Answer (an MDS watcher
// into the watcher's own answers and a pooled section), the event keeps
// one copy, and a remote stream's events are views of one copy of the
// frame they arrived in. Each subscription is taken three times: in
// process and read after every round, which decodes each event before
// anything reuses the scratch it was rendered in; in process and left
// unread; and remote and left unread. Between rounds, queries reuse the
// answers pool in process, and the server's reply buffers and the
// client's frame buffers remotely. After four rounds every unread event
// must decode to what the event read at send time decoded to.
func TestWireEventScratch(t *testing.T) {
	var clock atomic.Uint64
	clock.Store(math.Float64bits(1))
	g, err := New(WithHosts(testHosts...), WithClock(func() float64 { return math.Float64frombits(clock.Load()) }))
	if err != nil {
		t.Fatal(err)
	}
	churnMDS(t, g) // MDS data moves: Puts and, as flicker9 comes and goes, Deletes
	remote := serveGrid(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	subs := []Subscription{
		{System: RGMA, Expr: "SELECT * FROM siteinfo"},
		{System: RGMA, Host: "lucky4", Expr: "SELECT host, value FROM siteinfo WHERE value >= 20", Attrs: []string{"value", "host"}},
		{System: Hawkeye, Expr: "TARGET.CpuLoad >= 0"},
		{System: MDS, Expr: "(objectclass=MdsHost)"},
	}
	type watch struct {
		read, unread, remote *Stream
		want                 []Event
	}
	watches := make([]watch, len(subs))
	for i, sub := range subs {
		sub.Buffer = 1 << 12
		w := &watches[i]
		for _, st := range []**Stream{&w.read, &w.unread} {
			if *st, err = g.Subscribe(ctx, sub); err != nil {
				t.Fatal(err)
			}
		}
		if w.remote, err = remote.Subscribe(ctx, sub); err != nil {
			t.Fatal(err)
		}
	}
	drained, stop := context.WithCancel(ctx)
	stop()
	read := func() {
		for i := range watches {
			w := &watches[i]
			for {
				ev, err := w.read.Next(drained)
				if err != nil {
					break
				}
				w.want = append(w.want, ev)
			}
		}
	}
	read() // the Hawkeye trigger fires at subscribe time
	queries := ScratchQueries()
	kinds := map[EventKind]bool{}
	for round := 1; round <= 4; round++ {
		at := float64(5*round + 1) // flicker9 reports in odd rounds of five seconds
		clock.Store(math.Float64bits(at))
		if err := g.Advance(at); err != nil {
			t.Fatal(err)
		}
		read()
		for _, q := range queries {
			g.Query(ctx, q)
			remote.Query(ctx, q)
		}
	}
	for i, w := range watches {
		if len(w.want) == 0 {
			t.Fatalf("%+v: no events", subs[i])
		}
		for _, ev := range w.want {
			kinds[ev.Kind] = true
		}
		for _, st := range []struct {
			name string
			st   *Stream
			ctx  context.Context
		}{{"in-process", w.unread, drained}, {"remote", w.remote, ctx}} {
			for j, want := range w.want {
				got, err := st.st.Next(st.ctx)
				if err != nil {
					t.Fatalf("%+v %s: event %d: %v", subs[i], st.name, j, err)
				}
				if got.Seq != want.Seq || got.Kind != want.Kind || !reflect.DeepEqual(got.Records, want.Records) {
					t.Fatalf("%+v %s: event %d read late is not the event at send time\ngot  %d %s %v\nwant %d %s %v",
						subs[i], st.name, j, got.Seq, got.Kind, got.Records, want.Seq, want.Kind, want.Records)
				}
			}
		}
	}
	for _, k := range []EventKind{EventPut, EventDelete, EventTrigger} {
		if !kinds[k] {
			t.Errorf("no %s event", k)
		}
	}
}

// TestWireEventAllocBudget: the server half of a served R-GMA event —
// the producer's batch run through the subscription's SELECT, rendered
// into the query path's pooled Answer, copied once into the event, and
// appended to the pump's batch as it is — costs the measured
// allocations +10%: the event's copy and its key prefix, and no Record
// or field map for the five records of four fields it carries. Measured
// with go1.24.0 linux/amd64: 2; 20 before events were kept as their
// record section (a buffer grown per event to render into, one copy of
// its text, the []Record and a map per record).
func TestWireEventAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops entries at random, so counts are not repeatable")
	}
	g := newTestGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := g.Subscribe(ctx, Subscription{System: RGMA, Host: "lucky4", Expr: "SELECT * FROM siteinfo"})
	if err != nil {
		t.Fatal(err)
	}
	p := g.servlets["lucky4"].Producers()[0]
	rows := p.Rows(1)
	var batch []byte
	var last event
	allocs := testing.AllocsPerRun(100, func() {
		p.Publish(rows)
		ev, _, err := st.next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		batch = appendWireEntry(batch[:0], &ev, 0)
		last = ev
	})
	if recs := last.decode().Records; len(recs) != len(rows) || len(recs[0].Fields) != 4 {
		t.Fatalf("the event carries %d records, want %d of 4 fields: %v", len(recs), len(rows), recs)
	}
	const budget = 2.2
	if allocs > budget {
		t.Errorf("a served R-GMA event's server half: %.1f allocs, budget %.1f", allocs, budget)
	}
}
