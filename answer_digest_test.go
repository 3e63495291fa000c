package gridmon_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	gridmon "repro"
	"repro/internal/federation"
)

var updateAnswers = flag.Bool("update", false, "rewrite testdata/answers.sum from the answers served now")

// answersFile is the checked-in digest of AnswerCorpus's answers.
const answersFile = "testdata/answers.sum"

// TestAnswerDigest serves AnswerCorpus four ways — in-process, over a
// loopback v3 server, through a federation Router over three loopback
// leaves, and through such a Router served on loopback itself — and, on
// grids whose clock moves, the stress mix before and after each of
// three Advance rounds. It also subscribes SubscriptionCorpus
// (digestSubscriptions). Per way and group it
// records how many queries ran and a sha256 over each answer's records
// as JSON (encoding/json sorts the field names), its Work, and its error
// code and text (a leaf's address replaced by its shard number); Elapsed
// is left out. The lines must equal testdata/answers.sum, which -update
// rewrites: a change that means to keep every answer leaves the file as
// it is.
func TestAnswerDigest(t *testing.T) {
	groups := gridmon.AnswerCorpus(t)
	var lines []string
	for _, w := range digestWays(t, func() float64 { return 1 }) {
		for _, g := range groups {
			lines = append(lines, digestLine(t, w, g.Name, g.Queries))
		}
	}

	// The Advance group: every way's grids step through three monitoring
	// rounds, answering the stress mix before the first and after each.
	var clock atomic.Uint64
	clock.Store(math.Float64bits(1))
	now := func() float64 { return math.Float64frombits(clock.Load()) }
	stress := groups[1].Queries
	for _, w := range digestWays(t, now) {
		clock.Store(math.Float64bits(1))
		var rounds []string
		for round := 0; round <= 3; round++ {
			if round > 0 {
				at := float64(1 + round)
				clock.Store(math.Float64bits(at))
				for _, g := range w.grids {
					if err := g.Advance(at); err != nil {
						t.Fatal(err)
					}
				}
			}
			rounds = append(rounds, digestSum(t, w, stress))
		}
		lines = append(lines, fmt.Sprintf("%s/advance %d %x", w.name, 4*len(stress), sha256.Sum256([]byte(strings.Join(rounds, "")))))
	}

	clock.Store(math.Float64bits(1))
	lines = append(lines, digestSubscriptions(t, &clock)...)

	got := strings.Join(lines, "\n") + "\n"
	if *updateAnswers {
		if err := os.WriteFile(answersFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(answersFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestAnswerDigest -update . to create it)", err)
	}
	if got != string(want) {
		t.Errorf("the answers differ from %s\ngot:\n%swant:\n%s", answersFile, got, want)
	}
}

// digestWay is one way of serving the corpus: the source answering, the
// grids behind it (stepped by Advance), and the leaf addresses its error
// texts may name.
type digestWay struct {
	name   string
	source gridmon.Querier
	grids  []*gridmon.Grid
	addrs  []string
}

// digestWays builds the four ways over scratchHosts on clock now.
func digestWays(t *testing.T, now func() float64) []digestWay {
	t.Helper()
	grid := func(hosts []string) *gridmon.Grid {
		g, err := gridmon.New(gridmon.WithHosts(hosts...), gridmon.WithClock(now))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	inProcess := grid(scratchHosts)
	served := grid(scratchHosts)
	srv := gridmon.NewTransportServer()
	served.Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	remote, err := gridmon.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })

	// Each Router has leaves of its own: a way's rounds step its grids.
	routerWay := func(name string) digestWay {
		smap := federation.ShardMap{Epoch: 1, Shards: make([]federation.Shard, 3)}
		var leaves []*gridmon.Grid
		var sources []gridmon.Querier
		for _, part := range smap.PartitionHosts(scratchHosts) {
			leaf := grid(part)
			leaves = append(leaves, leaf)
			sources = append(sources, leaf)
		}
		addrs := serveLeaves(t, sources)
		router := newRouter(t, federation.Config{Map: federation.NewShardMap(addrs...)})
		return digestWay{name: name, source: router, grids: leaves, addrs: addrs}
	}
	servedRouter := routerWay("served-router")
	rsrv := gridmon.NewTransportServer()
	servedRouter.source.(*federation.Router).Serve(rsrv)
	raddr, err := rsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rsrv.Close)
	if servedRouter.source, err = gridmon.Dial(raddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { servedRouter.source.(*gridmon.RemoteGrid).Close() })
	return []digestWay{
		{name: "in-process", source: inProcess, grids: []*gridmon.Grid{inProcess}},
		{name: "remote", source: remote, grids: []*gridmon.Grid{served}},
		routerWay("router"),
		servedRouter,
	}
}

// digestLine is the line of one way and group: its name, the number of
// queries and the sha256 of their answers.
func digestLine(t *testing.T, w digestWay, group string, qs []gridmon.Query) string {
	t.Helper()
	return fmt.Sprintf("%s/%s %d %x", w.name, group, len(qs), sha256.Sum256([]byte(digestSum(t, w, qs))))
}

// digestSum renders the answers w gives qs, one block per query.
func digestSum(t *testing.T, w digestWay, qs []gridmon.Query) string {
	t.Helper()
	var sb strings.Builder
	for _, q := range qs {
		rs, err := w.source.Query(context.Background(), q)
		if err != nil {
			msg := err.Error()
			for i, a := range w.addrs {
				msg = strings.ReplaceAll(msg, a, fmt.Sprintf("leaf%d", i))
			}
			fmt.Fprintf(&sb, "error %s %q\n", gridmon.CodeOf(err), msg)
			continue
		}
		recs, err := json.Marshal(rs.Records)
		if err != nil {
			t.Fatal(err)
		}
		work, err := json.Marshal(rs.Work)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s\n%s\n", recs, work)
	}
	return sb.String()
}

// digestSubscriptions subscribes every SubscriptionCorpus group each
// way a query is served (digestWays), steps every way's grids through
// three Advance rounds on clock, and returns one line per way and group:
// its name, the number of subscriptions and the sha256 of what each saw
// — the code it was refused with (a Router refuses a subscription with
// no Host), or per round the kind, records as JSON and Work of each
// event, and the code its stream ended with. Every other way's stream is
// read for as many events as the in-process one buffered that round,
// which an in-process source sends before Advance returns.
func digestSubscriptions(t *testing.T, clock *atomic.Uint64) []string {
	t.Helper()
	now := func() float64 { return math.Float64frombits(clock.Load()) }
	ways := digestWays(t, now)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type watch struct {
		group   int
		streams []*gridmon.Stream
		sums    []strings.Builder
	}
	groups := gridmon.SubscriptionCorpus()
	var watches []*watch
	for gi, g := range groups {
		for _, sub := range g.Subs {
			w := &watch{group: gi, streams: make([]*gridmon.Stream, len(ways)), sums: make([]strings.Builder, len(ways))}
			for i, way := range ways {
				st, err := way.source.(gridmon.Subscriber).Subscribe(ctx, sub)
				if err != nil {
					fmt.Fprintf(&w.sums[i], "refused %s\n", gridmon.CodeOf(err))
					continue
				}
				w.streams[i] = st
			}
			watches = append(watches, w)
		}
	}
	over, stop := context.WithCancel(context.Background())
	stop()
	for round := 0; round <= 3; round++ {
		if round > 0 {
			at := float64(1 + round)
			clock.Store(math.Float64bits(at))
			for _, way := range ways {
				for _, g := range way.grids {
					if err := g.Advance(at); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, w := range watches {
			local := w.streams[0]
			if local == nil {
				continue
			}
			var n int
			for {
				ev, err := local.Next(over)
				if err != nil {
					break
				}
				n++
				digestEvent(t, &w.sums[0], round, ev)
			}
			end := local.Err()
			if end != nil {
				fmt.Fprintf(&w.sums[0], "end %s\n", gridmon.CodeOf(end))
				w.streams[0] = nil
			}
			for i := 1; i < len(ways); i++ {
				if w.streams[i] == nil {
					continue
				}
				wait, done := context.WithTimeout(ctx, 10*time.Second)
				for j := 0; j < n; j++ {
					ev, err := w.streams[i].Next(wait)
					if err != nil {
						fmt.Fprintf(&w.sums[i], "end %s\n", gridmon.CodeOf(err))
						w.streams[i] = nil
						break
					}
					digestEvent(t, &w.sums[i], round, ev)
				}
				if end != nil && w.streams[i] != nil {
					_, err := w.streams[i].Next(wait)
					fmt.Fprintf(&w.sums[i], "end %s\n", gridmon.CodeOf(err))
					w.streams[i] = nil
				}
				done()
			}
		}
	}
	var lines []string
	for i, way := range ways {
		for gi, g := range groups {
			var sb strings.Builder
			for _, w := range watches {
				if w.group == gi {
					sb.WriteString(w.sums[i].String())
					sb.WriteString("--\n")
				}
			}
			lines = append(lines, fmt.Sprintf("%s/%s %d %x", way.name, g.Name, len(g.Subs), sha256.Sum256([]byte(sb.String()))))
		}
	}
	return lines
}

// digestEvent renders one event of round into sb.
func digestEvent(t *testing.T, sb *strings.Builder, round int, ev gridmon.Event) {
	t.Helper()
	recs, err := json.Marshal(ev.Records)
	if err != nil {
		t.Fatal(err)
	}
	work, err := json.Marshal(ev.Work)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(sb, "%d %s %s %s\n", round, ev.Kind, recs, work)
}
