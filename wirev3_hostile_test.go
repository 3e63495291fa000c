package gridmon

import (
	"context"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/leakcheck"
	"repro/internal/transport"
)

// hugeCountQueryFrame is a grid.query body of four empty strings
// (System, Role, Host, Expr), then an Attrs count with no strings behind
// it. With a count of 1<<62 it is 13 bytes.
func hugeCountQueryFrame(count uint64) []byte {
	return binenc.AppendUvarint([]byte{0, 0, 0, 0}, count)
}

// wireDecKinds are the two ways a frame's strings are read; the typed
// decoders must behave the same over both.
var wireDecKinds = []func([]byte) binenc.Dec{binenc.NewDec, binenc.NewDecText}

// TestWireHugeCountIsBadRequest: a count read off the wire is bounded by
// the bytes left in the frame before anything is sized by it. The
// 13-byte frame used to reach make([]string, 1<<62) on the server — a
// panic nothing recovered, so any client could kill the process (and
// 1<<30 instead asked for 16 GB). It must be an ordinary typed
// bad_request, as a JSON-bodied grid.query is, and the server must keep
// serving.
func TestWireHugeCountIsBadRequest(t *testing.T) {
	srv := transport.NewServer()
	newTestGrid(t).Serve(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ctx := context.Background()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMuxClient(conn, 0)
	defer mux.Close()

	hostile := [][]byte{hugeCountQueryFrame(1 << 62), hugeCountQueryFrame(1 << 30)}
	if len(hostile[0]) != 13 {
		t.Fatalf("frame is %d bytes", len(hostile[0]))
	}
	for _, body := range hostile {
		err = mux.CallV3(ctx, "grid.query",
			func(b []byte) []byte { return append(b, body...) },
			func([]byte) error { t.Error("the hostile frame was answered"); return nil })
		if transport.ErrorCode(err) != transport.CodeBadRequest {
			t.Fatalf("body %x: err = %v, want bad_request", body, err)
		}
	}
	// grid.query speaks only the binary codec: a JSON-bodied one — what
	// a client from before the op went binary-only sends — never reaches
	// the grid, and is a bad_request naming the op.
	q := Query{System: Hawkeye, Role: RoleDirectoryServer}
	var rs ResultSet
	err = mux.CallJSON(ctx, "grid.query", q, &rs)
	if transport.ErrorCode(err) != transport.CodeBadRequest || !strings.Contains(err.Error(), `"grid.query"`) {
		t.Fatalf("JSON-bodied grid.query: err = %v, want bad_request naming the op", err)
	}
	if rs.Records != nil {
		t.Fatalf("JSON-bodied grid.query was answered with %d records", len(rs.Records))
	}
	// Same connection, same server: the next call is answered.
	err = mux.CallV3(ctx, "grid.query",
		func(b []byte) []byte { return appendWireQuery(b, q) },
		func(body []byte) error {
			d := binenc.NewDecText(body)
			decodeWireResultSetInto(&d, &rs)
			return d.Err()
		})
	if err != nil || len(rs.Records) == 0 {
		t.Fatalf("call after the hostile frames: %d records, err %v", len(rs.Records), err)
	}
}

// TestWireDeepNestingIsParseError: an expression nested a few million
// levels deep fits in one frame and, before the parsers bounded their
// recursion, overflowed the goroutine stack — a fatal error, not a
// panic, so one grid.query killed the server. Each system's parser must
// refuse it with the code parse errors carry, and the server must keep serving
// on the same connection. A flat chain (a=1 OR a=1 OR …) is parsed in a
// loop but builds one tree level per link, which compiling and
// evaluating it recurse through, so it is held to the same bound: 1,000
// links answer, 1,001 are refused.
func TestWireDeepNestingIsParseError(t *testing.T) {
	remote := serveGrid(t, newTestGrid(t))
	ctx := context.Background()
	sqlChain := func(links int) string {
		return "SELECT * FROM siteinfo WHERE value > 1" + strings.Repeat(" OR value > 1", links)
	}
	adChain := func(links int) string { return "true" + strings.Repeat(" && true", links) }
	for _, tc := range []struct {
		q    Query
		code transport.Code
	}{
		{Query{System: MDS, Role: RoleAggregateServer, Expr: strings.Repeat("(&", 4<<20)}, transport.CodeParse},
		{Query{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE " + strings.Repeat("(", 4<<20) + "value > 1"}, transport.CodeParse},
		// The ClassAd lexer reads all of an expression before parsing,
		// so this one is smaller: 64 Ki levels would parse unbounded.
		{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: strings.Repeat("(", 64<<10) + "true" + strings.Repeat(")", 64<<10)}, transport.CodeParse},
		{Query{System: RGMA, Expr: sqlChain(1001)}, transport.CodeParse},
		{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: adChain(1001)}, transport.CodeParse},
	} {
		_, err := remote.Query(ctx, tc.q)
		if transport.ErrorCode(err) != tc.code || !strings.Contains(err.Error(), "nested deeper than") {
			t.Fatalf("%s: err = %v, want %s and the nesting bound", tc.q.System, err, tc.code)
		}
	}
	for _, q := range []Query{
		{System: RGMA, Expr: sqlChain(1000)},
		{System: Hawkeye, Role: RoleAggregateServer, Expr: adChain(1000)},
	} {
		if rs, err := remote.Query(ctx, q); err != nil || len(rs.Records) == 0 {
			t.Fatalf("%s chain of 1,000 links: %v", q.System, err)
		}
	}
	rs, err := remote.Query(ctx, Query{System: Hawkeye, Role: RoleDirectoryServer})
	if err != nil || len(rs.Records) == 0 {
		t.Fatalf("query after the nested ones: %v", err)
	}
}

// TestWireHostileLikeIsAnswered: a LIKE pattern is user text, and a few
// MiB of it fit in one frame. The matcher used to recurse once per
// pattern rune, so 4 Mi of % overflowed the goroutine stack — a fatal
// error, so one grid.query killed the server — and it built a memo map
// per row. Each pattern below matches no host and must be answered so,
// within 2 s, and the server must keep serving on the same connection.
func TestWireHostileLikeIsAnswered(t *testing.T) {
	remote := serveGrid(t, newTestGrid(t))
	ctx := context.Background()
	for name, pattern := range map[string]string{
		"4 Mi %":  strings.Repeat("%", 4<<20) + "x",
		"2 Mi %a": strings.Repeat("%a", 2<<20),
	} {
		start := time.Now()
		rs, err := remote.Query(ctx, Query{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE host LIKE '" + pattern + "'"})
		if err != nil || len(rs.Records) != 0 {
			t.Fatalf("%s: %d records, err %v", name, len(rs.Records), err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: answered in %v, want within 2 s", name, d)
		}
	}
	rs, err := remote.Query(ctx, Query{System: RGMA, Expr: "SELECT host FROM siteinfo WHERE host LIKE 'LUCKY_-SENSOR%'"})
	if err != nil || len(rs.Records) == 0 {
		t.Fatalf("query after the hostile patterns: %d records, err %v", len(rs.Records), err)
	}
}

// TestWireHugeCountsEverywhere: every count the decoders size something
// by — record, field, branch, string-slice and batch-entry counts — is
// refused as malformed when the frame cannot hold that many.
func TestWireHugeCountsEverywhere(t *testing.T) {
	const huge = 1 << 62
	str := func(b []byte, ss ...string) []byte {
		for _, s := range ss {
			b = binenc.AppendString(b, s)
		}
		return b
	}
	work := appendWireWork(nil, &Work{})
	tail := append(append([]byte{}, work...), 0, 0) // elapsed, partial
	frames := map[string]struct {
		body   []byte
		decode func(*binenc.Dec)
	}{
		"query attrs": {hugeCountQueryFrame(huge),
			func(d *binenc.Dec) { decodeWireQueryInto(d, new(Query)) }},
		"subscription attrs": {hugeCountQueryFrame(huge),
			func(d *binenc.Dec) { decodeWireSubscriptionInto(d, new(Subscription)) }},
		"records": {binenc.AppendUvarint(str(nil, "", "", ""), huge),
			func(d *binenc.Dec) { decodeWireResultSetInto(d, new(ResultSet)) }},
		"fields": {binenc.AppendUvarint(str(binenc.AppendUvarint(str(nil, "", "", ""), 2), "k"), huge),
			func(d *binenc.Dec) { decodeWireResultSetInto(d, new(ResultSet)) }},
		"branches": {binenc.AppendUvarint(append(binenc.AppendUvarint(str(nil, "", "", ""), 0), tail...), huge),
			func(d *binenc.Dec) { decodeWireResultSetInto(d, new(ResultSet)) }},
	}
	for name, f := range frames {
		for _, newDec := range wireDecKinds {
			d := newDec(f.body)
			f.decode(&d)
			if transport.ErrorCode(d.Err()) != transport.CodeBadRequest {
				t.Errorf("%s: err = %v, want bad_request", name, d.Err())
			}
		}
	}
	for name, batch := range map[string][]byte{
		"batch entries": binenc.AppendUvarint(nil, huge),
		"event records": binenc.AppendUvarint(str(binenc.AppendFloat64(binenc.AppendUvarint([]byte{1, wireEntryEvent}, 1), 0), "put"), huge),
	} {
		err := decodeWireBatch(batch, nil, nil)
		if transport.ErrorCode(err) != transport.CodeBadRequest {
			t.Errorf("%s: err = %v, want bad_request", name, err)
		}
	}
}

// TestWireSubscribePreambleAlone: a stream's first frame is the buffer
// preamble alone, as ServeSubscribe sends it. A first frame that is
// anything else — an event beside the preamble, a lag report, an event
// batch, trailing bytes, a bound of 0, nothing — fails the subscribe
// with a typed protocol error, and none of what it carried is delivered.
func TestWireSubscribePreambleAlone(t *testing.T) {
	preamble := func(entries uint64) []byte {
		return binenc.AppendUvarint(append(binenc.AppendUvarint(nil, entries), wireEntryBuffer), 8)
	}
	put := wireEvent(Event{Seq: 1, Kind: EventPut, Records: []Record{{Key: "k"}}})
	frames := map[string][]byte{
		"preamble and an event": appendWireEntry(preamble(2), &put, 0),
		"preamble and a lag":    appendWireEntry(preamble(2), nil, 3),
		"an event":              appendWireEntry(binenc.AppendUvarint(nil, 1), &put, 0),
		"trailing bytes":        append(preamble(1), 0),
		"no buffer":             binenc.AppendUvarint([]byte{1, wireEntryBuffer}, 0),
		"empty":                 nil,
	}
	for name, frame := range frames {
		if st, err := subscribeFirstFrame(t, frame); st != nil || transport.ErrorCode(err) != transport.CodeProtocol {
			t.Errorf("%s: stream %v, err = %v, want a protocol error", name, st, err)
		}
	}
}

// subscribeFirstFrame subscribes through a server whose stream sends
// frame as its first frame and then waits to be cancelled.
func subscribeFirstFrame(t *testing.T, frame []byte) (*Stream, error) {
	t.Helper()
	srv := transport.NewServer()
	defer srv.Close()
	srv.HandleStreamV3("grid.subscribe", func(ctx context.Context, _ []byte) (transport.V3StreamFunc, *transport.Error) {
		return func(send transport.V3Send) error {
			if err := send(func(b []byte) []byte { return append(b, frame...) }); err != nil {
				return err
			}
			<-ctx.Done()
			return nil
		}, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rg, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return rg.Subscribe(ctx, Subscription{System: RGMA})
}

// TestWireSubscribeBufferBounded: a stream's buffer is sized by a number
// the peer sent, so each side refuses one over maxStreamBuffer before a
// channel is sized by it. A server answers a grid.subscribe asking for
// more with bad_request and keeps serving; a client whose preamble
// carries more fails the subscribe with a protocol error, a bound of
// 2^63 or more included, which an int would read as negative. Each
// value is either small or past what make can size, so a missing check
// panics here rather than allocating gigabytes.
func TestWireSubscribeBufferBounded(t *testing.T) {
	leakcheck.Check(t)
	remote := serveGrid(t, newTestGrid(t))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, buffer := range []int{maxStreamBuffer + 1, 1 << 60, math.MaxInt64} {
		st, err := remote.Subscribe(ctx, Subscription{System: RGMA, Buffer: buffer})
		if st != nil || transport.ErrorCode(err) != transport.CodeBadRequest {
			t.Errorf("served Buffer %d: stream %v, err = %v, want bad_request", buffer, st, err)
		}
	}
	st, err := remote.Subscribe(ctx, Subscription{System: RGMA, Buffer: 3})
	if err != nil {
		t.Fatalf("a subscribe after the refusals: %v", err)
	}
	st.Close()

	for _, bound := range []uint64{maxStreamBuffer + 1, 1 << 60, 1 << 63, math.MaxUint64} {
		frame := binenc.AppendUvarint([]byte{1, wireEntryBuffer}, bound)
		if st, err := subscribeFirstFrame(t, frame); st != nil || transport.ErrorCode(err) != transport.CodeProtocol {
			t.Errorf("preamble bound %d: stream %v, err = %v, want a protocol error", bound, st, err)
		}
	}
}

// TestWireRepeatedFieldLastWins: a record whose frame repeats a field
// name decodes like the JSON object {"f":"1","g":"x","f":"2"} — the last
// value stays.
func TestWireRepeatedFieldLastWins(t *testing.T) {
	body := repeatedFieldAnswer()
	for _, newDec := range wireDecKinds {
		var got ResultSet
		d := newDec(body)
		decodeWireResultSetInto(&d, &got)
		if err := d.Err(); err != nil || d.Len() != 0 {
			t.Fatalf("err = %v, %d bytes left", err, d.Len())
		}
		want := []Record{{Key: "r", Fields: map[string]string{"f": "2", "g": "x"}}}
		if !reflect.DeepEqual(got.Records, want) {
			t.Errorf("got %#v, want %#v", got.Records, want)
		}
	}
}

// repeatedFieldAnswer hand-encodes a one-record answer whose record
// carries the field f twice; no encoder produces it, a peer could.
func repeatedFieldAnswer() []byte {
	b := binenc.AppendString(nil, string(MDS))
	b = binenc.AppendString(b, string(RoleInformationServer))
	b = binenc.AppendString(b, "lucky3")
	b = binenc.AppendUvarint(b, 2) // one record
	b = binenc.AppendString(b, "r")
	b = binenc.AppendUvarint(b, 3)
	for _, kv := range [][2]string{{"f", "1"}, {"g", "x"}, {"f", "2"}} {
		b = binenc.AppendString(b, kv[0])
		b = binenc.AppendString(b, kv[1])
	}
	b = appendWireWork(b, &Work{})
	return append(b, 0, 0, 0) // elapsed, partial, no branches
}
