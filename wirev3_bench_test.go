package gridmon

import (
	"fmt"
	"testing"

	"repro/internal/binenc"
)

// The round-trip benchmarks measure the v3 codec's end-to-end cost for
// the two hot exchanges: a grid.query request/answer pair and a batched
// event flush fanned out to 64 subscribers. The round trip decodes the
// way production does — into a fresh Query and a fresh ResultSet the
// caller keeps, text out of one copy of each frame — and
// TestWireQueryRoundTripAllocs pins what that costs.

// benchQuery is a realistic aggregate query.
var benchQuery = Query{
	System: RGMA,
	Role:   RoleInformationServer,
	Expr:   "SELECT host, metric, value FROM siteinfo WHERE value >= 50",
	Attrs:  []string{"host", "metric", "value"},
}

// benchResultSet builds an answer the size a site-wide aggregate query
// returns: 18 records of 3 fields each, with full work accounting.
func benchResultSet() *ResultSet {
	rs := &ResultSet{
		System: RGMA,
		Role:   RoleInformationServer,
		Host:   "lucky3",
		Work:   fullWork(),
	}
	for i := 0; i < 18; i++ {
		rs.Records = append(rs.Records, Record{
			Key: fmt.Sprintf("lucky%d/cpu", i),
			Fields: map[string]string{
				"host":   fmt.Sprintf("lucky%d", i),
				"metric": "CpuLoad",
				"value":  "62.5",
			},
		})
	}
	return rs
}

// wireQueryRoundTripV3 is one full exchange on the binary codec:
// request encode -> request decode -> answer encode -> answer decode.
// The frame buffers are reused the way the connection loops reuse
// theirs; the decoded values are fresh, as ServeQueryV3 and
// RemoteGrid.Query make them.
func wireQueryRoundTripV3(reqBuf, respBuf []byte, rs *ResultSet) ([]byte, []byte, *ResultSet, error) {
	reqBuf = appendWireQuery(reqBuf[:0], benchQuery)
	var gotQ Query
	d := binenc.NewDecText(reqBuf)
	decodeWireQueryInto(&d, &gotQ)
	if err := d.Err(); err != nil {
		return reqBuf, respBuf, nil, err
	}
	respBuf = appendWireResultSet(respBuf[:0], rs, nil)
	var gotRS ResultSet
	d = binenc.NewDecText(respBuf)
	decodeWireResultSetInto(&d, &gotRS)
	return reqBuf, respBuf, &gotRS, d.Err()
}

func BenchmarkWireQueryRoundTripV3(b *testing.B) {
	rs := benchResultSet()
	var reqBuf, respBuf []byte
	var gotRS *ResultSet
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqBuf, respBuf, gotRS, err = wireQueryRoundTripV3(reqBuf, respBuf, rs)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(gotRS.Records) != len(rs.Records) {
		b.Fatalf("decoded %d records", len(gotRS.Records))
	}
}

// TestWireQueryRoundTripAllocs pins what a grid.query round trip costs
// when it decodes the way production does, into fresh values. For
// benchResultSet() — 18 records of 3 fields, 129 non-empty strings — all
// the text of the answer is one allocation: decoding with NewDecText
// costs exactly 128 fewer than decoding with NewDec, which copies every
// string out of the frame by itself. The whole exchange then measures 41
// on go1.24.0 linux/amd64: the request's text and its Attrs slice, the
// answer's text, the ResultSet, its []Record and two allocations per
// record for the field map (header + one group of slots; the same 41
// under GOEXPERIMENT=noswissmap, the map Go 1.22 has: header + one
// bucket). The budget is that plus 10%.
func TestWireQueryRoundTripAllocs(t *testing.T) {
	rs := benchResultSet()
	var reqBuf, respBuf []byte
	allocs := testing.AllocsPerRun(200, func() {
		var got *ResultSet
		var err error
		reqBuf, respBuf, got, err = wireQueryRoundTripV3(reqBuf, respBuf, rs)
		if err != nil || len(got.Records) != len(rs.Records) {
			t.Fatalf("round trip: %v", err)
		}
	})
	if allocs > 45 {
		t.Errorf("v3 query round trip into fresh values: %.1f allocs/op, want <= 45", allocs)
	}

	const textStrings = 3 + 18*7 // System, Role, Host + per record key, 3 names, 3 values
	decode := func(newDec func([]byte) binenc.Dec) float64 {
		return testing.AllocsPerRun(200, func() {
			var got ResultSet
			d := newDec(respBuf)
			decodeWireResultSetInto(&d, &got)
			if d.Err() != nil {
				t.Fatal(d.Err())
			}
		})
	}
	perString, oneText := decode(binenc.NewDec), decode(binenc.NewDecText)
	if perString-oneText != textStrings-1 {
		t.Errorf("answer text: %.0f allocs with one copy per string, %.0f out of one copy of the frame; want %d fewer",
			perString, oneText, textStrings-1)
	}
}

// benchEvents is one flush's worth of trigger events.
func benchEvents() []Event {
	evs := make([]Event, 8)
	for i := range evs {
		evs[i] = Event{
			Seq:  uint64(i + 1),
			Time: 10.5,
			Kind: EventTrigger,
			Records: []Record{{
				Key:    fmt.Sprintf("lucky%d/load", i),
				Fields: map[string]string{"load": "9.7", "host": fmt.Sprintf("lucky%d", i)},
			}},
		}
	}
	return evs
}

// BenchmarkWireEventFanout64V3: one 8-event flush delivered to 64
// subscribers over the batched v3 event frame — each subscriber's pump
// encodes the batch into its reused scratch buffer and each client
// receives it and decodes every event as Next does. This is the
// per-flush cost of the subscribe fan-out path.
func BenchmarkWireEventFanout64V3(b *testing.B) {
	var evs []event
	for _, ev := range benchEvents() {
		evs = append(evs, wireEvent(ev))
	}
	const subscribers = 64
	bufs := make([][]byte, subscribers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < subscribers; s++ {
			body := binenc.AppendUvarint(bufs[s][:0], uint64(len(evs)))
			for j := range evs {
				body = appendWireEntry(body, &evs[j], 0)
			}
			bufs[s] = body
			delivered := 0
			if err := decodeWireBatch(body, func(ev event) { delivered += len(ev.decode().Records) }, nil); err != nil {
				b.Fatal(err)
			}
			if delivered != len(evs) {
				b.Fatalf("delivered %d records", delivered)
			}
		}
	}
}
