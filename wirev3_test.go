package gridmon

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/core"
)

// decodeWireQueryInto decodes a Query into q, every string a copy: the
// reference requestStrings.decodeQuery, which a server decodes requests
// with, is held to (FuzzQueryDecode).
func decodeWireQueryInto(d *binenc.Dec, q *Query) {
	q.System = System(d.String())
	q.Role = Role(d.String())
	q.Host = d.String()
	q.Expr = d.String()
	q.Attrs = decodeWireStrings(d)
}

// jsonRT round-trips v through JSON — the reference semantics the binary
// codec must reproduce exactly, nil-ness and omitempty behaviour
// included, so a value decoded off the wire is the value encoding/json
// would have delivered.
func jsonRT[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func fullWork() Work {
	return Work{
		CollectorInvocations: 1.5,
		RecordsVisited:       2,
		RecordsReturned:      3,
		Subqueries:           4,
		ThreadSpawns:         5,
		ResponseBytes:        6,
		IndexHits:            7,
		ScanFallbacks:        8,
		CacheHits:            9,
		CacheMisses:          10,
	}
}

// TestWireQueryRoundTrip: every Query shape — attrs set, empty and nil —
// decodes to what a JSON round trip would produce.
func TestWireQueryRoundTrip(t *testing.T) {
	cases := []Query{
		{},
		{System: MDS, Role: RoleAggregateServer, Host: "n01", Expr: "(objectClass=*)"},
		{System: RGMA, Attrs: []string{"cpu", "mem"}},
		{System: Hawkeye, Attrs: []string{}},
	}
	for i, q := range cases {
		var got Query
		d := binenc.NewDec(appendWireQuery(nil, q))
		decodeWireQueryInto(&d, &got)
		if err := d.Err(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := jsonRT(t, q); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: got %#v, want %#v", i, got, want)
		}
	}
}

// TestWireResultSetRoundTrip: the full result surface — records with and
// without fields, work counters, partial federation answers with branch
// errors, and the nil/empty records distinction (Records has no
// omitempty, so JSON keeps null and [] apart; the codec must too).
func TestWireResultSetRoundTrip(t *testing.T) {
	cases := []ResultSet{
		{},
		{Records: []Record{}},
		{Records: nil},
		{
			System: MDS, Role: RoleAggregateServer, Host: "n01",
			Records: []Record{
				{Key: "a", Fields: map[string]string{"cpu": "4", "mem": "8G"}},
				{Key: "b"},
				{Key: "c", Fields: map[string]string{}},
			},
			Work:    fullWork(),
			Elapsed: 1234 * time.Microsecond,
		},
		{
			System:  RGMA,
			Partial: true,
			Branches: []BranchError{
				{Shard: 2, Addr: "10.0.0.2:9000", Code: ErrUnavailable, Message: "leaf down"},
			},
		},
	}
	for i, rs := range cases {
		var got ResultSet
		d := binenc.NewDec(appendWireResultSet(nil, &rs, nil))
		decodeWireResultSetInto(&d, &got)
		if err := d.Err(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := jsonRT(t, rs); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: got %#v, want %#v", i, got, want)
		}
	}
}

// wireEvent is ev as a Stream holds it.
func wireEvent(ev Event) event {
	return event{seq: ev.Seq, time: ev.Time, kind: ev.Kind, sec: string(core.AppendRecords(nil, ev.Records)), work: ev.Work}
}

// TestWireEventRoundTrip: events preserve Seq, time, kind, records and
// work through the binary codec and Next's decode.
func TestWireEventRoundTrip(t *testing.T) {
	cases := []Event{
		{Seq: 1, Time: 10.5, Kind: EventPut},
		{Seq: 2, Kind: EventDelete, Records: []Record{{Key: "gone"}}},
		{
			Seq: 1 << 40, Time: 99.25, Kind: EventTrigger,
			Records: []Record{{Key: "t", Fields: map[string]string{"load": "9.7"}}},
			Work:    fullWork(),
		},
	}
	for i, ev := range cases {
		wev := wireEvent(ev)
		var got []Event
		err := decodeWireBatch(appendWireEntry(binenc.AppendUvarint(nil, 1), &wev, 0),
			func(ev event) { got = append(got, ev.decode()) }, nil)
		if err != nil || len(got) != 1 {
			t.Fatalf("case %d: %v, %d events", i, err, len(got))
		}
		if got, want := got[0], jsonRT(t, ev); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: got %#v, want %#v", i, got, want)
		}
	}
}

// TestWireSubscriptionRoundTrip: the subscribe request codec.
func TestWireSubscriptionRoundTrip(t *testing.T) {
	cases := []Subscription{
		{},
		{System: Hawkeye, Role: RoleAggregateServer, Host: "n02", Expr: "load > 5",
			Attrs: []string{"load"}, PollEvery: 2.5, Buffer: 7},
	}
	for i, sub := range cases {
		var got Subscription
		d := binenc.NewDec(appendWireSubscription(nil, sub))
		decodeWireSubscriptionInto(&d, &got)
		if err := d.Err(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := jsonRT(t, sub); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: got %#v, want %#v", i, got, want)
		}
	}
}

// TestWireDecodeMalformed: truncated payloads surface a typed
// bad_request from the decoder, never a panic.
func TestWireDecodeMalformed(t *testing.T) {
	rs := ResultSet{Records: []Record{{Key: "a", Fields: map[string]string{"f": "v"}}}}
	payload := appendWireResultSet(nil, &rs, nil)
	for cut := 0; cut < len(payload); cut++ {
		d := binenc.NewDec(payload[:cut])
		var got ResultSet
		decodeWireResultSetInto(&d, &got)
		if d.Err() == nil {
			// Some prefixes decode cleanly only if they consume everything;
			// a short prefix that leaves the decoder error-free must at
			// least have consumed every byte it was given.
			if d.Len() != 0 {
				t.Fatalf("cut %d: clean decode with %d bytes left", cut, d.Len())
			}
		}
	}
}

// flatAnswerQueries are the alloc-budget cells, each also with Attrs nil,
// [] and [""] (a projection that keeps no field, so zero-field records),
// plus a column selected twice, an Agent constraint that rejects (nil
// records) and a WHERE that matches nothing (empty records).
func flatAnswerQueries() []Query {
	var qs []Query
	for _, cell := range allocBudgetCells {
		for _, attrs := range [][]string{cell.q.Attrs, nil, {}, {""}} {
			q := cell.q
			q.Attrs = attrs
			qs = append(qs, q)
		}
	}
	return append(qs,
		Query{System: RGMA, Host: "lucky4", Expr: "SELECT host, host FROM siteinfo"},
		Query{System: RGMA, Expr: "SELECT host, host FROM siteinfo"},
		Query{System: Hawkeye, Host: "lucky4", Expr: "false"},
		Query{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE value > 1000000"},
	)
}

// TestWireAnswerIsRecordEncoding: a grid's answer is a record section
// that decodes to what its records' encoding decodes to, and it is the
// same bytes every time — the pairs go in the engine's order, not a
// map's.
func TestWireAnswerIsRecordEncoding(t *testing.T) {
	g := newTestGrid(t)
	decode := func(b []byte) []Record {
		d := binenc.NewDecText(b)
		recs := core.DecodeRecords(&d)
		if !d.Done() {
			t.Fatalf("%q is not one record section: %v", b, d.Err())
		}
		return recs
	}
	var nilRecs, emptyRecs, zeroFields, repeated bool
	for _, q := range flatAnswerQueries() {
		_, ans, err := freshAnswer(g, q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		flat := ans.Enc
		recs := decode(flat)
		if got, want := recs, decode(core.AppendRecords(nil, ans.Records())); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: the answer decodes to\n%+v\nthe records' encoding to\n%+v", q, got, want)
		}
		_, ans2, err := freshAnswer(g, q)
		if err != nil || !bytes.Equal(ans2.Enc, flat) {
			t.Errorf("%+v: asking again renders different bytes (err %v)", q, err)
		}
		nilRecs = nilRecs || recs == nil
		emptyRecs = emptyRecs || (recs != nil && len(recs) == 0)
		// Walk the pairs as they lie: a repeated name is sent twice.
		d := binenc.NewDec(flat)
		for n := int(d.Uvarint()) - 1; n > 0; n-- {
			d.Bytes()
			nf := d.Uvarint()
			zeroFields = zeroFields || nf == 0
			var names []string
			for j := uint64(0); j < nf; j++ {
				names = append(names, string(d.Bytes()))
				d.Bytes()
			}
			repeated = repeated || (len(names) == 2 && names[0] == names[1])
		}
	}
	if !nilRecs || !emptyRecs || !zeroFields || !repeated {
		t.Errorf("cases not covered: nil records %v, empty records %v, zero-field record %v, repeated name %v",
			nilRecs, emptyRecs, zeroFields, repeated)
	}
}

// TestRemoteFlatAnswerMatchesInProcess: over a result cache, a remote
// answer (encoded from the flat answer) is the in-process answer (built
// from its records), on the miss that stores it and the hit that reuses
// it. Records compare in their JSON form, the contract both sides keep:
// an empty field map crosses the wire as absent.
func TestRemoteFlatAnswerMatchesInProcess(t *testing.T) {
	local := newTestGrid(t, WithQueryCache(time.Hour))
	remote := serveGrid(t, newTestGrid(t, WithQueryCache(time.Hour)))
	ctx := context.Background()
	for _, q := range flatAnswerQueries() {
		for _, pass := range []string{"miss", "hit"} {
			want, err := local.Query(ctx, q)
			if err != nil {
				t.Fatalf("%+v in-process: %v", q, err)
			}
			got, err := remote.Query(ctx, q)
			if err != nil {
				t.Fatalf("%+v remote: %v", q, err)
			}
			if pass == "hit" && got.Work.CacheHits != 1 {
				t.Fatalf("%+v: the second query missed the cache", q)
			}
			w, _ := json.Marshal(want.Records)
			g, _ := json.Marshal(got.Records)
			if !bytes.Equal(w, g) || want.Work != got.Work {
				t.Errorf("%+v on the %s differs\nin-process: %s %+v\nremote:     %s %+v", q, pass, w, want.Work, g, got.Work)
			}
		}
	}
}
