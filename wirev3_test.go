package gridmon

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/binenc"
)

// jsonRT round-trips v through JSON — the reference semantics the binary
// codec must reproduce exactly, nil-ness and omitempty behaviour
// included, so JSON-bodied and binary-bodied calls see the same values.
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
		d := binenc.NewDec(appendWireResultSet(nil, &rs))
		decodeWireResultSetInto(&d, &got)
		if err := d.Err(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := jsonRT(t, rs); !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: got %#v, want %#v", i, got, want)
		}
	}
}

// TestWireEventRoundTrip: events preserve Seq, time, kind, records and
// work through the binary codec.
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
		var got Event
		d := binenc.NewDec(appendWireEvent(nil, &ev))
		decodeWireEventInto(&d, &got)
		if err := d.Err(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want := jsonRT(t, ev); !reflect.DeepEqual(got, want) {
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
	payload := appendWireResultSet(nil, &rs)
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
