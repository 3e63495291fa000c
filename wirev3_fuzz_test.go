package gridmon

import (
	"maps"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/binenc"
	"repro/internal/core"
)

// wireBatch is what decodeWireBatch delivered, in order: one entry per
// callback, so a batch can be re-encoded and compared.
type wireBatch struct {
	Tags    []byte
	Events  []Event  // wireEntryEvent entries, in order
	Numbers []uint64 // wireEntryLag / wireEntryBuffer values, in order
}

func decodeBatch(body []byte) (wireBatch, error) {
	var wb wireBatch
	err := decodeWireBatch(body,
		func(ev Event) { wb.Tags = append(wb.Tags, wireEntryEvent); wb.Events = append(wb.Events, ev) },
		func(n uint64) { wb.Tags = append(wb.Tags, wireEntryLag); wb.Numbers = append(wb.Numbers, n) },
		func(n int) { wb.Tags = append(wb.Tags, wireEntryBuffer); wb.Numbers = append(wb.Numbers, uint64(n)) })
	return wb, err
}

func (wb wireBatch) encode() []byte {
	b := binenc.AppendUvarint(nil, uint64(len(wb.Tags)))
	evs, nums := wb.Events, wb.Numbers
	for _, tag := range wb.Tags {
		b = append(b, tag)
		if tag == wireEntryEvent {
			b = appendWireEvent(b, &evs[0])
			evs = evs[1:]
		} else {
			b = binenc.AppendUvarint(b, nums[0])
			nums = nums[1:]
		}
	}
	return b
}

// noNaN replaces NaNs, which arbitrary bits can decode to and which
// DeepEqual holds unequal to themselves, before a comparison.
func noNaN(fs ...*float64) {
	for _, f := range fs {
		if math.IsNaN(*f) {
			*f = 0
		}
	}
}

// wireFuzzDecoders are the five decoders that face bytes a peer chose,
// each as: decode data with the given kind of Dec into a fresh value
// (NaNs scrubbed), and re-encode that value.
var wireFuzzDecoders = []struct {
	name   string
	decode func(newDec func([]byte) binenc.Dec, data []byte) (interface{}, error)
	encode func(v interface{}) []byte
}{
	{"query",
		func(newDec func([]byte) binenc.Dec, data []byte) (interface{}, error) {
			var q Query
			d := newDec(data)
			decodeWireQueryInto(&d, &q)
			return q, d.Err()
		},
		func(v interface{}) []byte { return appendWireQuery(nil, v.(Query)) }},
	{"resultset",
		func(newDec func([]byte) binenc.Dec, data []byte) (interface{}, error) {
			var rs ResultSet
			d := newDec(data)
			decodeWireResultSetInto(&d, &rs)
			noNaN(&rs.Work.CollectorInvocations)
			return rs, d.Err()
		},
		func(v interface{}) []byte { rs := v.(ResultSet); return appendWireResultSet(nil, &rs, nil) }},
	{"answer",
		func(newDec func([]byte) binenc.Dec, data []byte) (interface{}, error) {
			var a Answer
			d := newDec(data)
			decodeWireAnswerInto(&d, &a)
			return a, d.Err()
		},
		func(v interface{}) []byte { a := v.(Answer); return appendWireAnswer(nil, &a) }},
	{"subscription",
		func(newDec func([]byte) binenc.Dec, data []byte) (interface{}, error) {
			var sub Subscription
			d := newDec(data)
			decodeWireSubscriptionInto(&d, &sub)
			noNaN(&sub.PollEvery)
			return sub, d.Err()
		},
		func(v interface{}) []byte { return appendWireSubscription(nil, v.(Subscription)) }},
	{"batch",
		// decodeWireBatch makes its own decoder; production's is the
		// only kind it has.
		func(_ func([]byte) binenc.Dec, data []byte) (interface{}, error) {
			wb, err := decodeBatch(data)
			for i := range wb.Events {
				noNaN(&wb.Events[i].Time, &wb.Events[i].Work.CollectorInvocations)
			}
			return wb, err
		},
		func(v interface{}) []byte { return v.(wireBatch).encode() }},
}

// FuzzWireDecode feeds arbitrary bytes to every v3 decoder that reads
// what a peer sent — the grid.query and grid.subscribe requests on the
// server, the answer and the event batch on the client. None may panic;
// none may allocate more than a fixed multiple of the input (counts are
// bounded by the bytes left in the frame before anything is sized by
// them); a decode that reports no error yields a value that re-encodes
// and decodes back to itself; and cutting strings out of one copy of the
// frame (NewDecText) decodes exactly what copying each one (NewDec) does.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The widest thing a decoder sizes from a count is a field map:
		// one slot per two input bytes, ~40-80 bytes a slot.
		budget := uint64(256*len(data) + 64<<10)
		for _, dec := range wireFuzzDecoders {
			// Bytes allocated by one decode. Other goroutines' allocations
			// land in the same counter, so only a reading that repeats
			// counts as the decoder's.
			var got interface{}
			var err error
			var before, after runtime.MemStats
			for try := 0; try < 3; try++ {
				runtime.ReadMemStats(&before)
				got, err = dec.decode(binenc.NewDecText, data)
				runtime.ReadMemStats(&after)
				if after.TotalAlloc-before.TotalAlloc <= budget {
					break
				}
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > budget {
				t.Fatalf("%s: decoding %d bytes allocated %d", dec.name, len(data), n)
			}

			copied, cerr := dec.decode(binenc.NewDec, data)
			if (err == nil) != (cerr == nil) {
				t.Fatalf("%s: text decode err %v, copying decode err %v", dec.name, err, cerr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got, copied) {
				t.Fatalf("%s: text decode %#v, copying decode %#v", dec.name, got, copied)
			}
			again, err := dec.decode(binenc.NewDecText, dec.encode(got))
			if err != nil {
				t.Fatalf("%s: re-encoded %#v does not decode: %v", dec.name, got, err)
			}
			if !reflect.DeepEqual(got, again) {
				t.Fatalf("%s: decoded %#v, round trip gave %#v", dec.name, got, again)
			}
		}
		checkAnswerMatchesRecords(t, data)
	})
}

// decodeWireAnswerInto decodes a record slice flat into a, as
// RemoteGrid.QueryAnswerInto does (a malformed one leaves a as it was).
func decodeWireAnswerInto(d *binenc.Dec, a *Answer) {
	recs := *d
	present, n, pairs := countWireAnswer(d)
	if d.Err() == nil {
		fillWireAnswer(&recs, a, present, n, pairs)
	}
}

// checkAnswerMatchesRecords holds decodeWireAnswerInto, the Router's
// decoder, into a zero Answer and into one that already holds a record,
// to decodeWireRecords, RemoteGrid.Query's:
// the same bytes accepted and consumed, the same nil-ness, and record for
// record the same key and fields (nil and empty Fields are equal, as in
// JSON). Decoding replaces the record already held; a frame it refuses
// leaves that record as it was.
func checkAnswerMatchesRecords(t *testing.T, data []byte) {
	e := binenc.NewDecText(data)
	want := decodeWireRecords(&e)
	var fresh Answer
	d := binenc.NewDecText(data)
	decodeWireAnswerInto(&d, &fresh)
	checkRecords(t, "flat decode", &d, &e, fresh.Records(), want)

	// Room for a few more of each, so that small answers decode in place
	// and larger ones grow the slices.
	held := Answer{Recs: make([]core.Span, 1, 4), Pairs: make([]core.Pair, 1, 8)}
	heldRec, heldPair := core.Span{Key: "held", From: 0, To: 1}, core.Pair{Name: "n", Value: "v"}
	held.Recs[0], held.Pairs[0] = heldRec, heldPair
	d = binenc.NewDecText(data)
	decodeWireAnswerInto(&d, &held)
	if d.Err() != nil && (len(held.Recs) != 1 || held.Recs[0] != heldRec || held.Pairs[0] != heldPair) {
		t.Fatalf("a refused frame changed the answer it was decoded into: %+v %+v", held.Recs, held.Pairs)
	}
	checkRecords(t, "decode into a held answer", &d, &e, held.Records(), want)
}

// checkRecords fails t unless decoder d ended as e did and got equals
// want, record for record.
func checkRecords(t *testing.T, what string, d, e *binenc.Dec, got, want []Record) {
	t.Helper()
	if (d.Err() == nil) != (e.Err() == nil) || d.Len() != e.Len() {
		t.Fatalf("%s err %v (%d bytes left), records decode err %v (%d left)", what, d.Err(), d.Len(), e.Err(), e.Len())
	}
	if d.Err() != nil {
		return
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s gave %d records (nil %v), records decode %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if got[i].Key != want[i].Key || !maps.Equal(got[i].Fields, want[i].Fields) {
			t.Fatalf("record %d: %s %+v, records decode %+v", i, what, got[i], want[i])
		}
	}
}
