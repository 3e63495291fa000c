package gridmon

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/allocmeter"
	"repro/internal/binenc"
	"repro/internal/core"
)

// wireBatch is what decodeWireBatch delivered, in order: one entry per
// callback, so a batch can be re-encoded and compared.
type wireBatch struct {
	Tags    []byte
	Events  []Event  // wireEntryEvent entries, in order, as Next decodes them
	Numbers []uint64 // wireEntryLag values, in order
}

// decodeBatch decodes body as a client's stream does, and each event as
// Next does. An event section it accepts that core.DecodeRecords fails
// on, or does not end on, panics: the walk at receipt must reject
// exactly what the decode would.
func decodeBatch(body []byte) (wireBatch, error) {
	var wb wireBatch
	err := decodeWireBatch(body,
		func(ev event) {
			d := binenc.NewDecString(ev.sec)
			core.DecodeRecords(&d)
			if !d.Done() {
				panic(fmt.Sprintf("an event section core.DecodeRecords rejects was accepted: %x", ev.sec))
			}
			wb.Tags = append(wb.Tags, wireEntryEvent)
			wb.Events = append(wb.Events, ev.decode())
		},
		func(n uint64) { wb.Tags = append(wb.Tags, wireEntryLag); wb.Numbers = append(wb.Numbers, n) })
	return wb, err
}

func (wb wireBatch) encode() []byte {
	b := binenc.AppendUvarint(nil, uint64(len(wb.Tags)))
	evs, nums := wb.Events, wb.Numbers
	for _, tag := range wb.Tags {
		if tag == wireEntryEvent {
			ev := wireEvent(evs[0])
			b = appendWireEntry(b, &ev, 0)
			evs = evs[1:]
		} else {
			b = binenc.AppendUvarint(append(b, wireEntryLag), nums[0]) // 0 too
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
	{"preamble",
		func(_ func([]byte) binenc.Dec, data []byte) (interface{}, error) { return decodeWirePreamble(data) },
		func(v interface{}) []byte {
			return binenc.AppendUvarint([]byte{1, wireEntryBuffer}, uint64(v.(int)))
		}},
}

// FuzzWireDecode feeds arbitrary bytes to every v3 decoder that reads
// what a peer sent — the grid.query and grid.subscribe requests on the
// server, the answer, the stream preamble and the event batch on the
// client. None may panic;
// none may allocate more than a fixed multiple of the input (counts are
// bounded by the bytes left in the frame before anything is sized by
// them); a decode that reports no error yields a value that re-encodes
// and decodes back to itself; and cutting strings out of one copy of the
// frame (NewDecText) decodes exactly what copying each one (NewDec) does,
// as does a client's decode through its table of records, after another
// answer of the same records and into an empty table.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	// A reply with bytes after it, which a restamp drops.
	f.Add(append(appendWireResultSet(nil, &ResultSet{System: MDS, Records: []Record{{Key: "k"}}, Elapsed: 300}, nil), "past"...))
	// A partial reply, whose branch error texts lie past its answer text.
	f.Add(appendWireResultSet(nil, &ResultSet{System: Hawkeye, Role: RoleAggregateServer,
		Records: []Record{{Key: "lucky3", Fields: map[string]string{"CpuLoad": "12"}}}, Elapsed: 300, Partial: true,
		Branches: []BranchError{{Shard: 2, Addr: "127.0.0.1:7950", Code: ErrUnavailable, Message: "leaf down"}}}, nil))
	// A batch of two events and a lag report.
	evs := benchEvents()
	batch := binenc.AppendUvarint(nil, 3)
	for _, ev := range evs[:2] {
		wev := wireEvent(ev)
		batch = appendWireEntry(batch, &wev, 0)
	}
	f.Add(appendWireEntry(batch, nil, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The widest thing a decoder sizes from a count is a field map:
		// one slot per two input bytes, ~40-80 bytes a slot.
		budget := uint64(256*len(data) + 64<<10)
		for _, dec := range wireFuzzDecoders {
			var got interface{}
			var err error
			if n, ok := allocmeter.Bytes(budget, nil, func() { got, err = dec.decode(binenc.NewDecText, data) }); !ok {
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
		checkScanMatchesDecode(t, data)
		checkAnswerTexts(t, data)
	})
}

// checkAnswerTexts decodes data through one client's table of records
// after a different answer of the same head and records, rotated by one:
// first with its records and head held, then, the table emptied and
// counted full, as a miss whose stores start the table over. Each decode
// must be what DecodeReply gives, and after each, with its records
// reversed as a caller may, every entry the table holds must still be
// what its own encoding decodes to.
func checkAnswerTexts(t *testing.T, data []byte) {
	want, werr := DecodeReply(data)
	table := newAnswerRecords()
	if werr == nil {
		earlier := *want
		earlier.Elapsed++
		var recs []wireRecord
		d := binenc.NewDec(data)
		d.Bytes()
		d.Bytes()
		d.Bytes()
		scanRecords(&d, data, &recs)
		sec := core.AppendRecords(nil, want.Records) // when none, nil or empty as data's
		if len(recs) > 0 {
			encs := make([][]byte, 0, len(recs))
			for _, r := range recs[1:] {
				encs = append(encs, r.enc)
			}
			sec = section(append(encs, recs[0].enc)...)
		}
		body := appendWireResultSet(nil, &earlier, &core.Answer{Enc: sec})
		if _, err := decodeSharedReply(&table, body); err != nil {
			t.Fatalf("the earlier answer does not decode: %v", err)
		}
		checkHeldRecords(t, &table)
	}
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			startOver(&table)
			table.mu.Lock()
			clear(table.m)
			table.mu.Unlock()
		}
		got, err := decodeSharedReply(&table, data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("pass %d: decode err %v, DecodeReply err %v", pass, err, werr)
		}
		if err != nil {
			if n := len(table.m); n != 0 {
				t.Fatalf("a reply that does not decode left %d entries in an empty table", n)
			}
			return
		}
		noNaN(&got.Work.CollectorInvocations, &want.Work.CollectorInvocations)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: decoded %#v, DecodeReply %#v", pass, got, want)
		}
		slices.Reverse(got.Records)
		checkHeldRecords(t, &table)
	}
}

// checkScanMatchesDecode holds scanWireReply, which RemoteGrid.AppendQuery
// checks a reply with and StampElapsed and MergeReplies walk one with,
// to decodeWireResultSetInto: the same bytes accepted, the reply ending
// where the decode stopped, the same Work, and the sections where they
// lie: a reply restamped with Elapsed zero ends where its walk does and
// decodes to the same ResultSet with Elapsed zero.
func checkScanMatchesDecode(t *testing.T, data []byte) {
	var want ResultSet
	d := binenc.NewDecText(data)
	decodeWireResultSetInto(&d, &want)
	r, err := scanWireReply(data, nil)
	if (err == nil) != (d.Err() == nil) {
		t.Fatalf("scan err %v, decode err %v", err, d.Err())
	}
	if err != nil {
		return
	}
	if r.end != len(data)-d.Len() {
		t.Fatalf("the scan ended at %d, the decode at %d", r.end, len(data)-d.Len())
	}
	noNaN(&want.Work.CollectorInvocations, &r.work.CollectorInvocations)
	if r.work != want.Work {
		t.Fatalf("scanned Work %+v, decoded %+v", r.work, want.Work)
	}
	stamped := StampElapsed(append([]byte("kept"), data...), len("kept"), 0)
	if !bytes.HasPrefix(stamped, []byte("kept")) {
		t.Fatalf("StampElapsed changed what precedes the reply: %q", stamped)
	}
	if r, _ := scanWireReply(stamped[len("kept"):], nil); len("kept")+r.end != len(stamped) {
		t.Fatalf("StampElapsed kept %d bytes past the reply", len(stamped)-len("kept")-r.end)
	}
	got, err := DecodeReply(stamped[len("kept"):])
	if err != nil {
		t.Fatalf("a restamped reply does not decode: %v", err)
	}
	noNaN(&got.Work.CollectorInvocations)
	want.Elapsed = 0
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("restamped, the reply decodes to %#v, want %#v", *got, want)
	}
}

// FuzzQueryDecode holds the grid.query decoder a server runs, which
// resolves a request's strings through its table, to decodeWireQueryInto
// over one copy of the frame: for any body, the same Query or the same
// error, on a cold table, a warm one and one that has started over. A
// decode allocates in proportion to the frame.
func FuzzQueryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendWireQuery(nil, Query{System: MDS, Host: "lucky4", Expr: "(objectclass=MdsCpu)",
		Attrs: []string{"Mds-Cpu-Free-1minX100", "mds-cpu-speedmhz", "Mds-Cpu-Free-1minX100"}}))
	f.Add(appendWireQuery(nil, Query{System: "GRAM", Role: "Broker", Attrs: []string{""}}))
	f.Add(appendWireQuery(nil, Query{System: RGMA, Role: RoleDirectoryServer, Expr: "SiteInfo", Attrs: []string{"a\x00b", "c"}}))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want Query
		d := binenc.NewDecText(body)
		decodeWireQueryInto(&d, &want)
		budget := uint64(64*len(body) + 64<<10)
		table := newRequestStrings()
		for pass := 0; pass < 3; pass++ {
			if pass == 2 {
				startOver(&table.strs)
				startOver(&table.lists)
			}
			var got Query
			var err error
			if n, ok := allocmeter.Bytes(budget, nil, func() { err = table.decodeQuery(body, &got) }); !ok {
				t.Fatalf("pass %d: decoding %d bytes allocated %d", pass, len(body), n)
			}
			if err != d.Err() {
				t.Fatalf("pass %d: decode error %v, want %v", pass, err, d.Err())
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: decoded %#v, want %#v", pass, got, want)
			}
		}
	})
}
