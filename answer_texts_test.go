package gridmon

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/allocmeter"
	"repro/internal/binenc"
	"repro/internal/core"
)

// textReply is a reply of one record whose value is value, with the
// given Elapsed and cache-hit count, which lie past its records.
func textReply(value string, elapsed, hits int) []byte {
	return recordsReply(core.AppendRecords(nil, []Record{{Key: "Mds-Host-hn=lucky3",
		Fields: map[string]string{"Mds-Cpu-Free-1minX100": value}}}), elapsed, hits)
}

// recordsReply is a reply of the record section sec, encoded once, as
// a map's fields come out in an order of its own each time, with the
// given Elapsed and cache-hit count.
func recordsReply(sec []byte, elapsed, hits int) []byte {
	return appendWireResultSet(nil, &ResultSet{System: MDS, Role: RoleAggregateServer,
		Work: Work{CacheHits: hits}, Elapsed: 1000 * time.Duration(elapsed)}, &core.Answer{Enc: sec})
}

// textOf is the backing array of rs's one value.
func textOf(rs *ResultSet) *byte {
	return unsafe.StringData(rs.Records[0].Fields["Mds-Cpu-Free-1minX100"])
}

// encRecord is r's encoding in a record section, made once, as a map's
// fields come out in an order of its own each time.
func encRecord(r Record) []byte { return core.AppendRecords(nil, []Record{r})[1:] }

// section is the record section of the record encodings encs.
func section(encs ...[]byte) []byte {
	b := binenc.AppendUvarint(nil, uint64(len(encs))+1)
	for _, enc := range encs {
		b = append(b, enc...)
	}
	return b
}

// decodeEqual decodes body through table and fails unless the answer is
// what DecodeReply gives.
func decodeEqual(t *testing.T, table *answerRecords, body []byte) *ResultSet {
	t.Helper()
	want, err := DecodeReply(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSharedReply(table, body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %#v, DecodeReply %#v", got, want)
	}
	return got
}

// TestAnswerTextsShareIdenticalReplies: two replies whose records are
// byte-identical decode onto one copy, though their Elapsed and Work
// differ; the copy does not alias the frame.
func TestAnswerTextsShareIdenticalReplies(t *testing.T) {
	table := newAnswerRecords()
	first := textReply("77", 1, 0)
	a := decodeEqual(t, &table, first)
	for i := range first {
		first[i] = 0xff // the frame buffer is reused
	}
	b := decodeEqual(t, &table, textReply("77", 2, 1))
	if textOf(a) != textOf(b) {
		t.Error("two identical answers hold two copies of their text")
	}
	if v := a.Records[0].Fields["Mds-Cpu-Free-1minX100"]; v != "77" {
		t.Errorf("after the frame was reused, the first answer's value is %q", v)
	}
}

// TestAnswerTextsMissOnOneByte: a record that differs from a held one
// in one byte of a value gets a text of its own.
func TestAnswerTextsMissOnOneByte(t *testing.T) {
	table := newAnswerRecords()
	a := decodeEqual(t, &table, textReply("77", 1, 0))
	b := decodeEqual(t, &table, textReply("78", 1, 0))
	if textOf(a) == textOf(b) {
		t.Error("answers that differ in a value share a text")
	}
}

// threeRecords is an answer's record section: three records in key
// order, the middle one without fields.
func threeRecords(cpu string) []Record {
	return []Record{
		{Key: "Mds-Host-hn=lucky3", Fields: map[string]string{"Mds-Cpu-Free-1minX100": cpu, "Mds-Cpu-speedMHz": "2400"}},
		{Key: "Mds-Host-hn=lucky4"},
		{Key: "Mds-Host-hn=lucky7", Fields: map[string]string{"Mds-Cpu-Free-1minX100": "12"}},
	}
}

// mapOf is the map behind m.
func mapOf(m map[string]string) unsafe.Pointer { return reflect.ValueOf(m).UnsafePointer() }

// TestAnswerTextsShareFieldMaps: replies that differ only past their
// records, in Elapsed or in Work, get the same field map in each record
// but record lists of their own, the first decode's and the repeats'
// alike, so reversing two leaves the third's order and the next one's as
// they were.
func TestAnswerTextsShareFieldMaps(t *testing.T) {
	sec := core.AppendRecords(nil, threeRecords("77"))
	for _, tc := range []struct {
		name          string
		elapsed, hits int
	}{{"elapsed", 2, 0}, {"work", 1, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			table := newAnswerRecords()
			a := decodeEqual(t, &table, recordsReply(sec, 1, 0))
			b := decodeEqual(t, &table, recordsReply(sec, tc.elapsed, tc.hits))
			c := decodeEqual(t, &table, recordsReply(sec, tc.elapsed, tc.hits))
			if &a.Records[0] == &b.Records[0] || &a.Records[0] == &c.Records[0] || &b.Records[0] == &c.Records[0] {
				t.Fatal("two answers share one record list")
			}
			for i := range a.Records {
				if mapOf(a.Records[i].Fields) != mapOf(b.Records[i].Fields) || mapOf(a.Records[i].Fields) != mapOf(c.Records[i].Fields) {
					t.Errorf("record %d: identical answers hold more than one field map", i)
				}
			}
			slices.Reverse(a.Records)
			slices.Reverse(b.Records)
			if want := threeRecords("77"); !reflect.DeepEqual(c.Records, want) {
				t.Errorf("after two answers were reversed, the third's records are %v", c.Records)
			}
			if d := decodeEqual(t, &table, recordsReply(sec, 3, 2)); d.Records[0].Key != "Mds-Host-hn=lucky3" {
				t.Errorf("after earlier answers were reversed, a later one begins with %q", d.Records[0].Key)
			}
		})
	}
}

// TestAnswerTextsShareRecords: the records an answer brings new are cut
// from one copy, one after another; two different answers that hold a
// record decoded before share its Key string and its Fields map, and
// reversing one answer's Records leaves the next answer's as they are.
// An answer with one changed record decodes only that record: it shares
// the other records, adds one entry to the table, and allocates what an
// answer of that one record alone does.
func TestAnswerTextsShareRecords(t *testing.T) {
	three := threeRecords("77")
	encs := [][]byte{encRecord(three[0]), encRecord(three[1]), encRecord(three[2])}
	lucky9 := encRecord(Record{Key: "Mds-Host-hn=lucky9", Fields: map[string]string{"Mds-Cpu-Free-1minX100": "3"}})
	table := newAnswerRecords()
	a := decodeEqual(t, &table, recordsReply(section(encs...), 1, 0))
	at := func(i int) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(a.Records[i].Key))) }
	for i := 1; i < 3; i++ {
		if at(i)-at(i-1) != uintptr(len(encs[i-1])) {
			t.Errorf("records %d and %d of a new answer do not lie one after the other in one copy", i-1, i)
		}
	}
	b := decodeEqual(t, &table, recordsReply(section(encs[1], encs[2], lucky9), 1, 0))
	for i := 1; i < 3; i++ {
		ra, rb := a.Records[i], b.Records[i-1]
		if unsafe.StringData(ra.Key) != unsafe.StringData(rb.Key) {
			t.Errorf("record %s: two answers hold two copies of its key", ra.Key)
		}
		if ra.Fields != nil && mapOf(ra.Fields) != mapOf(rb.Fields) {
			t.Errorf("record %s: two answers hold two field maps", ra.Key)
		}
	}
	slices.Reverse(b.Records)
	if c := decodeEqual(t, &table, recordsReply(section(encs[1], encs[2], lucky9), 2, 0)); c.Records[0].Key != "Mds-Host-hn=lucky4" {
		t.Errorf("after an answer was reversed, the next one begins with %q", c.Records[0].Key)
	}

	held := len(table.m)
	d := decodeEqual(t, &table, recordsReply(section(encRecord(threeRecords("78")[0]), encs[1], encs[2]), 1, 0))
	if n := len(table.m) - held; n != 1 {
		t.Errorf("an answer with one changed record added %d entries to the table", n)
	}
	if mapOf(d.Records[0].Fields) == mapOf(a.Records[0].Fields) || mapOf(d.Records[2].Fields) != mapOf(a.Records[2].Fields) {
		t.Error("an answer with one changed record does not share exactly the others' field maps")
	}
	if raceEnabled {
		return // the race detector instruments allocations
	}
	const runs = 100
	changed, alone := make([][]byte, runs+1), make([][]byte, runs+1) // AllocsPerRun calls once more to warm up
	for i := range changed {
		cpu := func(v string) []byte {
			return encRecord(Record{Key: "Mds-Host-hn=lucky3", Fields: map[string]string{"Mds-Cpu-Free-1minX100": v, "Mds-Cpu-speedMHz": "2400"}})
		}
		changed[i] = recordsReply(section(cpu(fmt.Sprint("c", i)), encs[1], encs[2]), 1, 0)
		alone[i] = recordsReply(section(cpu(fmt.Sprint("a", i))), 1, 0)
	}
	measure := func(bodies [][]byte) float64 {
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if _, err := decodeSharedReply(&table, bodies[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	if c, one := measure(changed), measure(alone); c != one {
		t.Errorf("an answer with one changed record costs %.0f allocations, an answer of that record alone %.0f", c, one)
	}
}

// TestAnswerTextsKeepNilRecords: a repeated answer keeps its Records nil
// when its section is nil and empty when it is empty, as the first
// decode and DecodeReply do.
func TestAnswerTextsKeepNilRecords(t *testing.T) {
	table := newAnswerRecords()
	for _, tc := range []struct {
		name string
		recs []Record
	}{{"nil", nil}, {"empty", []Record{}}} {
		for pass := 0; pass < 2; pass++ {
			rs := decodeEqual(t, &table, recordsReply(core.AppendRecords(nil, tc.recs), pass, 0))
			if (rs.Records == nil) != (tc.recs == nil) || len(rs.Records) != 0 {
				t.Errorf("%s section, decode %d: Records is %#v", tc.name, pass, rs.Records)
			}
		}
	}
	if n := len(table.m); n != 1 {
		t.Errorf("the table holds %d entries, want the replies' one head", n)
	}
}

// TestAnswerTextsByteCap: a record that counts over maxHeldBytes is
// never kept, and the records kept never count more than that. What a
// record counts is no less than what holding it costs: for every record
// of an AnswerCorpus answer, the bytes a copy of its encoding and its
// decode allocate, and its slot in the table. Filled with the whole
// corpus, the table holds no more than maxHeldBytes of them.
func TestAnswerTextsByteCap(t *testing.T) {
	table := newAnswerRecords()
	huge := textReply(strings.Repeat("x", maxHeldBytes), 1, 0)
	a, b := decodeEqual(t, &table, huge), decodeEqual(t, &table, huge)
	if textOf(a) == textOf(b) {
		t.Error("a record over the byte cap was kept")
	}
	if n := len(table.m); n != 0 {
		t.Errorf("the table holds %d entries after a record over the cap", n)
	}
	// Records of a quarter of the cap each: the table starts over rather
	// than hold a fifth.
	for i := 0; i < 12; i++ {
		decodeEqual(t, &table, textReply(fmt.Sprintf("%d%s", i, strings.Repeat("y", maxHeldBytes/4-1024)), 1, 0))
		checkBounded(t, &table)
	}

	table = newAnswerRecords()
	held := make(map[string]int) // each corpus record's encoding and its measured bytes
	for _, body := range corpusReplies(t) {
		decodeEqual(t, &table, body)
		var recs []wireRecord
		d := binenc.NewDec(body)
		d.Bytes()
		d.Bytes()
		d.Bytes()
		scanRecords(&d, body, &recs)
		for _, r := range recs {
			enc := string(r.enc)
			if _, ok := held[enc]; ok {
				continue
			}
			held[enc] = heldBytes(r.enc)
			rec := decodeHeld(t, enc)
			if counted := table.size(enc, rec); counted < held[enc] {
				t.Errorf("record %s of %d bytes and %d fields counts %d, holding it costs %d", rec.Key, len(enc), len(rec.Fields), counted, held[enc])
			}
		}
		checkBounded(t, &table)
		real := 0
		table.mu.RLock()
		for enc := range table.m {
			real += held[enc]
		}
		table.mu.RUnlock()
		if real > maxHeldBytes {
			t.Fatalf("the table holds records that cost %d bytes", real)
		}
	}
}

// TestAnswerTextsCountWhatTheyPin: a held entry keeps alive the whole
// copy it was cut from, so the table counts every byte of a copy it
// keeps a piece of. A reply whose copy counts over the cap keeps none of
// it, its small records included; a record repeated in one reply counts
// each time it was copied; and a reply that starts the table over does
// so before its store, so it keeps every record it brought.
func TestAnswerTextsCountWhatTheyPin(t *testing.T) {
	small := encRecord(Record{Key: "Mds-Host-hn=lucky4", Fields: map[string]string{"Mds-Cpu-Free-1minX100": "5"}})
	huge := encRecord(Record{Key: "Mds-Host-hn=lucky3",
		Fields: map[string]string{"Mds-Cpu-Free-1minX100": strings.Repeat("x", 3*maxHeldBytes)}})
	table := newAnswerRecords()
	a := decodeEqual(t, &table, recordsReply(section(huge, small), 1, 0))
	if n := len(table.m); n != 0 {
		t.Errorf("a reply whose copy counts over the cap left %d entries in the table", n)
	}
	if b := decodeEqual(t, &table, recordsReply(section(small), 2, 0)); unsafe.StringData(b.Records[0].Key) == unsafe.StringData(a.Records[1].Key) {
		t.Error("a small record keeps alive the copy of a record over the cap")
	}

	counted := func(encs ...[]byte) int {
		table := newAnswerRecords()
		decodeEqual(t, &table, recordsReply(section(encs...), 1, 0))
		return table.bytes
	}
	if head, once, four := counted(), counted(small), counted(small, small, small, small); four-once != 3*(once-head) {
		t.Errorf("a reply of one record counts %d bytes past its head, one of it four times %d", once-head, four-head)
	}

	three := threeRecords("77")
	encs := [][]byte{encRecord(three[0]), encRecord(three[1]), encRecord(three[2])}
	table = newAnswerRecords()
	decodeEqual(t, &table, recordsReply(section(small), 1, 0))
	startOver(&table)
	decodeEqual(t, &table, recordsReply(section(encs...), 1, 0))
	for _, enc := range encs {
		if _, ok := lookup(&table, enc); !ok {
			t.Errorf("a reply that started the table over does not keep record %q", enc)
		}
	}
	checkBounded(t, &table)
}

// corpusReplies is the reply body of every AnswerCorpus query a test
// grid answers without an error.
func corpusReplies(t *testing.T) [][]byte {
	t.Helper()
	g := newTestGrid(t)
	var bodies [][]byte
	for _, group := range AnswerCorpus(t) {
		for _, q := range group.Queries {
			if body, err := g.AppendQuery(context.Background(), q, nil); err == nil {
				bodies = append(bodies, body)
			}
		}
	}
	return bodies
}

// tableSlot is what a held record's slot in the table costs at most: a
// key and a value at seven eighths' load, twice over just after the map
// has doubled.
const tableSlot = 2 * (int(unsafe.Sizeof("")+unsafe.Sizeof(Record{})) * 8 / 7)

// heldRecord keeps what heldBytes decodes on the heap.
var heldRecord Record

// heldBytes returns what holding the record encoded as enc costs: a copy
// of its encoding, its decode and its slot in the table.
func heldBytes(enc []byte) int {
	_, bytes := allocmeter.PerRun(1, func() {
		d := binenc.NewDecPrefix(enc, string(enc))
		heldRecord = core.DecodeRecord(&d)
	})
	return int(bytes) + tableSlot
}

// decodeHeld is what a copying decode of a record's encoding gives; it
// fails unless enc is exactly one record.
func decodeHeld(t *testing.T, enc string) Record {
	t.Helper()
	d := binenc.NewDec([]byte(enc))
	rec := core.DecodeRecord(&d)
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("a held encoding of %d bytes is not one record", len(enc))
	}
	return rec
}

// checkHeldRecords fails unless table is within its bounds, counts at
// least what its entries count (a store counts every record it copied,
// a repeat whose entry the next one replaced included), and every entry
// it holds is what a copying decode of its key gives: a record, or a
// reply head held as a Record whose Key is its key. So no code wrote
// into a shared field map.
func checkHeldRecords(t *testing.T, table *answerRecords) {
	t.Helper()
	table.mu.RLock()
	defer table.mu.RUnlock()
	counted := 0
	for enc, held := range table.m {
		counted += table.size(enc, held)
	}
	if len(table.m) > table.maxEntries || table.bytes > table.maxBytes || counted > table.bytes {
		t.Fatalf("the table holds %d entries that count %d bytes, counted %d; bounds %d and %d",
			len(table.m), counted, table.bytes, table.maxEntries, table.maxBytes)
	}
	for enc, held := range table.m {
		if held.Key == enc {
			d := binenc.NewDec([]byte(enc))
			d.Bytes()
			d.Bytes()
			d.Bytes()
			if held.Fields != nil || d.Err() != nil || d.Len() != 0 {
				t.Fatalf("an entry held under its own %d bytes is not a reply head", len(enc))
			}
			continue
		}
		if want := decodeHeld(t, enc); !reflect.DeepEqual(held, want) {
			t.Fatalf("a held record is %#v, its encoding decodes to %#v", held, want)
		}
	}
}

// TestAnswerTextsConcurrent: goroutines decode a rotating mix of
// identical and differing replies through one table, whose records are
// partly their own and partly shared with other replies, more than the
// table has room for, each from a frame buffer of its own that is
// overwritten after the decode, and reverse each answer's records; every
// answer is what a fresh decode gives, and after every pass every record
// the table holds is what its encoding decodes to. make stress runs it
// under the race detector.
func TestAnswerTextsConcurrent(t *testing.T) {
	const (
		workers = 8
		replies = 2048
		passes  = 6
		rounds  = 100 // per pass
	)
	pad := strings.Repeat("z", 2*maxHeldBytes/replies)
	shared := make([][]byte, 5)
	for i := range shared {
		shared[i] = encRecord(Record{Key: fmt.Sprintf("Mds-Host-hn=lucky%d", 4+i),
			Fields: map[string]string{"Mds-Cpu-Free-1minX100": "50", "Mds-Cpu-speedMHz": "2400"}})
	}
	bodies := make([][]byte, replies)
	wants := make([]*ResultSet, replies)
	for i := range bodies {
		own := encRecord(Record{Key: "Mds-Host-hn=lucky3", Fields: map[string]string{"Mds-Cpu-Free-1minX100": fmt.Sprintf("%d%s", i, pad)}})
		bodies[i] = recordsReply(section(own, shared[i%5], shared[(i+1)%5]), i, i%3)
		var err error
		if wants[i], err = DecodeReply(bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	table := newAnswerRecords()
	for pass := 0; pass < passes; pass++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var frame []byte
				for r := pass * rounds; r < (pass+1)*rounds; r++ {
					// Half the rounds ask one of a few hot replies, half
					// sweep the rest.
					i := (r*workers + w) % replies
					if r%2 == 0 {
						i = r % 5
					}
					frame = append(frame[:0], bodies[i]...)
					got, err := decodeSharedReply(&table, frame)
					for j := range frame {
						frame[j] = 0
					}
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, wants[i]) {
						t.Errorf("reply %d decoded %#v, want %#v", i, got, wants[i])
						return
					}
					slices.Reverse(got.Records)
				}
			}(w)
		}
		wg.Wait()
		checkHeldRecords(t, &table)
	}
}
