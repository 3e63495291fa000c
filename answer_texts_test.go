package gridmon

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/binenc"
	"repro/internal/core"
)

// textReply is a reply of one record whose value is value, with the
// given Elapsed and cache-hit count, which lie past the answer's text.
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

// decodeEqual decodes body through texts and fails unless the answer is
// what DecodeReply gives.
func decodeEqual(t *testing.T, texts *answerTexts, body []byte) *ResultSet {
	t.Helper()
	want, err := DecodeReply(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSharedReply(texts, body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %#v, DecodeReply %#v", got, want)
	}
	return got
}

// TestAnswerTextsShareIdenticalReplies: two replies whose texts are
// byte-identical decode onto one copy, though their Elapsed and Work
// differ; the text does not alias the frame.
func TestAnswerTextsShareIdenticalReplies(t *testing.T) {
	texts := newAnswerTexts()
	first := textReply("77", 1, 0)
	a := decodeEqual(t, &texts, first)
	for i := range first {
		first[i] = 0xff // the frame buffer is reused
	}
	b := decodeEqual(t, &texts, textReply("77", 2, 1))
	if textOf(a) != textOf(b) {
		t.Error("two identical answers hold two copies of their text")
	}
	if v := a.Records[0].Fields["Mds-Cpu-Free-1minX100"]; v != "77" {
		t.Errorf("after the frame was reused, the first answer's value is %q", v)
	}
}

// TestAnswerTextsMissOnOneByte: a reply whose text differs from a held
// one in one byte of a value gets a text of its own.
func TestAnswerTextsMissOnOneByte(t *testing.T) {
	texts := newAnswerTexts()
	a := decodeEqual(t, &texts, textReply("77", 1, 0))
	b := decodeEqual(t, &texts, textReply("78", 1, 0))
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
// text, in Elapsed or in Work, get the same field map in each record but
// record lists of their own, the first decode's and the repeats' alike,
// so reversing two leaves the third's order and the next one's as they
// were; a reply that differs in one record byte shares no map.
func TestAnswerTextsShareFieldMaps(t *testing.T) {
	sec := core.AppendRecords(nil, threeRecords("77"))
	for _, tc := range []struct {
		name          string
		elapsed, hits int
	}{{"elapsed", 2, 0}, {"work", 1, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			texts := newAnswerTexts()
			a := decodeEqual(t, &texts, recordsReply(sec, 1, 0))
			b := decodeEqual(t, &texts, recordsReply(sec, tc.elapsed, tc.hits))
			c := decodeEqual(t, &texts, recordsReply(sec, tc.elapsed, tc.hits))
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
			if d := decodeEqual(t, &texts, recordsReply(sec, 3, 2)); d.Records[0].Key != "Mds-Host-hn=lucky3" {
				t.Errorf("after earlier answers were reversed, a later one begins with %q", d.Records[0].Key)
			}
		})
	}

	texts := newAnswerTexts()
	a := decodeEqual(t, &texts, recordsReply(sec, 1, 0))
	other := bytes.Replace(sec, []byte("77"), []byte("78"), 1)
	b := decodeEqual(t, &texts, recordsReply(other, 1, 0))
	for i := range a.Records {
		for j := range b.Records {
			if a.Records[i].Fields != nil && mapOf(a.Records[i].Fields) == mapOf(b.Records[j].Fields) {
				t.Errorf("answers that differ in a value share a field map (records %d and %d)", i, j)
			}
		}
	}
}

// TestAnswerTextsKeepNilRecords: a repeated answer keeps its Records nil
// when its section is nil and empty when it is empty, as the first
// decode and DecodeReply do.
func TestAnswerTextsKeepNilRecords(t *testing.T) {
	texts := newAnswerTexts()
	for _, tc := range []struct {
		name string
		recs []Record
	}{{"nil", nil}, {"empty", []Record{}}} {
		for pass := 0; pass < 2; pass++ {
			rs := decodeEqual(t, &texts, recordsReply(core.AppendRecords(nil, tc.recs), pass, 0))
			if (rs.Records == nil) != (tc.recs == nil) || len(rs.Records) != 0 {
				t.Errorf("%s section, decode %d: Records is %#v", tc.name, pass, rs.Records)
			}
		}
	}
	if n := len(texts.m); n != 2 {
		t.Errorf("the table holds %d answers, want the two sections", n)
	}
}

// TestAnswerTextsByteCap: an answer that counts over maxAnswerTextBytes
// is never kept, and the answers kept never count more than that. What
// an answer counts is no less than what holding it costs: for every
// AnswerCorpus answer, the bytes its text's copy and its records' decode
// allocate. Filled with the whole corpus, the table holds no more than
// maxAnswerTextBytes of them.
func TestAnswerTextsByteCap(t *testing.T) {
	texts := newAnswerTexts()
	huge := textReply(strings.Repeat("x", maxAnswerTextBytes), 1, 0)
	a, b := decodeEqual(t, &texts, huge), decodeEqual(t, &texts, huge)
	if textOf(a) == textOf(b) {
		t.Error("a text over the byte cap was kept")
	}
	if texts.bytes != 0 {
		t.Errorf("the table holds %d bytes after a text over the cap", texts.bytes)
	}
	// Texts of a quarter of the cap each: the table starts over rather
	// than hold a fifth.
	for i := 0; i < 12; i++ {
		decodeEqual(t, &texts, textReply(fmt.Sprintf("%d%s", i, strings.Repeat("y", maxAnswerTextBytes/4-64)), 1, 0))
		if texts.bytes > maxAnswerTextBytes {
			t.Fatalf("after %d texts the table holds %d bytes", i+1, texts.bytes)
		}
	}

	texts = newAnswerTexts()
	held := make(map[string]int) // each corpus answer's text and its measured bytes
	for _, body := range corpusReplies(t) {
		decodeEqual(t, &texts, body)
		text, measured := heldBytes(t, body)
		held[text] = measured
		if counted := texts.size(text, heldAnswer{text, decodeHeld(t, text)}); counted < measured {
			t.Errorf("an answer of %d text bytes counts %d, holding it costs %d", len(text), counted, measured)
		}
		checkBounded(t, &texts)
		real := 0
		texts.mu.RLock()
		for text := range texts.m {
			real += held[text]
		}
		texts.mu.RUnlock()
		if real > maxAnswerTextBytes {
			t.Fatalf("the table holds answers that cost %d bytes", real)
		}
	}
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

// heldBytes returns the text of body's answer and the bytes holding it
// costs: its copy and its records' decode. Other goroutines' allocations
// land in the same counter, so the least of a few readings counts.
func heldBytes(t *testing.T, body []byte) (string, int) {
	t.Helper()
	d := binenc.NewDec(body)
	var rs ResultSet
	decodeWireHeadInto(&d, &rs)
	scanRecords(&d, body, nil)
	text := body[:len(body)-d.Len()]
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&before)
		s := string(text)
		d := binenc.NewDecPrefix(text, s)
		decodeWireHeadInto(&d, &rs)
		rs.Records = core.DecodeRecords(&d)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return string(text), int(least)
}

// decodeHeld is what a copying decode of an answer text gives for its
// records; it fails unless the text is exactly a head and a record
// section.
func decodeHeld(t *testing.T, text string) []Record {
	t.Helper()
	d := binenc.NewDec([]byte(text))
	var rs ResultSet
	decodeWireHeadInto(&d, &rs)
	recs := core.DecodeRecords(&d)
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("a held text of %d bytes is not a head and a record section", len(text))
	}
	return recs
}

// checkHeldAnswers fails unless every answer texts holds is keyed by its
// own text and holds what a copying decode of that text gives, so no
// code wrote into a shared field map or reordered a held record list,
// and unless texts is within its bounds.
func checkHeldAnswers(t *testing.T, texts *answerTexts) {
	t.Helper()
	checkBounded(t, texts)
	texts.mu.RLock()
	defer texts.mu.RUnlock()
	for text, a := range texts.m {
		if a.text != text {
			t.Fatalf("an answer of %d text bytes is held under a key of %d", len(a.text), len(text))
		}
		if want := decodeHeld(t, text); !reflect.DeepEqual(a.records, want) {
			t.Fatalf("a held answer's records are %#v, its text decodes to %#v", a.records, want)
		}
	}
}

// TestAnswerTextsConcurrent: goroutines decode a rotating mix of
// identical and differing replies through one table, more texts than it
// has slots and bytes, each from a frame buffer of its own that is
// overwritten after the decode, and reverse each answer's records; every
// answer is what a fresh decode gives, and after every pass every answer
// the table holds is what its text decodes to. make stress runs it under
// the race detector.
func TestAnswerTextsConcurrent(t *testing.T) {
	const (
		workers = 8
		replies = 2 * maxAnswerTexts
		passes  = 6
		rounds  = 100 // per pass
	)
	pad := strings.Repeat("z", 2*maxAnswerTextBytes/maxAnswerTexts)
	bodies := make([][]byte, replies)
	wants := make([]*ResultSet, replies)
	for i := range bodies {
		bodies[i] = recordsReply(core.AppendRecords(nil, []Record{
			{Key: "Mds-Host-hn=lucky3", Fields: map[string]string{"Mds-Cpu-Free-1minX100": fmt.Sprintf("%d%s", i, pad)}},
			{Key: "Mds-Host-hn=lucky4", Fields: map[string]string{"Mds-Cpu-Free-1minX100": "50", "Mds-Cpu-speedMHz": "2400"}},
		}), i, i%3)
		var err error
		if wants[i], err = DecodeReply(bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	texts := newAnswerTexts()
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
					got, err := decodeSharedReply(&texts, frame)
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
		checkHeldAnswers(t, &texts)
	}
}
