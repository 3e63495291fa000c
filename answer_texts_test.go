package gridmon

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// textReply is a reply of one record whose value is value, with the
// given Elapsed and cache-hit count, which lie past the answer's text.
func textReply(value string, elapsed, hits int) []byte {
	return appendWireResultSet(nil, &ResultSet{System: MDS, Role: RoleAggregateServer,
		Records: []Record{{Key: "Mds-Host-hn=lucky3", Fields: map[string]string{"Mds-Cpu-Free-1minX100": value}}},
		Work:    Work{RecordsReturned: 1, CacheHits: hits}, Elapsed: 1000 * time.Duration(elapsed)}, nil)
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

// TestAnswerTextsByteCap: a text over maxAnswerTextBytes is never kept,
// and the texts kept never add up to more than that.
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
}

// TestAnswerTextsConcurrent: goroutines decode a rotating mix of
// identical and differing replies through one table, more texts than it
// has slots and bytes, each from a frame buffer of its own that is
// overwritten after the decode; every answer is what a fresh decode
// gives. make stress runs it under the race detector.
func TestAnswerTextsConcurrent(t *testing.T) {
	const (
		workers = 8
		replies = 2 * maxAnswerTexts
		rounds  = 600
	)
	pad := strings.Repeat("z", 2*maxAnswerTextBytes/maxAnswerTexts)
	bodies := make([][]byte, replies)
	wants := make([]*ResultSet, replies)
	for i := range bodies {
		bodies[i] = textReply(fmt.Sprintf("%d%s", i, pad), i, i%3)
		var err error
		if wants[i], err = DecodeReply(bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	texts := newAnswerTexts()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var frame []byte
			for r := 0; r < rounds; r++ {
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
			}
		}(w)
	}
	wg.Wait()
	if texts.bytes > maxAnswerTextBytes {
		t.Errorf("the table holds %d bytes", texts.bytes)
	}
}
