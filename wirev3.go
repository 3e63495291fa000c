package gridmon

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/transport"
)

// This file is the typed record section of the v3 wire format: binary
// encode/decode for the public request/response shapes (Query,
// ResultSet, Record, Work, Event, Subscription), composed from the
// internal/binenc primitives. The transport layer carries bodies as
// opaque bytes, so the codecs live here, next to the types they encode —
// the root package owns the types and the transport package cannot
// import it.
//
// Every codec comes in append/decode-into pairs: encoders extend a
// caller-owned []byte; decoders write every field of the value they are
// handed, straight-line, and keep nothing it held before. An event
// travels as its record section: rendered once into pooled scratch,
// copied once by its Stream, appended to the frame as it is by every
// subscribe pump (a Router's relaying a leaf's stream too), so in the
// engine's field order, and decoded only by Stream.Next. A client walks
// each event of a batch as core.DecodeRecords would decode it and keeps
// it as a view of one copy of the batch's body: one allocation however
// many events it spans, never aliasing the connection's pooled frame
// buffer, and alive while any of its events or strings is retained.
// Every querier decodes a reply through a table of its own
// (RecordTable): Grid and the federation Router the reply their own
// AppendQuery appends, RemoteGrid the frame it received. The table holds
// each record it decoded under the record's bytes, and a later answer
// that carries those bytes shares the held Key and field map. The
// records and head an answer brings new are copied together into one
// string and decoded from it (core.DecodeRecord, the one record
// decoder); only branch error texts, past the records, are copied one by
// one. A server copies no grid.query request: its strings resolve
// through the table of those it has seen (requests, memo.go). It decodes
// no reply either: its source appends one to the handler's buffer
// (AppendQuerier). A Grid copies in the record section its answer was
// rendered as (core.Answer), a RemoteGrid copies the body it received
// once it has walked it (scanWireReply), and the federation Router
// relays its branches' bytes: a routed reply restamped (StampElapsed),
// broad ones' records sorted by key into one reply (MergeReplies).
// Counts read off the wire are bounded by the bytes left in the frame
// (Dec.Count) before anything is sized by them.
//
// Nil-ness is preserved exactly as a JSON round trip preserves it, so a
// decoded value is reflect.DeepEqual to the same value sent through
// encoding/json (jsonRT in the tests; see TestProtoQueryEquivalence):
// slices whose JSON tag lacks omitempty (ResultSet.Records,
// Event.Records) distinguish nil from empty on the wire (count+1
// encoding, 0 = nil); omitempty slices and maps (Query.Attrs,
// Record.Fields, ResultSet.Branches) decode empty as nil, which is what
// their JSON absence decodes to.

// appendWireQuery appends q's binary encoding to b.
func appendWireQuery(b []byte, q Query) []byte {
	b = binenc.AppendString(b, string(q.System))
	b = binenc.AppendString(b, string(q.Role))
	b = binenc.AppendString(b, q.Host)
	b = binenc.AppendString(b, q.Expr)
	return appendWireStrings(b, q.Attrs)
}

// appendWireStrings appends an omitempty-style string slice (nil and
// empty both encode as count 0 and decode as nil, matching JSON
// omitempty round-trip behavior).
func appendWireStrings(b []byte, ss []string) []byte {
	b = binenc.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = binenc.AppendString(b, s)
	}
	return b
}

// decodeWireStrings decodes an omitempty-style string slice (a string
// is at least its one length byte).
func decodeWireStrings(d *binenc.Dec) []string {
	n := d.Count(d.Uvarint(), 1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}

// appendWireWork appends w's binary encoding: the float64 invocation
// count as fixed bits, then the nine integer counters as varints. Every
// Work field crosses the wire; a new counter must be added here and in
// decodeWireWorkInto (the wire_test.go round-trip test fails loudly on a
// field this codec misses).
func appendWireWork(b []byte, w *Work) []byte {
	b = binenc.AppendFloat64(b, w.CollectorInvocations)
	b = binenc.AppendVarint(b, int64(w.RecordsVisited))
	b = binenc.AppendVarint(b, int64(w.RecordsReturned))
	b = binenc.AppendVarint(b, int64(w.Subqueries))
	b = binenc.AppendVarint(b, int64(w.ThreadSpawns))
	b = binenc.AppendVarint(b, int64(w.ResponseBytes))
	b = binenc.AppendVarint(b, int64(w.IndexHits))
	b = binenc.AppendVarint(b, int64(w.ScanFallbacks))
	b = binenc.AppendVarint(b, int64(w.CacheHits))
	b = binenc.AppendVarint(b, int64(w.CacheMisses))
	return b
}

// decodeWireWorkInto decodes a Work into w.
func decodeWireWorkInto(d *binenc.Dec, w *Work) {
	w.CollectorInvocations = d.Float64()
	w.RecordsVisited = int(d.Varint())
	w.RecordsReturned = int(d.Varint())
	w.Subqueries = int(d.Varint())
	w.ThreadSpawns = int(d.Varint())
	w.ResponseBytes = int(d.Varint())
	w.IndexHits = int(d.Varint())
	w.ScanFallbacks = int(d.Varint())
	w.CacheHits = int(d.Varint())
	w.CacheMisses = int(d.Varint())
}

// appendWireResultSet appends rs's binary encoding to b, with ans's
// record section in place of rs.Records when ans is not nil.
func appendWireResultSet(b []byte, rs *ResultSet, ans *core.Answer) []byte {
	b = appendWireHead(b, rs)
	if ans != nil {
		b = append(b, ans.Enc...)
	} else {
		b = core.AppendRecords(b, rs.Records)
	}
	return appendWireTail(b, rs)
}

// appendWireHead appends what precedes a ResultSet's records.
func appendWireHead(b []byte, rs *ResultSet) []byte {
	b = binenc.AppendString(b, string(rs.System))
	b = binenc.AppendString(b, string(rs.Role))
	return binenc.AppendString(b, rs.Host)
}

// appendWireTail appends what follows a ResultSet's records.
func appendWireTail(b []byte, rs *ResultSet) []byte {
	b = appendWireWork(b, &rs.Work)
	b = binenc.AppendVarint(b, int64(rs.Elapsed))
	var partial byte
	if rs.Partial {
		partial = 1
	}
	b = append(b, partial)
	b = binenc.AppendUvarint(b, uint64(len(rs.Branches)))
	for i := range rs.Branches {
		be := &rs.Branches[i]
		b = binenc.AppendVarint(b, int64(be.Shard))
		b = binenc.AppendString(b, be.Addr)
		b = binenc.AppendString(b, string(be.Code))
		b = binenc.AppendString(b, be.Message)
	}
	return b
}

// decodeWireResultSetInto decodes a ResultSet into rs.
func decodeWireResultSetInto(d *binenc.Dec, rs *ResultSet) {
	decodeWireHeadInto(d, rs)
	rs.Records = core.DecodeRecords(d)
	decodeWireTailInto(d, rs)
}

// decodeWireHeadInto decodes what precedes a ResultSet's records into rs.
func decodeWireHeadInto(d *binenc.Dec, rs *ResultSet) {
	rs.System = System(d.String())
	rs.Role = Role(d.String())
	rs.Host = d.String()
}

// decodeWireTailInto decodes what follows a ResultSet's records into rs.
func decodeWireTailInto(d *binenc.Dec, rs *ResultSet) {
	decodeWireWorkInto(d, &rs.Work)
	rs.Elapsed = time.Duration(d.Varint())
	rs.Partial = d.Byte() == 1
	rs.Branches = nil
	// A branch is a shard varint and three length bytes at least.
	if nb := d.Count(d.Uvarint(), 4); nb > 0 {
		rs.Branches = make([]BranchError, nb)
	}
	for i := range rs.Branches {
		be := &rs.Branches[i]
		be.Shard = int(d.Varint())
		be.Addr = d.String()
		be.Code = ErrorCode(d.String())
		be.Message = d.String()
	}
}

// wireRecord is one record of a reply body: its key and its whole
// encoding, views into the body.
type wireRecord struct{ key, enc []byte }

// wireReply is a reply body's Work and the offsets of its Elapsed, of
// what follows Elapsed, and of its end.
type wireReply struct {
	work               Work
	elapsed, tail, end int
}

// scanWireReply reads past a reply body as decodeWireResultSetInto
// decodes it, accepting exactly what that function accepts, but cuts no
// string and decodes only the Work. When recs is not nil, each record
// is appended to *recs.
func scanWireReply(body []byte, recs *[]wireRecord) (r wireReply, err error) {
	d := binenc.NewDec(body)
	d.Bytes() // System
	d.Bytes() // Role
	d.Bytes() // Host
	scanRecords(&d, body, recs)
	decodeWireWorkInto(&d, &r.work)
	r.elapsed = len(body) - d.Len()
	d.Varint()
	r.tail = len(body) - d.Len()
	d.Byte()
	nb := d.Count(d.Uvarint(), 4) // a branch is a shard varint and three length bytes at least
	for i := 0; i < nb; i++ {
		d.Varint()
		d.Bytes()
		d.Bytes()
		d.Bytes()
	}
	r.end = len(body) - d.Len()
	return r, d.Err()
}

// scanRecords reads past the record section at d, which reads body, as
// core.DecodeRecords decodes it. When recs is not nil, each record is
// appended to *recs.
func scanRecords(d *binenc.Dec, body []byte, recs *[]wireRecord) {
	if n1 := d.Uvarint(); n1 > 0 {
		n := d.Count(n1-1, 2) // a record is its key's length byte and its field count at least
		for i := 0; i < n; i++ {
			if r := nextRecord(d, body); recs != nil && d.Err() == nil {
				*recs = append(*recs, r)
			}
		}
	}
}

// nextRecord reads past the record at d, which reads body, and returns
// it.
func nextRecord(d *binenc.Dec, body []byte) wireRecord {
	from := len(body) - d.Len()
	key := d.Bytes()
	nf := d.Count(d.Uvarint(), 2) // a field is two length bytes at least
	for j := 0; j < nf; j++ {
		d.Bytes()
		d.Bytes()
	}
	return wireRecord{key: key, enc: body[from : len(body)-d.Len()]}
}

// DecodeReply decodes a grid.query reply body, as AppendQuery appends
// one. Its strings are substrings of one copy of body.
func DecodeReply(body []byte) (*ResultSet, error) {
	d := binenc.NewDecText(body)
	var rs ResultSet
	decodeWireResultSetInto(&d, &rs)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return &rs, nil
}

// answerRecords holds the records a client decoded last, keyed by their
// encoding (a wireRecord's enc), so a record decoded before, in any
// answer, reuses its Key and its Fields map, which nothing may write. A
// reply head is held as a Record whose Key is its whole encoding; a
// record's Key is always shorter than its encoding.
type answerRecords = boundedMap[string, Record]

const maxHeldBytes = 4 << 20

func newAnswerRecords() answerRecords {
	// An entry counts its encoding, perRecord, and perField per field.
	// Past its encoding, holding an AnswerCorpus record costs at most 440
	// bytes with up to eight fields, 785 with 9 and 1,377 with 23,
	// go1.24.0 linux/amd64: its copy's rounding to a size class, its field
	// map and its table slot; under GOEXPERIMENT=noswissmap 456, 761 and
	// 1,353, and 1,641 when a map of 23 takes an overflow bucket (a third
	// of decodes). TestAnswerTextsByteCap holds every corpus record to it.
	// Every entry counts perRecord, so the byte bound bounds entries too.
	const perRecord, perField = 416, 56
	return newBoundedMap(maxHeldBytes/perRecord, maxHeldBytes, maxHeldBytes, func(enc string, r Record) int {
		return len(enc) + perRecord + perField*len(r.Fields)
	})
}

// newPart is a part of a reply its client's table lacks, and its
// encoding: record at of the answer's Records, or its head when at is -1.
type newPart struct {
	at  int
	enc []byte
}

// newParts pools the lists of newParts decodeSharedReply keeps.
var newParts = sync.Pool{New: func() any { return new([]newPart) }}

// decodeSharedReply is DecodeReply with every record's decode shared
// through t. The records and head t lacks are copied together into one
// new string, decoded from their substrings and stored at once, counted
// as the whole copy, repeats included, so no entry keeps alive bytes t
// does not count. A reply t holds all of costs its ResultSet, its
// []Record and its tail. Nothing is kept from a reply that does not
// decode, or whose copy counts over maxHeldBytes.
func decodeSharedReply(t *answerRecords, body []byte) (*ResultSet, error) {
	d := binenc.NewDec(body)
	d.Bytes() // System
	d.Bytes() // Role
	d.Bytes() // Host
	var rs ResultSet
	var head Record
	list := newParts.Get().(*[]newPart)
	news, missing := (*list)[:0], 0
	t.mu.RLock()
	if enc := body[:len(body)-d.Len()]; d.Err() == nil {
		if held, ok := t.m[string(enc)]; ok && len(held.Key) == len(enc) {
			head = held
		} else {
			news, missing = append(news, newPart{-1, enc}), len(enc)
		}
	}
	if n1 := d.Uvarint(); n1 > 0 {
		rs.Records = make([]Record, d.Count(n1-1, 2)) // a record is its key's length byte and its field count at least
		for i := range rs.Records {
			enc := nextRecord(&d, body).enc
			if held, ok := t.m[string(enc)]; ok && len(held.Key) < len(enc) {
				rs.Records[i] = held
			} else if d.Err() == nil {
				news, missing = append(news, newPart{i, enc}), missing+len(enc)
			}
		}
	}
	t.mu.RUnlock()
	decodeWireTailInto(&d, &rs)
	if err := d.Err(); err != nil {
		giveBack(&newParts, list, news)
		return nil, err
	}
	at := func(i int) *Record {
		if i < 0 {
			return &head
		}
		return &rs.Records[i]
	}
	var sb strings.Builder
	sb.Grow(missing)
	for _, p := range news {
		sb.Write(p.enc)
	}
	text, off, size := sb.String(), 0, 0
	for _, p := range news {
		enc := text[off : off+len(p.enc)]
		if off += len(p.enc); p.at < 0 {
			head.Key = enc
		} else {
			rd := binenc.NewDecPrefix(p.enc, enc)
			rs.Records[p.at] = core.DecodeRecord(&rd)
		}
		size += t.size(enc, *at(p.at))
	}
	if size > 0 && size <= t.maxValue {
		t.mu.Lock()
		t.room(len(news), size)
		for _, p := range news {
			t.m[text[:len(p.enc)]], text = *at(p.at), text[len(p.enc):]
		}
		t.mu.Unlock()
	}
	giveBack(&newParts, list, news)
	h := binenc.NewDecPrefix(body, head.Key)
	decodeWireHeadInto(&h, &rs)
	return &rs, nil
}

// StampElapsed rewrites in place the Elapsed of the reply body b[from:]
// holds, as AppendQuery appended it, and drops anything past the reply:
// an aggregator relaying one branch's reply stamps its own round trip on
// it. If b[from:] is not a well-formed reply, b comes back as it was.
func StampElapsed(b []byte, from int, elapsed time.Duration) []byte {
	r, err := scanWireReply(b[from:], nil)
	if err != nil {
		return b
	}
	var v [binary.MaxVarintLen64]byte
	stamp := binenc.AppendVarint(v[:0], int64(elapsed))
	return slices.Replace(b[:from+r.end], from+r.elapsed, from+r.tail, stamp...)
}

// mergeScratch pools the record lists MergeReplies sorts.
var mergeScratch = sync.Pool{New: func() any { return new([]wireRecord) }}

// MergeReplies appends to dst the reply that merges bodies, the replies
// q's branches gave, in branch order, as federation.MergeResultSets
// merges answers: the records' bytes copied unchanged, stably sorted by
// key, always present, even none; Work summed; System, Role and Host
// from q. The branches' Elapsed, Partial and Branches are ignored: the
// merge carries elapsed, and failed, Partial when not empty. Nothing is
// decoded, and the sort runs on pooled scratch. A body that does not
// decode fails the merge and leaves dst as it was.
func MergeReplies(dst []byte, q Query, bodies [][]byte, failed []BranchError, elapsed time.Duration) ([]byte, error) {
	rs := ResultSet{System: q.System, Role: q.Role, Host: q.Host, Elapsed: elapsed,
		Partial: len(failed) > 0, Branches: failed}
	if rs.Role == "" {
		rs.Role = RoleInformationServer
	}
	scratch := mergeScratch.Get().(*[]wireRecord)
	recs := (*scratch)[:0]
	var err error
	for _, body := range bodies {
		var r wireReply
		if r, err = scanWireReply(body, &recs); err != nil {
			break
		}
		rs.Work.Add(r.work)
	}
	if err == nil {
		slices.SortStableFunc(recs, func(a, b wireRecord) int { return bytes.Compare(a.key, b.key) })
		dst = appendWireHead(dst, &rs)
		dst = binenc.AppendUvarint(dst, uint64(len(recs))+1)
		for _, r := range recs {
			dst = append(dst, r.enc...)
		}
		dst = appendWireTail(dst, &rs)
	}
	giveBack(&mergeScratch, scratch, recs)
	return dst, err
}

// appendWireSubscription appends sub's binary encoding to b.
func appendWireSubscription(b []byte, sub Subscription) []byte {
	b = binenc.AppendString(b, string(sub.System))
	b = binenc.AppendString(b, string(sub.Role))
	b = binenc.AppendString(b, sub.Host)
	b = binenc.AppendString(b, sub.Expr)
	b = appendWireStrings(b, sub.Attrs)
	b = binenc.AppendFloat64(b, sub.PollEvery)
	return binenc.AppendVarint(b, int64(sub.Buffer))
}

// decodeWireSubscriptionInto decodes a Subscription into sub.
func decodeWireSubscriptionInto(d *binenc.Dec, sub *Subscription) {
	sub.System = System(d.String())
	sub.Role = Role(d.String())
	sub.Host = d.String()
	sub.Expr = d.String()
	sub.Attrs = decodeWireStrings(d)
	sub.PollEvery = d.Float64()
	sub.Buffer = int(d.Varint())
}

// The batched event frame body of a v3 grid.subscribe stream: a uvarint
// entry count, then that many tagged entries. The subscribe pump
// coalesces up to maxEventBatch pending entries per flush (one blocking
// wait, then whatever is immediately available), preserving Seq ordering
// and the position of lag reports in the sequence.
const (
	wireEntryEvent  = 0 // an event (appendWireEntry encoding)
	wireEntryLag    = 1 // uvarint drop count from the serving stream
	wireEntryBuffer = 2 // uvarint effective buffer bound (the first frame, alone)
)

// maxEventBatch bounds how many entries one v3 event frame coalesces;
// maxEventBatchBytes additionally bounds the encoded batch, so a backlog
// of large events flushes as several moderate frames rather than one
// giant one — keeping time-to-first-delivery low and bounding how much a
// mid-frame connection loss can take down with it. A single oversized
// event still ships alone (the cap is checked between entries, never
// splitting one).
const (
	maxEventBatch      = 32
	maxEventBatchBytes = 1 << 10
)

// ServeQueryV3 is the registration of grid.query for source on srv. The
// op speaks only the binary codec: requests decode straight from the
// frame, their strings resolved through the server's table, and answers
// encode straight into the server's pooled response buffer — no
// intermediate JSON, and no field map when source appends its replies
// (see queryV3). A JSON-bodied grid.query is refused with bad_request.
func ServeQueryV3(srv *TransportServer, source Querier) {
	srv.HandleV3("grid.query", queryV3(source))
}

// AppendQuerier is a source that appends its grid.query reply bodies to
// a buffer the caller lends, and on an error leaves what the buffer
// holds as it was: Grid, RemoteGrid and the federation Router.
type AppendQuerier interface {
	AppendQuery(ctx context.Context, q Query, dst []byte) ([]byte, error)
}

// RecordTable is the one decode of every querier: Grid, RemoteGrid and
// the federation Router each decode their replies through a table of
// their own, which keeps 4 MiB of the records it decoded (answerRecords).
// A record byte-identical to one the table decoded before, in any
// answer, is that record, Key and field map included; the records and
// head it lacked are cut from one copy of their bytes, so a retained
// Record keeps alive what was new in the answer that first brought it —
// clone the strings to keep a few fields of a large answer for long. The
// caller owns each ResultSet and its Records slice, but not the field
// maps, which it must not write. The zero value is ready to use.
type RecordTable struct {
	once    sync.Once
	records answerRecords
}

// decode decodes body, as DecodeReply does, through t.
func (t *RecordTable) decode(body []byte) (*ResultSet, error) {
	t.once.Do(func() { t.records = newAnswerRecords() })
	return decodeSharedReply(&t.records, body)
}

// replies pools the buffers RecordTable.Query appends a reply to.
var replies = sync.Pool{New: func() any { return new([]byte) }}

// Query answers q as source appends its reply, into a pooled buffer,
// decoded through t, with Elapsed the whole call's.
func (t *RecordTable) Query(ctx context.Context, source AppendQuerier, q Query) (rs *ResultSet, err error) {
	start := time.Now()
	buf := replies.Get().(*[]byte)
	if *buf, err = source.AppendQuery(ctx, q, (*buf)[:0]); err == nil {
		if rs, err = t.decode(*buf); err == nil {
			rs.Elapsed = time.Since(start)
		}
	}
	replies.Put(buf)
	return rs, err
}

// queryV3 is the binary body of grid.query for source. A source that
// appends its replies appends into the server's pooled response buffer;
// any other Querier's ResultSet is encoded as it is.
func queryV3(source Querier) transport.V3Handler {
	answer := func(ctx context.Context, q Query, out []byte) ([]byte, error) {
		rs, err := source.Query(ctx, q)
		if err != nil {
			return nil, err
		}
		return appendWireResultSet(out, rs, nil), nil
	}
	if aq, ok := source.(AppendQuerier); ok {
		answer = aq.AppendQuery
	}
	return func(ctx context.Context, body []byte, out []byte) ([]byte, *transport.Error) {
		var q Query
		if err := requests.decodeQuery(body, &q); err != nil {
			return nil, transport.Errf(transport.CodeBadRequest, "grid.query: %v", transport.AsError(err))
		}
		b, err := answer(ctx, q, out)
		if err != nil {
			return nil, transport.AsError(err)
		}
		return b, nil
	}
}

// ServeSubscribe registers the grid.subscribe streaming op backed by any
// Subscriber — the in-process Grid, or a federation Router proxying the
// stream to the shard that owns the host. The request (a Subscription)
// decodes from the frame. The first frame is the buffer preamble alone;
// then events, each its record section as the stream holds it, are
// delivered as batched binary frames — up to maxEventBatch entries per
// flush under fan-out. Lag reports ride the same entry stream, so
// ordering and Dropped() accounting match the in-process stream.
// Cancellation propagates both ways (a client cancel detaches the
// serving-side sources; a serving-side source failure ends the client's
// stream with the structured error).
func ServeSubscribe(srv *TransportServer, source Subscriber) {
	srv.HandleStreamV3("grid.subscribe", func(ctx context.Context, body []byte) (transport.V3StreamFunc, *transport.Error) {
		var sub Subscription
		d := binenc.NewDecText(body)
		decodeWireSubscriptionInto(&d, &sub)
		if err := d.Err(); err != nil {
			return nil, transport.Errf(transport.CodeBadRequest, "grid.subscribe: %v", transport.AsError(err))
		}
		st, err := source.Subscribe(ctx, sub)
		if err != nil {
			return nil, transport.AsError(err)
		}
		run := func(send transport.V3Send) error {
			defer st.Close()
			// The preamble, alone in the first frame, carries the serving
			// grid's effective buffer bound, so the client's buffer is the
			// server's.
			if serr := send(func(b []byte) []byte {
				return binenc.AppendUvarint(append(binenc.AppendUvarint(b, 1), wireEntryBuffer), uint64(st.Buffer()))
			}); serr != nil {
				return serr
			}
			// scratch holds the encoded entries of the batch being
			// assembled; it grows once and is reused per flush.
			scratch := make([]byte, 0, 1024)
			waiting, stop := context.WithCancel(ctx) // done: next takes only what is buffered
			stop()
			for {
				// Block for the first entry, then coalesce whatever is
				// already waiting, up to the batch bound.
				ev, dropped, err := st.next(ctx)
				if err != nil {
					if errors.Is(err, context.Canceled) || errors.Is(err, ErrStreamClosed) {
						return nil
					}
					return err
				}
				scratch = appendWireEntry(scratch[:0], &ev, dropped)
				count := 1
				for ; count < maxEventBatch && len(scratch) < maxEventBatchBytes; count++ {
					ev, dropped, err := st.next(waiting)
					if err != nil {
						break
					}
					scratch = appendWireEntry(scratch, &ev, dropped)
				}
				if serr := send(func(b []byte) []byte {
					b = binenc.AppendUvarint(b, uint64(count))
					return append(b, scratch...)
				}); serr != nil {
					return serr
				}
			}
		}
		return run, nil
	})
}

// appendWireEntry appends one entry of an event batch: a lag report
// when dropped is not 0, otherwise ev, its record section as it is.
func appendWireEntry(b []byte, ev *event, dropped uint64) []byte {
	if dropped > 0 {
		return binenc.AppendUvarint(append(b, wireEntryLag), dropped)
	}
	b = binenc.AppendUvarint(append(b, wireEntryEvent), ev.seq)
	b = binenc.AppendFloat64(b, ev.time)
	b = binenc.AppendString(b, string(ev.kind))
	b = append(b, ev.sec...)
	return appendWireWork(b, &ev.work)
}

// decodeWirePreamble decodes a stream's first frame body, which is the
// buffer preamble alone, and returns its bound, from 1 to maxStreamBuffer.
func decodeWirePreamble(body []byte) (int, error) {
	d := binenc.NewDec(body)
	one, tag, bound := d.Uvarint(), d.Byte(), d.Uvarint()
	if one != 1 || tag != wireEntryBuffer || bound == 0 || bound > maxStreamBuffer || !d.Done() {
		return 0, transport.Errf(transport.CodeProtocol,
			"grid.subscribe: the first frame is not the buffer preamble alone")
	}
	return int(bound), nil
}

// decodeWireBatch decodes one batched event frame body after the
// preamble, dispatching each entry: events to emit, lag counts to lag.
// An event's record section is walked as core.DecodeRecords decodes it,
// accepting exactly what that function accepts, and kept undecoded: the
// events of one batch are views of one copy of its body.
func decodeWireBatch(body []byte, emit func(event), lag func(uint64)) error {
	text := string(body)
	d := binenc.NewDecPrefix(body, text)
	n := d.Count(d.Uvarint(), 2) // an entry is a tag and a value at least
	for i := 0; i < n && d.Err() == nil; i++ {
		switch tag := d.Byte(); tag {
		case wireEntryEvent:
			ev := event{seq: d.Uvarint(), time: d.Float64(), kind: EventKind(d.String())}
			from := len(body) - d.Len()
			scanRecords(&d, body, nil)
			ev.sec = text[from : len(body)-d.Len()]
			if decodeWireWorkInto(&d, &ev.work); d.Err() == nil {
				emit(ev)
			}
		case wireEntryLag:
			dropped := d.Uvarint()
			if d.Err() == nil {
				lag(dropped)
			}
		default:
			return transport.Errf(transport.CodeProtocol,
				"grid.subscribe: unexpected batch entry tag %d", tag)
		}
	}
	return d.Err()
}
