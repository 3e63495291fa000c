package gridmon

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"slices"
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
// handed, straight-line, and keep nothing it held before. A client's
// decoder cuts every string of an answer or an event batch — keys, field
// names, values — out of one copy of the frame's text: the text costs at
// most one allocation however many records it spans, never aliases the
// connection's pooled frame buffer, and stays alive as a whole while any
// decoded string is retained. An event batch's text is its whole body
// (binenc.NewDecText); an answer's is its reply's head and records
// (binenc.NewDecPrefix), and only branch error texts, past it, are
// copied one by one. RemoteGrid.Query builds a new answer's []Record
// and one map per record (core.DecodeRecords, the one record decoder;
// see TestWireQueryRoundTripAllocs) and keeps them with the text in the
// client's table of recent answers (answerTexts): a repeated answer
// costs no copy and no map, only a []Record of its own over the held
// records' maps, and its tail's decode. A server copies no grid.query
// request: its strings resolve through the table of those it has seen
// (requests, memo.go). It decodes no reply either: its source appends
// one to the handler's buffer (appendQuerier). A Grid copies in the
// record section its answer was rendered as (core.Answer), a RemoteGrid
// copies the body it received once it has walked it (scanWireReply),
// and the federation Router relays its branches' bytes: a routed reply
// restamped (StampElapsed), broad ones' records sorted by key into one
// reply (MergeReplies). Counts read off the wire are bounded by the
// bytes left in the frame (Dec.Count) before anything is sized by them.
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
			from := len(body) - d.Len()
			key := d.Bytes()
			nf := d.Count(d.Uvarint(), 2) // a field is two length bytes at least
			for j := 0; j < nf; j++ {
				d.Bytes()
				d.Bytes()
			}
			if recs != nil && d.Err() == nil {
				*recs = append(*recs, wireRecord{key: key, enc: body[from : len(body)-d.Len()]})
			}
		}
	}
}

// DecodeReply decodes a grid.query reply body, as AppendQuery appends
// one. Its strings are substrings of one copy of body.
func DecodeReply(body []byte) (*ResultSet, error) {
	return decodeReply(body, binenc.NewDecText(body))
}

// decodeReply decodes the reply body d reads.
func decodeReply(body []byte, d binenc.Dec) (*ResultSet, error) {
	var rs ResultSet
	decodeWireResultSetInto(&d, &rs)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return &rs, nil
}

// answerTexts holds the answers a client decoded last, keyed by their
// text, so a reply byte-identical to an earlier one reuses its decode.
// An answer's text is its reply's head and record section: every string
// of the answer but its branch error texts, which follow Work and
// Elapsed, the parts that differ from reply to reply. It keeps
// maxAnswerTexts answers and maxAnswerTextBytes of what they count (see
// newAnswerTexts).
type answerTexts = boundedMap[string, heldAnswer]

// heldAnswer is an answer's text and the records decoded from it. The
// table owns the records slice; their field maps are shared by every
// answer decoded from the text, so nothing may write them.
type heldAnswer struct {
	text    string
	records []Record
}

const (
	maxAnswerTexts     = 1024
	maxAnswerTextBytes = 4 << 20
)

func newAnswerTexts() answerTexts {
	// An answer counts its text, perRecord for itself and for each
	// record, and perField for each field. core.DecodeRecords allocates
	// 360 bytes for an AnswerCorpus record of up to eight fields (376
	// under GOEXPERIMENT=noswissmap), its slot in the []Record and a map
	// of one group of slots, and at most 688 for one of 9 and 1,264 for
	// one of 23, go1.24.0 linux/amd64; the answer's own perRecord covers
	// the table's slot and its text's copy being rounded up to a size
	// class. TestAnswerTextsByteCap holds every corpus answer's count to
	// what holding it costs.
	const perRecord, perField = 384, 48
	return newBoundedMap(maxAnswerTexts, maxAnswerTextBytes, maxAnswerTextBytes, func(text string, a heldAnswer) int {
		n := len(text) + perRecord*(1+len(a.records))
		for _, r := range a.records {
			n += perField * len(r.Fields)
		}
		return n
	})
}

// decodeSharedReply is DecodeReply with the answer's decode shared
// through t. A reply whose text t holds gets a fresh []Record of the
// held records, so its keys, maps and strings cost nothing, and only
// its tail is decoded; any other is decoded onto a new copy of its text
// and kept.
func decodeSharedReply(t *answerTexts, body []byte) (*ResultSet, error) {
	d := binenc.NewDec(body)
	d.Bytes() // System
	d.Bytes() // Role
	d.Bytes() // Host
	scanRecords(&d, body, nil)
	if err := d.Err(); err != nil {
		return nil, err
	}
	text := body[:len(body)-d.Len()]
	held, ok := lookup(t, text)
	if !ok {
		s := string(text)
		rs, err := decodeReply(body, binenc.NewDecPrefix(body, s))
		if err == nil {
			t.put(s, heldAnswer{text: s, records: slices.Clone(rs.Records)})
		}
		return rs, err
	}
	var rs ResultSet
	h := binenc.NewDecPrefix(text, held.text)
	decodeWireHeadInto(&h, &rs)
	rs.Records = slices.Clone(held.records)
	decodeWireTailInto(&d, &rs)
	if err := d.Err(); err != nil {
		return nil, err
	}
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

// appendWireEvent appends ev's binary encoding to b.
func appendWireEvent(b []byte, ev *Event) []byte {
	b = binenc.AppendUvarint(b, ev.Seq)
	b = binenc.AppendFloat64(b, ev.Time)
	b = binenc.AppendString(b, string(ev.Kind))
	b = core.AppendRecords(b, ev.Records)
	return appendWireWork(b, &ev.Work)
}

// decodeWireEventInto decodes an Event into ev.
func decodeWireEventInto(d *binenc.Dec, ev *Event) {
	ev.Seq = d.Uvarint()
	ev.Time = d.Float64()
	ev.Kind = EventKind(d.String())
	ev.Records = core.DecodeRecords(d)
	decodeWireWorkInto(d, &ev.Work)
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
	wireEntryEvent  = 0 // an Event (appendWireEvent encoding)
	wireEntryLag    = 1 // uvarint drop count from the serving stream
	wireEntryBuffer = 2 // uvarint effective buffer bound (preamble, first frame only)
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

// appendQuerier is a source that appends its grid.query reply bodies to
// a buffer the caller lends, and on an error leaves what the buffer
// holds as it was: Grid, RemoteGrid and the federation Router.
type appendQuerier interface {
	AppendQuery(ctx context.Context, q Query, dst []byte) ([]byte, error)
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
	if aq, ok := source.(appendQuerier); ok {
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
// decodes from the frame, and events are delivered as batched binary
// frames — up to maxEventBatch entries per flush under fan-out. Lag
// reports and the buffer preamble ride the same entry stream, so
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
			// The preamble carries the serving grid's effective buffer
			// bound, so the client's buffer is the server's.
			serr := send(func(b []byte) []byte {
				b = binenc.AppendUvarint(b, 1)
				b = append(b, wireEntryBuffer)
				return binenc.AppendUvarint(b, uint64(st.Buffer()))
			})
			if serr != nil {
				return serr
			}
			// scratch holds the encoded entries of the batch being
			// assembled; it grows once and is reused per flush.
			scratch := make([]byte, 0, 1024)
			for {
				// Block for the first entry, then coalesce whatever is
				// already waiting, up to the batch bound.
				count := 0
				scratch = scratch[:0]
				ev, err := st.Next(ctx)
				switch {
				case err == nil:
					scratch = append(scratch, wireEntryEvent)
					scratch = appendWireEvent(scratch, &ev)
					count++
				default:
					var lag *LagError
					if errors.As(err, &lag) {
						scratch = append(scratch, wireEntryLag)
						scratch = binenc.AppendUvarint(scratch, lag.Dropped)
						count++
						break
					}
					if errors.Is(err, context.Canceled) || errors.Is(err, ErrStreamClosed) {
						return nil
					}
					return err
				}
				for count < maxEventBatch && len(scratch) < maxEventBatchBytes {
					ev, dropped, ok := st.tryNext()
					if !ok {
						break
					}
					if dropped > 0 {
						scratch = append(scratch, wireEntryLag)
						scratch = binenc.AppendUvarint(scratch, dropped)
					} else {
						scratch = append(scratch, wireEntryEvent)
						scratch = appendWireEvent(scratch, &ev)
					}
					count++
				}
				batch := scratch
				n := count
				if serr := send(func(b []byte) []byte {
					b = binenc.AppendUvarint(b, uint64(n))
					return append(b, batch...)
				}); serr != nil {
					return serr
				}
			}
		}
		return run, nil
	})
}

// decodeWireBatch decodes one batched event frame body, dispatching each
// entry: events to emit, lag counts to lag, the preamble bound to
// buffer. Any callback may be nil to ignore that entry kind. The events
// of one batch share one copy of its text.
func decodeWireBatch(body []byte, emit func(Event), lag func(uint64), buffer func(int)) error {
	d := binenc.NewDecText(body)
	n := d.Count(d.Uvarint(), 2) // an entry is a tag and a value at least
	for i := 0; i < n && d.Err() == nil; i++ {
		switch tag := d.Byte(); tag {
		case wireEntryEvent:
			var ev Event
			decodeWireEventInto(&d, &ev)
			if d.Err() == nil && emit != nil {
				emit(ev)
			}
		case wireEntryLag:
			dropped := d.Uvarint()
			if d.Err() == nil && lag != nil {
				lag(dropped)
			}
		case wireEntryBuffer:
			bound := d.Uvarint()
			if d.Err() == nil && buffer != nil {
				buffer(int(bound))
			}
		default:
			return transport.Errf(transport.CodeProtocol,
				"grid.subscribe: unknown batch entry tag %d", tag)
		}
	}
	return d.Err()
}
