package gridmon

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/transport"
)

// ScratchQueries is every allocBudgetCells and stressQueries shape, plus
// an Agent constraint that rejects its ad (no record slice) and a WHERE
// that matches nothing (an empty one): the mix TestV3ScratchFrames
// serves through reused scratch.
func ScratchQueries() []Query {
	var qs []Query
	for _, cell := range allocBudgetCells {
		qs = append(qs, cell.q)
	}
	return append(append(qs, stressQueries()...),
		Query{System: Hawkeye, Host: "lucky4", Expr: "false"},
		Query{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE value > 1000000"},
	)
}

// MaskElapsed returns a copy of the reply body frame with its Elapsed,
// which no two answers share, set to zero.
func MaskElapsed(frame []byte) []byte {
	return StampElapsed(slices.Clone(frame), 0, 0)
}

// freshAnswer answers q on g with its records flat, in a new Answer, not
// pooled scratch, or in the cache entry's own on a hit.
func freshAnswer(g *Grid, q Query) (ResultSet, core.Answer, error) {
	var ans core.Answer
	rs, e, err := g.answer(context.Background(), q, time.Now(), &ans)
	if e != nil {
		ans = e.answer
	}
	return rs, ans, err
}

// FreshFrames answers each query on g with freshAnswer and returns the
// reply body that answer encodes to, with Elapsed zero: what a served
// frame of g must be.
func FreshFrames(g *Grid) func(Query) ([]byte, error) {
	return func(q Query) ([]byte, error) {
		rs, ans, err := freshAnswer(g, q)
		if err != nil {
			return nil, err
		}
		return appendWireResultSet(nil, &rs, &ans), nil
	}
}

// The reference a federation Router's replies are held to: the path a
// Router took before it spliced its branches' bytes, which decoded each
// branch reply flat (refDecodeFlat), merged the answers flat
// (refMergeAnswers) and encoded the result pair by pair.

// RefRoutedFrame is the reply the reference path made of body, one
// leaf's reply to a host-targeted query, with Elapsed zero.
func RefRoutedFrame(body []byte) ([]byte, error) {
	rs, ans, err := refDecodeFlat(body)
	if err != nil {
		return nil, err
	}
	rs.Elapsed = 0
	return appendWireResultSet(nil, &rs, &ans), nil
}

// RefMergedFrame is the reply the reference path made of bodies, the
// replies of the branches of broad query q that answered, in shard
// order, with failed naming those that did not, and Elapsed zero.
func RefMergedFrame(q Query, bodies [][]byte, failed []BranchError) ([]byte, error) {
	parts := make([]core.Answer, len(bodies))
	works := make([]Work, len(bodies))
	for i, body := range bodies {
		rs, ans, err := refDecodeFlat(body)
		if err != nil {
			return nil, err
		}
		parts[i], works[i] = ans, rs.Work
	}
	var merged core.Answer
	rs := refMergeAnswers(q, parts, works, &merged)
	rs.Partial, rs.Branches = len(failed) > 0, failed
	return appendWireResultSet(nil, &rs, &merged), nil
}

// refDecodeFlat decodes a reply with its records flat, as the Router
// read its branches: once the whole reply has decoded, the records are
// counted (refCountWireAnswer), then cut into an Answer's spans and pairs
// (refFillWireAnswer).
func refDecodeFlat(body []byte) (rs ResultSet, ans core.Answer, err error) {
	d := binenc.NewDecText(body)
	decodeWireResultSetInto(&d, &rs)
	if err := d.Err(); err != nil {
		return ResultSet{}, core.Answer{}, err
	}
	recs := binenc.NewDecText(body)
	recs.Bytes() // System
	recs.Bytes() // Role
	recs.Bytes() // Host
	count := recs
	present, n, pairs := refCountWireAnswer(&count)
	refFillWireAnswer(&recs, &ans, present, n, pairs)
	rs.Records = nil
	return rs, ans, nil
}

// refCountWireAnswer reads past a record slice as decodeWireRecords
// reads it and reports whether it is present and how many records and
// pairs it holds.
func refCountWireAnswer(d *binenc.Dec) (present bool, n, pairs int) {
	n1 := d.Uvarint()
	if n1 == 0 {
		return false, 0, 0
	}
	n = d.Count(n1-1, 2)
	for i := 0; i < n; i++ {
		d.Bytes()
		nf := d.Count(d.Uvarint(), 2)
		for j := 0; j < nf; j++ {
			d.Bytes()
			d.Bytes()
		}
		pairs += nf
	}
	return true, n, pairs
}

// refFillWireAnswer decodes the record slice refCountWireAnswer read
// past into a: nil records leave a.Recs nil.
func refFillWireAnswer(d *binenc.Dec, a *core.Answer, present bool, n, pairs int) {
	if !present {
		a.SetNil()
		return
	}
	d.Uvarint()
	a.Reset(n, pairs)
	for i := 0; i < n; i++ {
		key := d.String()
		nf := int(d.Uvarint())
		from := len(a.Pairs)
		for j := 0; j < nf; j++ {
			name := d.String()
			a.Pairs = append(a.Pairs, core.Pair{Name: name, Value: d.String()})
		}
		a.Recs = append(a.Recs, core.Span{Key: key, From: from, To: len(a.Pairs)})
	}
}

// refMergeAnswers merges flat answers into ans as the federation's
// MergeResultSets merges result sets: spans shifted onto one pairs slice
// in shard order and stably sorted by key, Work summed in shard order,
// System, Role and Host from q. A merge of no records is empty, not nil.
func refMergeAnswers(q Query, parts []core.Answer, works []Work, ans *core.Answer) ResultSet {
	rs := ResultSet{System: q.System, Role: q.Role, Host: q.Host}
	if rs.Role == "" {
		rs.Role = RoleInformationServer
	}
	ans.Reset(0, 0)
	for i, p := range parts {
		shift := len(ans.Pairs)
		for _, s := range p.Recs {
			ans.Recs = append(ans.Recs, core.Span{Key: s.Key, From: s.From + shift, To: s.To + shift})
		}
		ans.Pairs = append(ans.Pairs, p.Pairs...)
		rs.Work.Add(works[i])
	}
	slices.SortStableFunc(ans.Recs, func(a, b core.Span) int { return strings.Compare(a.Key, b.Key) })
	return rs
}

// CheckV3ScratchFrames serves queries from source through the binary
// grid.query handler, which has source append every reply into a reused
// frame buffer (a Grid renders it into pooled scratch first), and fails
// t unless each frame is byte-identical to the frame fresh gives for its
// query, Elapsed, which no two calls share, excepted. The queries go
// largest answer first, then in shuffled orders, so an answer that kept
// a record, a pair or a string of a larger one before it shows, and last
// on four goroutines at once, so the scratch moves between them. A pass
// ahead of the fresh frames warms any result cache, so they and every
// frame after them are hits, unless its entries expire at once.
func CheckV3ScratchFrames(t *testing.T, source Querier, queries []Query, fresh func(Query) ([]byte, error)) {
	t.Helper()
	serve := queryV3(source)
	ctx := context.Background()
	type answer struct {
		frame []byte
		err   error
	}
	// check serves q, encoding into out, and reports whether the frame
	// is want's.
	check := func(q Query, out []byte, want answer) ([]byte, bool) {
		b, terr := serve(ctx, appendWireQuery(nil, q), out[:0])
		if terr != nil || want.err != nil {
			if terr == nil || want.err == nil || terr.Error() != transport.AsError(want.err).Error() {
				t.Errorf("%+v: served error %v, fresh error %v", q, terr, want.err)
				return out, false
			}
			return out, true
		}
		if got := MaskElapsed(b); !bytes.Equal(got, want.frame) {
			t.Errorf("%+v: the served frame is not a fresh answer's\nserved %q\nfresh  %q", q, got, want.frame)
			return b, false
		}
		return b, true
	}

	for _, q := range queries {
		fresh(q)
	}
	wants := make([]answer, len(queries))
	order := make([]int, len(queries))
	nilRecs, emptyRecs := false, false
	for i, q := range queries {
		order[i] = i
		wants[i].frame, wants[i].err = fresh(q)
		if wants[i].err != nil {
			continue
		}
		rs, err := DecodeReply(wants[i].frame)
		if err != nil {
			t.Fatalf("%+v: the fresh frame does not decode: %v", q, err)
		}
		nilRecs = nilRecs || rs.Records == nil
		emptyRecs = emptyRecs || (rs.Records != nil && len(rs.Records) == 0)
	}
	if !nilRecs || !emptyRecs {
		t.Errorf("no answer with a nil record slice (%v) or an empty one (%v) among the queries", nilRecs, emptyRecs)
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(wants[b].frame) - len(wants[a].frame) })
	var out []byte
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		if round > 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, i := range order {
			out, _ = check(queries[i], out, wants[i])
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var out []byte
			for round := 0; round < 3; round++ {
				for _, i := range rng.Perm(len(queries)) {
					var ok bool
					if out, ok = check(queries[i], out, wants[i]); !ok {
						return
					}
				}
			}
		}(rand.New(rand.NewSource(int64(g + 2))))
	}
	wg.Wait()
}
