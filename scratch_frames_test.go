package gridmon

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/binenc"
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

// CheckV3ScratchFrames serves queries from source, a flat source,
// through the binary grid.query handler, which renders every answer into
// a pooled scratch Answer and encodes it into a reused frame buffer, and
// fails t unless each frame is byte-identical to the encoding of the
// answer source renders into a new Answer (Elapsed, which no two calls
// share, is taken from the frame). The queries go largest answer first,
// then in shuffled orders, so an answer that kept a record, a pair or a
// string of a larger one before it shows, and last on four goroutines at
// once, so the scratch moves between them. A pass ahead of the fresh
// answers warms any result cache, so they and every frame after them
// are hits, unless its entries expire at once.
func CheckV3ScratchFrames(t *testing.T, source Querier, queries []Query) {
	t.Helper()
	serve := queryV3(source)
	ref := source.(flatQuerier)
	ctx := context.Background()
	type answer struct {
		rs  ResultSet
		ans Answer
		err error
	}
	// answerFresh answers q into a new Answer and keeps a copy of it, not
	// the cache entry's own when it is a hit.
	answerFresh := func(q Query) (a answer) {
		a.rs, a.err = ref.QueryAnswerInto(ctx, q, &a.ans)
		a.ans = Answer{Recs: slices.Clone(a.ans.Recs), Pairs: slices.Clone(a.ans.Pairs)}
		return a
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
		var got ResultSet
		d := binenc.NewDecText(b)
		decodeWireResultSetInto(&d, &got)
		if err := d.Err(); err != nil {
			t.Errorf("%+v: the served frame does not decode: %v", q, err)
			return b, false
		}
		rs := want.rs
		rs.Elapsed = got.Elapsed
		if exp := appendWireResultSet(nil, &rs, &want.ans); !bytes.Equal(b, exp) {
			t.Errorf("%+v: the served frame is not a fresh answer's\nserved %q\nfresh  %q", q, b, exp)
			return b, false
		}
		return b, true
	}

	for _, q := range queries {
		answerFresh(q)
	}
	wants := make([]answer, len(queries))
	order := make([]int, len(queries))
	nilRecs, emptyRecs := false, false
	for i, q := range queries {
		order[i], wants[i] = i, answerFresh(q)
		nilRecs = nilRecs || (wants[i].err == nil && wants[i].ans.Recs == nil)
		emptyRecs = emptyRecs || (wants[i].ans.Recs != nil && len(wants[i].ans.Recs) == 0)
	}
	if !nilRecs || !emptyRecs {
		t.Errorf("no answer with a nil record slice (%v) or an empty one (%v) among the queries", nilRecs, emptyRecs)
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(wants[b].ans.Pairs) - len(wants[a].ans.Pairs) })
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
