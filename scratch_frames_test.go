package gridmon

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/classad"
	"repro/internal/core"
	"repro/internal/ldap"
	"repro/internal/transport"
)

// ScratchQueries is every allocBudgetCells and stressQueries shape, plus
// an Agent constraint that rejects its ad (no record slice), a WHERE
// that matches nothing (an empty one), an LDAP OR filter and a range
// filter (candidate sets unioned in scratch), a mixed-case R-GMA table
// name (folded without a copy) and a three-name projection: the mix
// TestV3ScratchFrames serves through reused scratch.
func ScratchQueries() []Query {
	var qs []Query
	for _, cell := range allocBudgetCells {
		qs = append(qs, cell.q)
	}
	return append(append(qs, stressQueries()...),
		Query{System: Hawkeye, Host: "lucky4", Expr: "false"},
		Query{System: RGMA, Expr: "SELECT * FROM siteinfo WHERE value > 1000000"},
		Query{System: MDS, Role: RoleAggregateServer, Expr: "(|(objectclass=MdsHost)(objectclass=MdsCpu))"},
		Query{System: MDS, Role: RoleAggregateServer, Expr: "(Mds-Cpu-Free-1minX100>=50)"},
		Query{System: RGMA, Role: RoleDirectoryServer, Expr: "SiteINFO"},
		Query{System: Hawkeye, Role: RoleAggregateServer, Attrs: []string{"Name", "CpuLoad", "OpSys"}},
	)
}

// QueryGroup is one named part of AnswerCorpus.
type QueryGroup struct {
	Name    string
	Queries []Query
}

// AnswerCorpus is what TestAnswerDigest serves, in named groups: the
// alloc-budget cells, the stress mix, ScratchQueries, every checked-in
// seed of the LDAP, SQL and ClassAd parser fuzz targets on every
// (system, role) that parses it, and the Attrs edge cases (nil, one
// empty name, names in the wrong case) on one query per (system, role).
// Host-targeted queries name hosts of scratch grids (lucky3, lucky4).
func AnswerCorpus(t testing.TB) []QueryGroup {
	t.Helper()
	var cells []Query
	for _, cell := range allocBudgetCells {
		cells = append(cells, cell.q)
	}
	groups := []QueryGroup{
		{"cells", cells},
		{"stress", stressQueries()},
		{"scratch", ScratchQueries()},
	}
	for _, f := range []struct {
		name, dir string
		system    System
		shapes    []Query
	}{
		{"seeds-ldap", "internal/ldap/testdata/fuzz/FuzzLDAPFilter", MDS, []Query{
			{Role: RoleInformationServer, Host: "lucky4"}, {Role: RoleDirectoryServer}, {Role: RoleAggregateServer}}},
		{"seeds-sql", "internal/relational/testdata/fuzz/FuzzSQLParse", RGMA, []Query{
			{Role: RoleInformationServer, Host: "lucky4"}, {Role: RoleInformationServer}, {Role: RoleAggregateServer}}},
		{"seeds-classad", "internal/classad/testdata/fuzz/FuzzClassAdParse", Hawkeye, []Query{
			{Role: RoleInformationServer, Host: "lucky4"}, {Role: RoleDirectoryServer}, {Role: RoleAggregateServer}}},
	} {
		var qs []Query
		for _, expr := range fuzzSeeds(t, f.dir) {
			for _, shape := range f.shapes {
				shape.System, shape.Expr = f.system, expr
				qs = append(qs, shape)
			}
		}
		groups = append(groups, QueryGroup{f.name, qs})
	}
	var attrs []Query
	for _, base := range []struct {
		q     Query
		mixed []string
	}{
		{Query{System: MDS, Host: "lucky3", Expr: "(objectclass=MdsCpu)"}, []string{"MDS-CPU-FREE-1MINX100", "mds-cpu-speedmhz"}},
		{Query{System: MDS, Role: RoleDirectoryServer}, []string{"MDS-HOST-HN"}},
		{Query{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsHost)"}, []string{"ObjectClass", "Mds-Host-HN"}},
		{Query{System: RGMA, Host: "lucky3", Expr: "SELECT host, value FROM siteinfo"}, []string{"HOST", "Value"}},
		{Query{System: RGMA, Expr: "SELECT * FROM siteinfo"}, []string{"Host", "metric"}},
		{Query{System: RGMA, Role: RoleDirectoryServer}, []string{"Address", "table"}},
		{Query{System: RGMA, Role: RoleAggregateServer}, []string{"HOST"}},
		{Query{System: Hawkeye, Host: "lucky3"}, []string{"name", "CPULOAD"}},
		{Query{System: Hawkeye, Role: RoleDirectoryServer}, []string{"NAME"}},
		{Query{System: Hawkeye, Role: RoleAggregateServer, Expr: "TARGET.CpuLoad >= 0"}, []string{"Name", "cpuload"}},
	} {
		for _, as := range [][]string{nil, {""}, base.mixed} {
			q := base.q
			q.Attrs = as
			attrs = append(attrs, q)
		}
	}
	return append(groups, QueryGroup{"attrs", attrs})
}

// fuzzSeeds reads the string seeds of a checked-in fuzz corpus, in file
// name order.
func fuzzSeeds(t testing.TB, dir string) []string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		arg, ok := strings.CutPrefix(lines[len(lines)-1], "string(")
		if !ok || len(lines) != 2 || !strings.HasSuffix(arg, ")") {
			t.Fatalf("%s/%s: not a one-string seed", dir, f.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s/%s: %v", dir, f.Name(), err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// MaskElapsed returns a copy of the reply body frame with its Elapsed,
// which no two answers share, set to zero.
func MaskElapsed(frame []byte) []byte {
	return StampElapsed(slices.Clone(frame), 0, 0)
}

// freshAnswer answers q on g with its record section in a new Answer,
// not pooled scratch, or in the cache entry's own on a hit.
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
// branch reply into flat spans and pairs (refDecodeFlat), merged those
// (refMergeAnswers) and encoded the result pair by pair (refEncode).

// refAnswer is an answer in that flat form: records in order, each a
// key and its fields pairs[from:to]; nil recs is no record slice.
type refAnswer struct {
	recs  []refSpan
	pairs [][2]string
}

// refSpan is one record of a refAnswer.
type refSpan struct {
	key      string
	from, to int
}

// refEncode appends a's records pair by pair, in a's order, as a
// record section.
func refEncode(a *refAnswer) *core.Answer {
	var b []byte
	if a.recs == nil {
		return &core.Answer{Enc: binenc.AppendUvarint(b, 0)}
	}
	b = binenc.AppendUvarint(b, uint64(len(a.recs))+1)
	for _, r := range a.recs {
		b = binenc.AppendString(b, r.key)
		b = binenc.AppendUvarint(b, uint64(r.to-r.from))
		for _, p := range a.pairs[r.from:r.to] {
			b = binenc.AppendString(b, p[0])
			b = binenc.AppendString(b, p[1])
		}
	}
	return &core.Answer{Enc: b}
}

// RefRoutedFrame is the reply the reference path made of body, one
// leaf's reply to a host-targeted query, with Elapsed zero.
func RefRoutedFrame(body []byte) ([]byte, error) {
	rs, ans, err := refDecodeFlat(body)
	if err != nil {
		return nil, err
	}
	rs.Elapsed = 0
	return appendWireResultSet(nil, &rs, refEncode(&ans)), nil
}

// RefMergedFrame is the reply the reference path made of bodies, the
// replies of the branches of broad query q that answered, in shard
// order, with failed naming those that did not, and Elapsed zero.
func RefMergedFrame(q Query, bodies [][]byte, failed []BranchError) ([]byte, error) {
	parts := make([]refAnswer, len(bodies))
	works := make([]Work, len(bodies))
	for i, body := range bodies {
		rs, ans, err := refDecodeFlat(body)
		if err != nil {
			return nil, err
		}
		parts[i], works[i] = ans, rs.Work
	}
	var merged refAnswer
	rs := refMergeAnswers(q, parts, works, &merged)
	rs.Partial, rs.Branches = len(failed) > 0, failed
	return appendWireResultSet(nil, &rs, refEncode(&merged)), nil
}

// refDecodeFlat decodes a reply with its records flat, as the Router
// read its branches.
func refDecodeFlat(body []byte) (rs ResultSet, ans refAnswer, err error) {
	d := binenc.NewDecText(body)
	decodeWireResultSetInto(&d, &rs)
	if err := d.Err(); err != nil {
		return ResultSet{}, refAnswer{}, err
	}
	recs := binenc.NewDecText(body)
	recs.Bytes() // System
	recs.Bytes() // Role
	recs.Bytes() // Host
	if n1 := recs.Uvarint(); n1 > 0 {
		ans.recs = []refSpan{}
		for i := uint64(0); i < n1-1; i++ {
			key := recs.String()
			nf := int(recs.Uvarint())
			from := len(ans.pairs)
			for j := 0; j < nf; j++ {
				name := recs.String()
				ans.pairs = append(ans.pairs, [2]string{name, recs.String()})
			}
			ans.recs = append(ans.recs, refSpan{key: key, from: from, to: len(ans.pairs)})
		}
	}
	rs.Records = nil
	return rs, ans, nil
}

// refMergeAnswers merges flat answers into ans as the federation's
// MergeResultSets merges result sets: spans shifted onto one pairs slice
// in shard order and stably sorted by key, Work summed in shard order,
// System, Role and Host from q. A merge of no records is empty, not nil.
func refMergeAnswers(q Query, parts []refAnswer, works []Work, ans *refAnswer) ResultSet {
	rs := ResultSet{System: q.System, Role: q.Role, Host: q.Host}
	if rs.Role == "" {
		rs.Role = RoleInformationServer
	}
	ans.recs = []refSpan{}
	for i, p := range parts {
		shift := len(ans.pairs)
		for _, s := range p.recs {
			ans.recs = append(ans.recs, refSpan{key: s.key, from: s.from + shift, to: s.to + shift})
		}
		ans.pairs = append(ans.pairs, p.pairs...)
		rs.Work.Add(works[i])
	}
	slices.SortStableFunc(ans.recs, func(a, b refSpan) int { return strings.Compare(a.key, b.key) })
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

// TestLentListComesBackEmpty: the slices a query lends the GIIS and the
// Manager to list their answers in go back to their pools empty and
// holding no entry or ad up to their capacity: the GIIS clears the glue
// entries it drops past the length, and giveBack clears the rest. The
// Registry's list is rgma's (TestAdvertListComesBackEmpty).
func TestLentListComesBackEmpty(t *testing.T) {
	g := newTestGrid(t)
	ctx := context.Background()
	entries := new([]*ldap.Entry)
	got, _, err := g.giis.QueryInto(ctx, 1, nil, nil, *entries)
	if err != nil || len(got) == 0 || len(got) == cap(got) {
		t.Fatalf("the GIIS listed %d entries in %d (err %v): no glue dropped past the length", len(got), cap(got), err)
	}
	for i, e := range got[len(got):cap(got)] {
		if e != nil {
			t.Fatalf("the GIIS left glue entry %d past the length: %s", i, e.DNString())
		}
	}
	giveBack(&entryLists, entries, got)
	ads := new([]*classad.Ad)
	matched, _ := g.manager.QueryInto(1, nil, *ads)
	giveBack(&adLists, ads, matched)
	for _, list := range []struct {
		name string
		n    int
		held func(i int) bool
	}{
		{"entries", cap(*entries), func(i int) bool { return (*entries)[:cap(*entries)][i] != nil }},
		{"ads", cap(*ads), func(i int) bool { return (*ads)[:cap(*ads)][i] != nil }},
	} {
		if list.n == 0 {
			t.Fatalf("the %s list kept no room", list.name)
		}
		for i := 0; i < list.n; i++ {
			if list.held(i) {
				t.Errorf("the %s list still holds element %d past its length", list.name, i)
			}
		}
	}
	if len(*entries)+len(*ads) != 0 {
		t.Errorf("a list came back holding elements: %d entries, %d ads", len(*entries), len(*ads))
	}
}
