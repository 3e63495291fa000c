package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/classad"
	"repro/internal/ldap"
	"repro/internal/mds"
	"repro/internal/relational"
)

// The oracles below are the decoder bodies this package had before the
// decoders wrote each result straight into its record section and took
// the projection with them: one small string per value, then
// Record.Project over every finished map. The new decoders must produce
// the same records, nil versus empty maps included.

func oracleMDSRecords(entries []*ldap.Entry) []Record {
	out := make([]Record, len(entries))
	for i, e := range entries {
		fields := make(map[string]string)
		for _, attr := range e.Attributes() {
			fields[attr] = strings.Join(e.Get(attr), "|")
		}
		out[i] = Record{Key: e.DN.String(), Fields: fields}
	}
	return out
}

// oracleMDSProjected is oracleMDSRecords over the copies a GRIS or GIIS
// query part used to build: only the attributes some name in attrs
// folds to (strings.ToLower, in any case), every one when attrs is empty.
func oracleMDSProjected(entries []*ldap.Entry, attrs []string) []Record {
	out := oracleMDSRecords(entries)
	if len(attrs) == 0 {
		return out
	}
	for i, e := range entries {
		for _, name := range e.Attributes() {
			kept := false
			for _, a := range attrs {
				kept = kept || strings.ToLower(a) == strings.ToLower(name)
			}
			if !kept {
				delete(out[i].Fields, name)
			}
		}
	}
	return out
}

func oraclePlainValue(v relational.Value) string {
	if v.Type == relational.StringType {
		return v.S
	}
	return v.String()
}

func oracleRGMARecords(res *relational.Result) []Record {
	if res == nil {
		return nil
	}
	out := make([]Record, len(res.Rows))
	for i, row := range res.Rows {
		fields := make(map[string]string, len(res.Columns))
		for c, col := range res.Columns {
			if c < len(row) {
				fields[col] = oraclePlainValue(row[c])
			}
		}
		out[i] = Record{Key: fmt.Sprintf("row-%04d", i), Fields: fields}
	}
	return out
}

func oracleRowRecords(producerID string, res *relational.Result) []Record {
	out := make([]Record, len(res.Rows))
	for i, row := range res.Rows {
		fields := make(map[string]string, len(res.Columns))
		for c, col := range res.Columns {
			if c < len(row) {
				fields[col] = oraclePlainValue(row[c])
			}
		}
		out[i] = Record{Key: fmt.Sprintf("%s/row-%04d", producerID, i), Fields: fields}
	}
	return out
}

func oracleHawkeyeRecords(ads []*classad.Ad) []Record {
	out := make([]Record, 0, len(ads))
	for _, ad := range ads {
		if ad == nil {
			continue
		}
		fields := make(map[string]string, ad.Len())
		for _, name := range ad.SortedNames() {
			if e, ok := ad.Lookup(name); ok {
				fields[name] = e.String()
			}
		}
		key, _ := ad.Eval("Name").StringVal()
		out = append(out, Record{Key: key, Fields: fields})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// The generators mirror the randomized data sets of the engines' own
// differential suites (ldap/index_test.go, relational/plan_test.go,
// classad/compile_test.go), which a test in this package cannot import.

func randomEntries(rng *rand.Rand, n int) []*ldap.Entry {
	dit := ldap.NewDIT()
	classes := []string{"MdsHost", "MdsCpu", "MdsFs", "MdsNet"}
	oses := []string{"Linux", "Solaris", "AIX"}
	for i := 0; i < n; i++ {
		vo := "local"
		if rng.Intn(3) == 0 {
			vo = "remote"
		}
		e := ldap.NewEntry(ldap.MustParseDN(fmt.Sprintf("Mds-Host-hn=h%03d, Mds-Vo-name=%s, o=grid", i, vo)))
		e.Set("objectclass", classes[rng.Intn(len(classes))])
		e.Set("Mds-Cpu-Free-1minX100", fmt.Sprintf("%d", rng.Intn(100)))
		if rng.Intn(2) == 0 {
			e.Set("Mds-Os-name", oses[rng.Intn(len(oses))])
		}
		if rng.Intn(4) == 0 {
			e.Set("Mds-Service", "ldap", "gris")
		}
		if rng.Intn(5) == 0 {
			e.Set("Mds-Memory-Ram-Total-freeMB", fmt.Sprintf("%d", 64+rng.Intn(1000)))
		}
		if rng.Intn(6) == 0 {
			e.Set("Mds-Empty") // present with no values
		}
		if err := dit.Add(e); err != nil {
			panic(err)
		}
	}
	all, _ := dit.Search(nil, ldap.ScopeSub, nil) // stored entries, glue included
	return all
}

func randomResult(rng *rand.Rand, rows int) *relational.Result {
	t := relational.NewTable("siteinfo", []relational.Column{
		{Name: "host", Type: relational.StringType},
		{Name: "metric", Type: relational.StringType},
		{Name: "value", Type: relational.RealType},
		{Name: "slot", Type: relational.IntType},
	})
	reals := []float64{0, math.Copysign(0, -1), 42.5, 1e21, 1e-7, math.Inf(1), math.NaN(), -3}
	for i := 0; i < rows; i++ {
		row := []relational.Value{
			relational.StrVal(fmt.Sprintf("h%02d", rng.Intn(12))),
			relational.StrVal([]string{"cpu", "mem", "it's", ""}[rng.Intn(4)]),
			relational.RealVal(reals[rng.Intn(len(reals))] + float64(rng.Intn(200))/2),
			relational.IntVal(int64(rng.Intn(8)) - 2),
		}
		if err := t.Insert(row); err != nil {
			panic(err)
		}
	}
	selects := []string{
		"SELECT * FROM siteinfo",
		"SELECT host, value FROM siteinfo",
		"SELECT value, host, value FROM siteinfo WHERE slot >= 0",
		"SELECT * FROM siteinfo WHERE host = 'h03' ORDER BY value LIMIT 3",
		"SELECT slot FROM siteinfo WHERE host = 'nosuch'",
	}
	sel, err := relational.Parse(selects[rng.Intn(len(selects))])
	if err != nil {
		panic(err)
	}
	res, err := relational.ScanSelect(t, sel)
	if err != nil {
		panic(err)
	}
	return res
}

func randomAds(rng *rand.Rand, n int) []*classad.Ad {
	exprs := []string{
		"TARGET.CpuLoad > 50 && TARGET.OpSys == \"LINUX\"",
		"ifThenElse(TARGET.CpuLoad > 50, true, false)",
		"{1, 2.5, \"three\"}",
		"[ a = 1; b = MY.a ]",
		"strcat(\"a\\\"b\", Name)",
	}
	ads := make([]*classad.Ad, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			ads = append(ads, nil)
			continue
		}
		ad := classad.NewAd()
		switch rng.Intn(10) {
		case 0: // no Name: empty key
		case 1:
			ad.SetInt("Name", int64(i)) // not a string: empty key
		case 2:
			if err := ad.SetExprString("NAME", fmt.Sprintf("strcat(\"m\", \"%03d\")", i)); err != nil {
				panic(err)
			}
		default:
			ad.SetString("Name", fmt.Sprintf("m%03d", n-i))
		}
		ad.SetReal("CpuLoad", float64(rng.Intn(100)))
		if rng.Intn(2) == 0 {
			ad.SetString("OpSys", []string{"LINUX", "SOLARIS", "say \"hi\""}[rng.Intn(3)])
		}
		if rng.Intn(3) == 0 {
			ad.SetInt("FreeDisk", int64(rng.Intn(200)))
		}
		ad.SetBool("Idle", rng.Intn(2) == 0)
		if rng.Intn(2) == 0 {
			if err := ad.SetExprString(classad.AttrRequirements, exprs[rng.Intn(len(exprs))]); err != nil {
				panic(err)
			}
		}
		ads = append(ads, ad)
	}
	return ads
}

// projections are the Attrs the decoders are tried with: none, exact
// names, names in the wrong case (which select nothing, as in
// Record.Project, except for MDS, where LDAP folds them), unknown names,
// duplicates.
var projections = [][]string{
	nil,
	{},
	{"value"},
	{"host", "value", "host"},
	{"CpuLoad", "Name"},
	{"cpuload", "NAME", "nosuch"},
	{"Requirements", "OpSys", "Idle", "FreeDisk"},
	{"objectclass", "Mds-Service"},
	{"OBJECTCLASS", "mds-cpu-free-1minx100", "ObjectClass"},
	{""},
}

func TestDecodersMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	diff := func(what string, attrs []string, got, want []Record) {
		t.Helper()
		// A record with no fields decodes with nil Fields, as its JSON
		// does: the oracles' empty maps are the same answer.
		for i := range want {
			if len(want[i].Fields) == 0 {
				want[i].Fields = nil
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s with attrs %q:\n got %v\nwant %v", what, attrs, got, want)
		}
	}
	for trial := 0; trial < 60; trial++ {
		entries := randomEntries(rng, rng.Intn(20))
		diff("MDSRecords", nil, MDSRecords(entries), oracleMDSRecords(entries))
		for _, attrs := range projections {
			// MDS projects while decoding the stored entries.
			var a Answer
			MDSAnswer(&a, entries, attrs)
			diff("MDSAnswer", attrs, a.Records(), oracleMDSProjected(entries, attrs))
		}

		res := randomResult(rng, rng.Intn(40))
		diff("RGMARecords", nil, RGMARecords(res), oracleRGMARecords(res))
		diff("ResultAnswer(producer)", nil, resultRecords("lucky3-p0/", res, nil), oracleRowRecords("lucky3-p0", res))

		ads := randomAds(rng, rng.Intn(12))
		diff("HawkeyeRecords", nil, HawkeyeRecords(ads), oracleHawkeyeRecords(ads))

		for _, attrs := range projections {
			diff("ResultAnswer", attrs, resultRecords("", res, attrs), ProjectRecords(oracleRGMARecords(res), attrs))
			diff("ResultAnswer(producer)", attrs, resultRecords("lucky3-p0/", res, attrs), ProjectRecords(oracleRowRecords("lucky3-p0", res), attrs))
			diff("AdAnswer", attrs, adRecords(ads, attrs), ProjectRecords(oracleHawkeyeRecords(ads), attrs))
		}
	}
	diff("RGMARecords(nil)", nil, RGMARecords(nil), oracleRGMARecords(nil))
	diff("HawkeyeRecords(nil)", nil, HawkeyeRecords(nil), oracleHawkeyeRecords(nil))
	short := &relational.Result{Columns: []string{"a", "b"}, Rows: [][]relational.Value{{relational.IntVal(1)}, {}}}
	diff("RGMARecords(short rows)", nil, RGMARecords(short), oracleRGMARecords(short))

	// A length of 128 bytes or more takes a second varint byte and one of
	// 16,384 or more a third, and so does a count of 128 fields: the
	// renderers move what they wrote after each such placeholder. No
	// corpus answer is that large. Each record has 130 fields, a long
	// value among them and a rendered one behind it.
	for _, size := range []int{127, 128, 200, 16383, 16384, 20000} {
		long := strings.Repeat("x", size)
		e := ldap.NewEntry(ldap.MustParseDN("Mds-Host-hn=big, o=grid"))
		e.Set("Mds-Joined", long[:size/2], long[size/2:]) // joined, size+1 bytes
		for f := 0; f < 130; f++ {
			e.Set(fmt.Sprintf("Mds-F%03d", f), fmt.Sprint(f))
		}
		e.Set("Mds-Tail", "a", "b")
		entries := []*ldap.Entry{e, e}
		diff("MDSRecords(long)", nil, MDSRecords(entries), oracleMDSRecords(entries))

		cols := make([]string, 130)
		row := make([]relational.Value, len(cols))
		for c := range cols {
			cols[c], row[c] = fmt.Sprintf("c%03d", c), relational.IntVal(int64(c))
		}
		row[0], row[len(row)-1] = relational.StrVal(long), relational.RealVal(1e-7)
		res := &relational.Result{Columns: cols, Rows: [][]relational.Value{row, row}}
		diff("RGMARecords(long)", nil, RGMARecords(res), oracleRGMARecords(res))
		diff("ResultAnswer(long producer)", nil, resultRecords(long+"/", res, nil), oracleRowRecords(long, res))
		attrs := []string{"c000", "c129"}
		diff("ResultAnswer(long)", attrs, resultRecords("", res, attrs), ProjectRecords(oracleRGMARecords(res), attrs))

		ad := classad.NewAd()
		ad.SetString("Name", "big")
		if err := ad.SetExprString("Long", "{"+strings.Repeat("1, ", size/3)+"2}"); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 130; f++ {
			ad.SetInt(fmt.Sprintf("A%03d", f), int64(f))
		}
		ad.SetString("Tail", long)
		ads := []*classad.Ad{ad, nil, ad}
		diff("HawkeyeRecords(long)", nil, HawkeyeRecords(ads), oracleHawkeyeRecords(ads))
	}
}

// resultRecords and adRecords decode what ResultAnswer and AdAnswer
// render.
func resultRecords(keyPrefix string, res *relational.Result, attrs []string) []Record {
	var a Answer
	ResultAnswer(&a, keyPrefix, res, attrs)
	return a.Records()
}

func adRecords(ads []*classad.Ad, attrs []string) []Record {
	var a Answer
	AdAnswer(&a, ads, attrs)
	return a.Records()
}

// TestAnswerScratch: an Answer reused by every decoder in turn, largest
// answer first, holds exactly what a new Answer holds after each one: no
// record, pair or nil-ness of an earlier answer shows.
func TestAnswerScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries, res, ads := randomEntries(rng, 30), randomResult(rng, 40), randomAds(rng, 6)
	renders := []func(*Answer){
		func(a *Answer) { ResultAnswer(a, "", res, nil) },
		func(a *Answer) { MDSAnswer(a, entries, nil) },
		func(a *Answer) { AdAnswer(a, ads, nil) },
		func(a *Answer) { MDSAnswer(a, entries[:3], []string{"objectclass"}) },
		func(a *Answer) { ResultAnswer(a, "", nil, nil) },
		func(a *Answer) { AdvertisementAnswer(a, nil, nil) },
		func(a *Answer) { ResultAnswer(a, "", res, []string{"host"}) },
	}
	var scratch Answer
	for i, render := range renders {
		var fresh Answer
		render(&fresh)
		render(&scratch)
		if !reflect.DeepEqual(scratch, fresh) {
			t.Fatalf("render %d into reused scratch:\n got %+v\nwant %+v", i, scratch, fresh)
		}
	}
}

// TestRowKeysPadLikePrintf: the append-formatted row key is fmt's %04d.
func TestRowKeysPadLikePrintf(t *testing.T) {
	for _, i := range []int{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456} {
		if got, want := string(appendRowKey(nil, i)), fmt.Sprintf("row-%04d", i); got != want {
			t.Errorf("appendRowKey(%d) = %q, want %q", i, got, want)
		}
	}
}

// --- decoder microbenchmarks (recorded by make bench-json) ---

var benchRecords []Record

// benchEntries is a five-host GIIS's answer to "everything", the shape
// of the facade's MDS aggregate query.
func benchEntries(b *testing.B) []*ldap.Entry {
	b.Helper()
	giis := mds.NewGIIS("giis", 1e9, 1e9)
	for i := 0; i < 5; i++ {
		gris := mds.NewGRIS(fmt.Sprintf("lucky%d", i+3), 1e9, mds.DefaultProviders())
		if _, err := giis.Register(fmt.Sprintf("gris-%d", i), gris, 0); err != nil {
			b.Fatal(err)
		}
	}
	entries, _, err := giis.Query(1, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return entries
}

func BenchmarkMDSRecords(b *testing.B) {
	entries := benchEntries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRecords = MDSRecords(entries)
	}
}

func BenchmarkMDSRecordsProjected(b *testing.B) {
	entries := benchEntries(b)
	attrs := []string{"Mds-Cpu-Free-1minX100", "objectclass"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// MDS decodes only the kept attributes of the stored entries.
		var a Answer
		MDSAnswer(&a, entries, attrs)
		benchRecords = a.Records()
	}
}

func benchResult(b *testing.B) *relational.Result {
	b.Helper()
	ps, _ := newRGMA(b)
	res, _, err := ps.Query(1, "SELECT * FROM siteinfo")
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkRGMARecords(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRecords = RGMARecords(res)
	}
}

func BenchmarkRGMARecordsProjected(b *testing.B) {
	res := benchResult(b)
	attrs := []string{"host", "value"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRecords = resultRecords("", res, attrs)
	}
}

func benchAds(b *testing.B) []*classad.Ad {
	b.Helper()
	_, manager := newHawkeye(b)
	ads, _ := manager.Query(1, nil)
	return ads
}

func BenchmarkHawkeyeRecords(b *testing.B) {
	ads := benchAds(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRecords = HawkeyeRecords(ads)
	}
}

func BenchmarkHawkeyeRecordsProjected(b *testing.B) {
	ads := benchAds(b)
	attrs := []string{"CpuLoad", "OpSys"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRecords = adRecords(ads, attrs)
	}
}

// TestRecordAccessors: Get, Len and Each read a record's fields the way
// indexing, len and ranging over Fields do — for a record with no field
// map, one with an empty map and one with fields — and Each stops at the
// first false.
func TestRecordAccessors(t *testing.T) {
	full := Record{Key: "lucky4", Fields: map[string]string{"host": "lucky4", "value": "42", "empty": ""}}
	for _, r := range []Record{{Key: "nil"}, {Key: "empty", Fields: map[string]string{}}, full} {
		if r.Len() != len(r.Fields) {
			t.Errorf("%s: Len = %d, want %d", r.Key, r.Len(), len(r.Fields))
		}
		seen := make(map[string]string)
		r.Each(func(name, value string) bool {
			if _, dup := seen[name]; dup {
				t.Errorf("%s: Each visited %q twice", r.Key, name)
			}
			seen[name] = value
			return true
		})
		if !reflect.DeepEqual(seen, map[string]string(r.Fields)) && (len(seen) != 0 || len(r.Fields) != 0) {
			t.Errorf("%s: Each visited %v, want %v", r.Key, seen, r.Fields)
		}
		for name, want := range r.Fields {
			if got, ok := r.Get(name); !ok || got != want {
				t.Errorf("%s: Get(%q) = %q, %v, want %q, true", r.Key, name, got, ok, want)
			}
		}
		if got, ok := r.Get("missing"); ok || got != "" {
			t.Errorf("%s: Get of a missing field = %q, %v", r.Key, got, ok)
		}
	}
	if v, ok := full.Get("empty"); !ok || v != "" {
		t.Errorf("an empty value reads as missing: %q, %v", v, ok)
	}
	calls := 0
	full.Each(func(string, string) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("Each called fn %d times after it returned false, want 1", calls)
	}
}

// TestAdKeyListComesBackEmpty: the list AdAnswer sorts in goes back to
// the pool holding no ad or key, up to its capacity, and the next answer
// rendered with it is the one a new list renders.
func TestAdKeyListComesBackEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ads := randomAds(rng, 8)
	var list []keyedAd
	var big, small, want Answer
	adAnswer(&big, &list, ads, nil)
	if len(list) != 0 || cap(list) == 0 {
		t.Fatalf("the list came back with length %d, capacity %d", len(list), cap(list))
	}
	for i, k := range list[:cap(list)] {
		if k != (keyedAd{}) {
			t.Fatalf("entry %d still held past the length: %+v", i, k)
		}
	}
	adAnswer(&small, &list, ads[:2], nil)
	AdAnswer(&want, ads[:2], nil)
	if !reflect.DeepEqual(small, want) || len(big.Enc) <= len(small.Enc) {
		t.Fatalf("a reused list rendered %q, a new one %q", small.Enc, want.Enc)
	}
}
