package rgma

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/allocmeter"
	"repro/internal/gma"
	"repro/internal/relational"
	"repro/internal/storage"
)

// oracleRegistry is the Registry as it was while it kept its
// advertisements in a relational table indexed on table_name: rows
// (producer_id, address, table_name, predicate, expires) in insertion
// order, a registration deletes the producer's row and appends the new
// one, a lookup matches table names by strings.ToLower (what the index
// key compared) and weighs its answer by relational.SizeBytes of the
// matched rows, and every read first drops the lapsed rows.
type oracleRegistry struct {
	rows [][]relational.Value
}

func (o *oracleRegistry) register(ad gma.Advertisement, now, ttl float64) error {
	if ad.ProducerID == "" || ad.TableName == "" {
		return fmt.Errorf("rgma: advertisement needs producer id and table name")
	}
	o.remove(ad.ProducerID)
	o.rows = append(o.rows, []relational.Value{
		relational.StrVal(ad.ProducerID),
		relational.StrVal(ad.Address),
		relational.StrVal(ad.TableName),
		relational.StrVal(ad.Predicate),
		relational.RealVal(now + ttl),
	})
	return nil
}

func (o *oracleRegistry) remove(id string) bool {
	n := len(o.rows)
	o.rows = slices.DeleteFunc(o.rows, func(row []relational.Value) bool { return row[0].S == id })
	return len(o.rows) < n
}

func (o *oracleRegistry) expire(now float64) {
	o.rows = slices.DeleteFunc(o.rows, func(row []relational.Value) bool { return row[4].R <= now })
}

func (o *oracleRegistry) lookup(table string, now float64) ([]gma.Advertisement, QueryStats) {
	o.expire(now)
	var matched [][]relational.Value
	var out []gma.Advertisement
	for _, row := range o.rows {
		if strings.ToLower(row[2].S) == strings.ToLower(table) {
			matched = append(matched, row)
			out = append(out, gma.Advertisement{ProducerID: row[0].S, Address: row[1].S, TableName: row[2].S, Predicate: row[3].S})
		}
	}
	n := len(matched)
	return out, QueryStats{RowsScanned: n, RowsReturned: n, ResponseBytes: relational.SizeBytes(matched), ThreadSpawns: 1, IndexHits: n}
}

func (o *oracleRegistry) tables(now float64) []string {
	o.expire(now)
	var out []string
	for _, row := range o.rows {
		out = append(out, row[2].S)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func (o *oracleRegistry) encodeState() []byte {
	var e storage.Encoder
	e.Uvarint(uint64(len(o.rows)))
	for _, row := range o.rows {
		for _, v := range row[:4] {
			e.String(v.S)
		}
		e.Float64(row[4].R)
	}
	return e.Bytes()
}

// TestRegistryOracleEquivalence holds the Registry, volatile and
// durable, to the table it replaced over random registrations, renewals
// (which move a producer to the end and may change its table),
// unregistrations, soft-state expiry, lookups, Tables and
// NumRegistered, with table names that differ only in case, including
// ones strings.ToLower folds outside ASCII (the Kelvin sign, dotted
// capital I) and one it leaves alone (long s). Answers, QueryStats and
// the snapshot bytes must match after every step, and the durable
// registry reopened from its log must hold the oracle's state.
func TestRegistryOracleEquivalence(t *testing.T) {
	tables := []string{"siteinfo", "SiteInfo", "SITEINFO", "k", "K", "\u212a", "s", "S", "\u017f", "i", "I", "\u0130",
		"Éire", "éire", "it's", "IT'S", "a\xffb", "A\xffB"}
	ttls := []float64{0, 1, 3, 10, 40, 1e12, math.Inf(1), math.NaN()}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := storage.NewMem()
		durable, err := OpenRegistry("durable", store, 7)
		if err != nil {
			t.Fatal(err)
		}
		regs := []*Registry{NewRegistry("volatile"), durable}
		var oracle oracleRegistry
		now := 0.0
		for step := 0; step < 400; step++ {
			if rng.Intn(5) == 0 {
				now += float64(rng.Intn(8))
			}
			id := fmt.Sprintf("p%d", rng.Intn(30))
			table := tables[rng.Intn(len(tables))]
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch rng.Intn(6) {
			case 0, 1:
				ad := gma.Advertisement{ProducerID: id, Address: fmt.Sprintf("h%d:80", rng.Intn(4)), TableName: table,
					Predicate: fmt.Sprintf("host = 'h%d'", rng.Intn(4))}
				if rng.Intn(20) == 0 {
					ad.ProducerID = ""
				}
				ttl := ttls[rng.Intn(len(ttls))]
				want := oracle.register(ad, now, ttl)
				for _, r := range regs {
					if got := r.RegisterProducer(ad, now, ttl); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s %s: register %+v: %v, oracle %v", where, r.Name, ad, got, want)
					}
				}
			case 2:
				want := oracle.remove(id)
				for _, r := range regs {
					if got := r.UnregisterProducer(id, now); got != want {
						t.Fatalf("%s %s: unregister %s: %v, oracle %v", where, r.Name, id, got, want)
					}
				}
			case 3:
				wantAds, wantSt := oracle.lookup(table, now)
				for _, r := range regs {
					ads, st, err := r.LookupProducersStats(table, now)
					if err != nil || !reflect.DeepEqual(ads, wantAds) || st != wantSt {
						t.Fatalf("%s %s: lookup %q: %v %+v %v\noracle %v %+v", where, r.Name, table, ads, st, err, wantAds, wantSt)
					}
				}
			case 4:
				want := oracle.tables(now)
				for _, r := range regs {
					if got := r.Tables(now); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: Tables %q, oracle %q", where, r.Name, got, want)
					}
				}
			case 5:
				oracle.expire(now)
				for _, r := range regs {
					if got, want := r.NumRegistered(now), len(oracle.rows); got != want {
						t.Fatalf("%s %s: NumRegistered %d, oracle %d", where, r.Name, got, want)
					}
				}
			}
			for _, r := range regs {
				if got, want := r.encodeState(), oracle.encodeState(); string(got) != string(want) {
					t.Fatalf("%s %s: snapshot differs from the oracle's\n got %q\nwant %q", where, r.Name, got, want)
				}
			}
		}
		if err := durable.Err(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenRegistry("reopened", store.Reopen(), 7)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reopened.encodeState(), oracle.encodeState(); string(got) != string(want) {
			t.Fatalf("seed %d: reopened snapshot differs from the oracle's\n got %q\nwant %q", seed, got, want)
		}
	}
}

// TestRegistryChurnAllocs pins what the directory costs on a registry of
// 5,000 advertisements plus 48 siteinfo producers. A renewal, and an
// unregistration followed by a registration, allocate no more than the
// one registration they make; a lookup of the 48 allocates only its
// answer. While the Registry kept a relational table with a table_name
// hash index, every renewal rebuilt the index (30 allocations, ~130 KB)
// and the lookup appended rows and answers as it went (14 allocations,
// 12.7 KB).
func TestRegistryChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations, so counts are not repeatable")
	}
	r := NewRegistry("churn")
	ad := func(i int) gma.Advertisement {
		return gma.Advertisement{ProducerID: fmt.Sprintf("churn-%04d", i), Address: fmt.Sprintf("churn-%02d:8080", i%64),
			TableName: "churninfo", Predicate: fmt.Sprintf("slot = %d", i)}
	}
	ads := make([]gma.Advertisement, 5000)
	for i := range ads {
		ads[i] = ad(i)
		if err := r.RegisterProducer(ads[i], 0, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 48; i++ {
		site := gma.Advertisement{ProducerID: fmt.Sprintf("site-%02d", i), Address: "lucky3:8080", TableName: "siteinfo"}
		if err := r.RegisterProducer(site, 0, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	// The allocator rounds an object up to its size class, never by
	// more than an eighth.
	registration := float64(unsafe.Sizeof(registration{})) * 9 / 8
	i := 0
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"renewal", func() {
			i++
			if err := r.RegisterProducer(ads[i%len(ads)], 1, 1e12); err != nil {
				t.Fatal(err)
			}
		}},
		{"unregister then register", func() {
			i++
			a := ads[i%len(ads)]
			r.UnregisterProducer(a.ProducerID, 1)
			if err := r.RegisterProducer(a, 1, 1e12); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		objects, bytes := allocmeter.PerRun(1000, tc.op)
		t.Logf("%s: %d allocs, %d bytes", tc.name, objects, bytes)
		if objects > 1 || float64(bytes) > registration {
			t.Errorf("%s: %d allocs and %d bytes, want at most one registration (%.0f bytes)", tc.name, objects, bytes, registration)
		}
	}
	var got []gma.Advertisement
	objects, bytes := allocmeter.PerRun(200, func() {
		var err error
		if got, _, err = r.LookupProducersStats("siteinfo", 1); err != nil {
			t.Fatal(err)
		}
	})
	answer := float64(48*unsafe.Sizeof(gma.Advertisement{})) * 9 / 8
	t.Logf("lookup of %d: %d allocs, %d bytes", len(got), objects, bytes)
	if len(got) != 48 || objects > 1 || float64(bytes) > answer {
		t.Errorf("lookup of %d: %d allocs and %d bytes, want one answer of 48 (%.0f bytes)", len(got), objects, bytes, answer)
	}
}

// TestRegistryConcurrentChurn runs lookups — on the read lock, and
// upgraded when advertisements have lapsed — beside registrations,
// renewals and unregistrations, for the race detector, then checks that
// the directory's map and order still agree.
func TestRegistryConcurrentChurn(t *testing.T) {
	r := NewRegistry("churn")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				now := float64(i / 10)
				id := fmt.Sprintf("p%d", (i*7+w)%50)
				switch w {
				case 0, 1:
					if _, _, err := r.LookupProducersStats([]string{"siteinfo", "SiteInfo"}[w], now); err != nil {
						t.Error(err)
						return
					}
					r.Tables(now)
				case 2:
					ad := gma.Advertisement{ProducerID: id, Address: "a:1", TableName: "siteinfo"}
					if err := r.RegisterProducer(ad, now, float64(i%7)); err != nil {
						t.Error(err)
						return
					}
				case 3:
					r.UnregisterProducer(id, now)
				}
			}
		}(w)
	}
	wg.Wait()
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for reg := r.order.next; reg != &r.order; reg = reg.next {
		if r.byID[reg.ad.ProducerID] != reg {
			t.Fatalf("%s is in the order but not the map", reg.ad.ProducerID)
		}
		n++
	}
	if n != len(r.byID) {
		t.Fatalf("%d registrations in order, %d in the map", n, len(r.byID))
	}
}
