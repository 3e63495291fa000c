package rgma

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gma"
	"repro/internal/relational"
	"repro/internal/storage"
)

// newSetup builds the paper's Experiment-Set-1 R-GMA deployment: one
// ProducerServlet with ten local monitoring producers, one Registry, one
// ConsumerServlet.
func newSetup(t *testing.T) (*Registry, *ProducerServlet, *ConsumerServlet) {
	t.Helper()
	reg := NewRegistry("lucky1")
	pserv := NewProducerServlet("lucky3:8080")
	for i := 0; i < 10; i++ {
		p := NewMonitoringProducer(fmt.Sprintf("prod-%d", i), "siteinfo", fmt.Sprintf("host%d", i), 5)
		pserv.Host(p)
	}
	for _, ad := range pserv.Advertisements() {
		if err := reg.RegisterProducer(ad, 0, 600); err != nil {
			t.Fatal(err)
		}
	}
	cserv := NewConsumerServlet("uc00:8080", reg, func(addr string) (*ProducerServlet, error) {
		if addr == pserv.Address {
			return pserv, nil
		}
		return nil, fmt.Errorf("unknown address %q", addr)
	})
	return reg, pserv, cserv
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	reg, pserv, _ := newSetup(t)
	if n := reg.NumRegistered(1); n != 10 {
		t.Fatalf("registered = %d, want 10", n)
	}
	ads, _, err := reg.LookupProducersStats("siteinfo", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ads) != 10 {
		t.Fatalf("lookup = %d ads, want 10", len(ads))
	}
	if ads[0].Address != pserv.Address {
		t.Fatalf("address = %q", ads[0].Address)
	}
}

func TestRegistryRenewalReplaces(t *testing.T) {
	reg, pserv, _ := newSetup(t)
	for _, ad := range pserv.Advertisements() {
		if err := reg.RegisterProducer(ad, 100, 600); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.NumRegistered(101); n != 10 {
		t.Fatalf("after renewal registered = %d, want 10", n)
	}
}

func TestRegistrySoftStateExpiry(t *testing.T) {
	reg, _, _ := newSetup(t)
	if n := reg.NumRegistered(601); n != 0 {
		t.Fatalf("registered after expiry = %d, want 0", n)
	}
	ads, _, _ := reg.LookupProducersStats("siteinfo", 601)
	if len(ads) != 0 {
		t.Fatalf("expired lookup returned %d ads", len(ads))
	}
}

func TestRegistryUnregister(t *testing.T) {
	reg, _, _ := newSetup(t)
	if !reg.UnregisterProducer("prod-3", 1) {
		t.Fatal("unregister failed")
	}
	if reg.UnregisterProducer("prod-3", 1) {
		t.Fatal("double unregister succeeded")
	}
	if n := reg.NumRegistered(1); n != 9 {
		t.Fatalf("registered = %d, want 9", n)
	}
}

func TestRegistryRejectsBlankAd(t *testing.T) {
	reg := NewRegistry("r")
	if err := reg.RegisterProducer(gma.Advertisement{}, 0, 60); err == nil {
		t.Fatal("blank advertisement accepted")
	}
}

func TestRegistryTables(t *testing.T) {
	reg, _, _ := newSetup(t)
	other := NewProducer("px", "netinfo", MonitoringSchema)
	if err := reg.RegisterProducer(other.Advertisement(), 0, 600); err != nil {
		t.Fatal(err)
	}
	tables := reg.Tables(1)
	if len(tables) != 2 || tables[0] != "netinfo" || tables[1] != "siteinfo" {
		t.Fatalf("tables = %v", tables)
	}
}

// oracleTables is Registry.Tables as it was while the Registry ran SQL
// over a table of its advertisements: SELECT table_name … ORDER BY
// table_name, then adjacent duplicates dropped.
func oracleTables(r *Registry, now float64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireAndLog(now)
	producers := relational.NewTable("producers", []relational.Column{{Name: "table_name", Type: relational.StringType}})
	for reg := r.order.next; reg != &r.order; reg = reg.next {
		if err := producers.Insert([]relational.Value{relational.StrVal(reg.ad.TableName)}); err != nil {
			panic(err)
		}
	}
	sel, err := relational.Parse("SELECT table_name FROM producers ORDER BY table_name")
	if err != nil {
		panic(err)
	}
	res, err := relational.ScanSelect(producers, sel)
	if err != nil {
		return nil
	}
	var out []string
	for _, row := range res.Rows {
		name := row[0].S
		if len(out) == 0 || out[len(out)-1] != name {
			out = append(out, name)
		}
	}
	return out
}

// TestRegistryTablesOrder holds Tables to the ORDER BY body it replaced
// on a registry churned with mixed-case, duplicate and non-ASCII table
// names — registrations, renewals that move a producer to another table,
// unregistrations and soft-state expiry — both volatile and reopened
// from its log.
func TestRegistryTablesOrder(t *testing.T) {
	names := []string{"siteinfo", "SiteInfo", "SITEINFO", "netinfo", "Zeta", "alpha", "Éire", "eire", "a b", "siteinfo2"}
	rng := rand.New(rand.NewSource(7))
	store := storage.NewMem()
	durable, err := OpenRegistry("durable", store, 16)
	if err != nil {
		t.Fatal(err)
	}
	volatile := NewRegistry("volatile")
	check := func(r *Registry, now float64) {
		t.Helper()
		want := oracleTables(r, now)
		if got := r.Tables(now); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at %g: Tables %q, oracle %q", r.Name, now, got, want)
		}
	}
	if got := volatile.Tables(0); got != nil {
		t.Fatalf("empty registry: Tables %q, want nil", got)
	}
	for i := 0; i < 200; i++ {
		now := float64(i)
		id := fmt.Sprintf("p%d", rng.Intn(40))
		for _, r := range []*Registry{volatile, durable} {
			if rng.Intn(4) == 0 {
				r.UnregisterProducer(id, now)
				continue
			}
			ad := gma.Advertisement{ProducerID: id, Address: "a:1", TableName: names[rng.Intn(len(names))]}
			if err := r.RegisterProducer(ad, now, float64(5+rng.Intn(60))); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			check(volatile, now)
			check(durable, now)
		}
	}
	reopened, err := OpenRegistry("reopened", store.Reopen(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, now := range []float64{200, 230, 1e9} {
		check(reopened, now)
		check(volatile, now)
	}
}

func TestProducerServletQuery(t *testing.T) {
	_, pserv, _ := newSetup(t)
	res, st, err := pserv.Query(1, "SELECT * FROM siteinfo")
	if err != nil {
		t.Fatal(err)
	}
	// 10 producers x 5 metrics.
	if len(res.Rows) != 50 {
		t.Fatalf("rows = %d, want 50", len(res.Rows))
	}
	if st.RowsReturned != 50 || st.ResponseBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ThreadSpawns != 1 {
		t.Fatalf("thread spawns = %d, want 1", st.ThreadSpawns)
	}
}

func TestProducerServletQueryWithPredicate(t *testing.T) {
	_, pserv, _ := newSetup(t)
	res, _, err := pserv.Query(1, "SELECT metric, value FROM siteinfo WHERE host = 'host3'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if len(res.Columns) != 2 {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestProducerServletRejectsNonSelect(t *testing.T) {
	_, pserv, _ := newSetup(t)
	if _, _, err := pserv.Query(1, "DELETE FROM siteinfo"); err == nil {
		t.Fatal("non-SELECT accepted")
	}
}

func TestProducerServletUnknownTable(t *testing.T) {
	_, pserv, _ := newSetup(t)
	if _, _, err := pserv.Query(1, "SELECT * FROM nosuch"); err == nil {
		t.Fatal("unknown table query succeeded")
	}
}

func TestConsumerServletMediatesQuery(t *testing.T) {
	_, _, cserv := newSetup(t)
	res, st, err := cserv.Query(1, "SELECT * FROM siteinfo WHERE value >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("rows = %d, want 50", len(res.Rows))
	}
	if st.RegistryLookups != 1 {
		t.Fatalf("registry lookups = %d, want 1", st.RegistryLookups)
	}
	if st.ProducersContacted != 1 {
		t.Fatalf("producer servlets contacted = %d, want 1 (all producers share one servlet)", st.ProducersContacted)
	}
}

func TestConsumerServletNoProducers(t *testing.T) {
	_, _, cserv := newSetup(t)
	if _, _, err := cserv.Query(1, "SELECT * FROM unregistered"); err == nil {
		t.Fatal("query for unregistered table succeeded")
	}
}

func TestConsumerServletFanOutAcrossServlets(t *testing.T) {
	// Five producer servlets (the paper's directory-server setup) each
	// with 10 producers of the same table.
	reg := NewRegistry("lucky1")
	servlets := map[string]*ProducerServlet{}
	for s := 0; s < 5; s++ {
		addr := fmt.Sprintf("lucky%d:8080", s+3)
		ps := NewProducerServlet(addr)
		for i := 0; i < 10; i++ {
			ps.Host(NewMonitoringProducer(fmt.Sprintf("p%d-%d", s, i), "siteinfo",
				fmt.Sprintf("host%d-%d", s, i), 3))
		}
		servlets[addr] = ps
		for _, ad := range ps.Advertisements() {
			if err := reg.RegisterProducer(ad, 0, 600); err != nil {
				t.Fatal(err)
			}
		}
	}
	cserv := NewConsumerServlet("uc00:8080", reg, func(addr string) (*ProducerServlet, error) {
		ps, ok := servlets[addr]
		if !ok {
			return nil, fmt.Errorf("unknown %q", addr)
		}
		return ps, nil
	})
	res, st, err := cserv.Query(1, "SELECT * FROM siteinfo")
	if err != nil {
		t.Fatal(err)
	}
	if st.ProducersContacted != 5 {
		t.Fatalf("servlets contacted = %d, want 5", st.ProducersContacted)
	}
	if len(res.Rows) != 5*10*3 {
		t.Fatalf("rows = %d, want 150", len(res.Rows))
	}
}

func TestProducerRefreshOncePerInstant(t *testing.T) {
	p := NewMonitoringProducer("p", "t", "h", 3)
	r1 := p.Rows(5)
	r2 := p.Rows(5)
	if &r1[0] != &r2[0] {
		t.Fatal("same-instant rows regenerated")
	}
	_ = p.Rows(6) // different instant regenerates
}

func TestMonitoringProducerPredicate(t *testing.T) {
	p := NewMonitoringProducer("p", "t", "lucky3", 1)
	if !strings.Contains(p.Predicate, "lucky3") {
		t.Fatalf("predicate = %q", p.Predicate)
	}
	ad := p.Advertisement()
	if ad.TableName != "t" || ad.ProducerID != "p" {
		t.Fatalf("ad = %+v", ad)
	}
}

func TestStaticProducerPublish(t *testing.T) {
	p := NewProducer("p", "t", []relational.Column{{Name: "x", Type: relational.IntType}})
	p.Publish([][]relational.Value{{relational.IntVal(42)}})
	rows := p.Rows(0)
	if len(rows) != 1 || rows[0][0].I != 42 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestAdvertListComesBackEmpty: the list a mediated query looks its
// producers up in goes back to the pool holding no advertisement, up to
// its capacity, and a lookup lent it finds what a new one does, however
// the table name is cased.
func TestAdvertListComesBackEmpty(t *testing.T) {
	reg, _, cserv := newSetup(t)
	want, _, _ := reg.LookupProducersStats("siteinfo", 1)
	lent := LendAdverts()
	ads, st := reg.LookupInto("SiteINFO", 1, *lent)
	if !reflect.DeepEqual(ads, want) || st.RowsReturned != len(want) {
		t.Fatalf("a lent lookup of SiteINFO found %d ads, siteinfo %d", len(ads), len(want))
	}
	ReturnAdverts(lent, ads)
	if len(*lent) != 0 {
		t.Fatalf("the list came back holding %d ads", len(*lent))
	}
	for i, ad := range (*lent)[:cap(*lent)] {
		if ad != (gma.Advertisement{}) {
			t.Fatalf("ad %d still held past the length: %+v", i, ad)
		}
	}
	if _, _, err := cserv.Query(1, "SELECT * FROM SiteInfo"); err != nil {
		t.Fatalf("a mediated query of a mixed-case table: %v", err)
	}
}
