package rgma

import (
	"fmt"
	"testing"

	"repro/internal/relational"
)

// multiServletSetup builds nServlets producer servlets (nProducers each)
// registered with one registry, plus a resolver.
func multiServletSetup(t *testing.T, nServlets, nProducers int) (*Registry, map[string]*ProducerServlet, func(string) (*ProducerServlet, error)) {
	t.Helper()
	reg := NewRegistry("reg")
	servlets := map[string]*ProducerServlet{}
	for s := 0; s < nServlets; s++ {
		addr := fmt.Sprintf("lucky%d:8080", s+3)
		ps := NewProducerServlet(addr)
		for i := 0; i < nProducers; i++ {
			ps.Host(NewMonitoringProducer(fmt.Sprintf("p%d-%d", s, i), "siteinfo",
				fmt.Sprintf("host%d-%d", s, i), 3))
		}
		servlets[addr] = ps
		for _, ad := range ps.Advertisements() {
			if err := reg.RegisterProducer(ad, 0, 1e12); err != nil {
				t.Fatal(err)
			}
		}
	}
	resolve := func(addr string) (*ProducerServlet, error) {
		ps, ok := servlets[addr]
		if !ok {
			return nil, fmt.Errorf("unknown %q", addr)
		}
		return ps, nil
	}
	return reg, servlets, resolve
}

func TestCompositeAggregatesAllProducers(t *testing.T) {
	reg, _, resolve := multiServletSetup(t, 4, 5)
	cp := NewCompositeProducer("composite", "agg:8080", "siteinfo", reg, resolve)
	contacted, st, err := cp.Refresh(1)
	if err != nil {
		t.Fatal(err)
	}
	if contacted != 4 {
		t.Fatalf("contacted %d servlets, want 4", contacted)
	}
	if st.RegistryLookups != 1 {
		t.Fatalf("registry lookups = %d", st.RegistryLookups)
	}
	res, _, err := cp.Query(1, "SELECT * FROM siteinfo")
	if err != nil {
		t.Fatal(err)
	}
	// 4 servlets x 5 producers x 3 metrics.
	if len(res.Rows) != 60 {
		t.Fatalf("aggregated rows = %d, want 60", len(res.Rows))
	}
}

func TestCompositeServesFromCacheWithinTTL(t *testing.T) {
	reg, _, resolve := multiServletSetup(t, 2, 2)
	cp := NewCompositeProducer("composite", "agg:8080", "siteinfo", reg, resolve)
	cp.RefreshTTL = 100
	if _, _, err := cp.Query(1, "SELECT * FROM siteinfo"); err != nil {
		t.Fatal(err)
	}
	// Within the TTL, no upstream contact happens.
	_, st, err := cp.Query(50, "SELECT * FROM siteinfo")
	if err != nil {
		t.Fatal(err)
	}
	if st.ProducersContacted != 0 {
		t.Fatalf("cached query contacted %d producers", st.ProducersContacted)
	}
	// Past the TTL it refreshes.
	_, st, err = cp.Query(200, "SELECT * FROM siteinfo")
	if err != nil {
		t.Fatal(err)
	}
	if st.ProducersContacted == 0 {
		t.Fatal("stale query did not refresh")
	}
}

func TestCompositeRegistersAsAggregatedSource(t *testing.T) {
	reg, servlets, resolve := multiServletSetup(t, 2, 2)
	cp := NewCompositeProducer("composite", "agg:8080", "siteinfo", reg, resolve)
	if _, _, err := cp.Refresh(1); err != nil {
		t.Fatal(err)
	}
	for _, ad := range cp.Advertisements() {
		if err := reg.RegisterProducer(ad, 1, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	servlets["agg:8080"] = cp.Servlet()
	// A consumer can now reach aggregated data through the registry.
	cserv := NewConsumerServlet("c:8080", reg, resolve)
	_ = cserv
	ads, _, err := reg.LookupProducersStats("siteinfo", 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ad := range ads {
		if ad.ProducerID == "composite" {
			found = true
		}
	}
	if !found {
		t.Fatal("composite not discoverable through the registry")
	}
}

func TestCompositeExcludesItself(t *testing.T) {
	reg, servlets, resolve := multiServletSetup(t, 2, 1)
	cp := NewCompositeProducer("composite", "agg:8080", "siteinfo", reg, resolve)
	servlets["agg:8080"] = cp.Servlet()
	for _, ad := range cp.Advertisements() {
		if err := reg.RegisterProducer(ad, 0, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh after self-registration must not loop on itself.
	contacted, _, err := cp.Refresh(1)
	if err != nil {
		t.Fatal(err)
	}
	if contacted != 2 {
		t.Fatalf("contacted %d, want 2 (self excluded)", contacted)
	}
}

// TestSubscriptionDeliversPublishedRows: the hub hands a subscriber
// every published row, named by its producer; the subscriber runs its
// own query over them.
func TestSubscriptionDeliversPublishedRows(t *testing.T) {
	p := NewProducer("p", "t", MonitoringSchema)
	count := 0
	p.Subscribe(&Subscription{ID: "all", Deliver: func(producerID string, rows [][]relational.Value) {
		if producerID != "p" {
			t.Errorf("producer id = %q", producerID)
		}
		count += len(rows)
	}})
	p.Publish([][]relational.Value{
		{relational.StrVal("h"), relational.StrVal("m"), relational.RealVal(75), relational.IntVal(1)},
		{relational.StrVal("h"), relational.StrVal("m"), relational.RealVal(25), relational.IntVal(1)},
	})
	if count != 2 {
		t.Fatalf("delivered %d rows, want 2", count)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	p := NewProducer("p", "t", MonitoringSchema)
	count := 0
	p.Subscribe(&Subscription{ID: "s", Deliver: func(string, [][]relational.Value) { count++ }})
	if p.Subscribers() != 1 {
		t.Fatalf("subscribers = %d", p.Subscribers())
	}
	if !p.Unsubscribe("s") {
		t.Fatal("unsubscribe failed")
	}
	if p.Unsubscribe("s") {
		t.Fatal("double unsubscribe succeeded")
	}
	p.Publish([][]relational.Value{
		{relational.StrVal("h"), relational.StrVal("m"), relational.RealVal(1), relational.IntVal(1)},
	})
	if count != 0 {
		t.Fatal("delivery after unsubscribe")
	}
}

func TestRefreshDrivenDelivery(t *testing.T) {
	// Sensor-style producers push on every regeneration.
	p := NewMonitoringProducer("p", "t", "host", 3)
	deliveries := 0
	p.Subscribe(&Subscription{ID: "s", Deliver: func(string, [][]relational.Value) { deliveries++ }})
	p.Rows(1)
	p.Rows(1) // same instant: no regeneration, no delivery
	p.Rows(2)
	if deliveries != 2 {
		t.Fatalf("deliveries = %d, want 2", deliveries)
	}
}
