package core

import (
	"fmt"
	"testing"

	"repro/internal/classad"
	"repro/internal/hawkeye"
	"repro/internal/ldap"
	"repro/internal/mds"
	"repro/internal/rgma"
)

// TestComponentMapping verifies the paper's Table 1 verbatim.
func TestComponentMapping(t *testing.T) {
	want := []struct {
		role    Role
		mds     string
		rgma    string
		hawkeye string
	}{
		{RoleInformationCollector, "Information Provider", "Producer", "Module"},
		{RoleInformationServer, "GRIS", "ProducerServlet", "Agent"},
		{RoleAggregateServer, "GIIS", "", "Manager"},
		{RoleDirectoryServer, "GIIS", "Registry", "Manager"},
	}
	for _, w := range want {
		row := ComponentMapping[w.role]
		if row[SystemMDS] != w.mds || row[SystemRGMA] != w.rgma || row[SystemHawkeye] != w.hawkeye {
			t.Errorf("Table 1 row %q = %v, want {%q %q %q}", w.role, row, w.mds, w.rgma, w.hawkeye)
		}
	}
}

func newGRIS() *mds.GRIS {
	return mds.NewGRIS("lucky7", 1e9, mds.DefaultProviders())
}

func newRGMA(t testing.TB) (*rgma.ProducerServlet, *rgma.Registry) {
	t.Helper()
	reg := rgma.NewRegistry("lucky1")
	ps := rgma.NewProducerServlet("lucky3:8080")
	for i := 0; i < 10; i++ {
		ps.Host(rgma.NewMonitoringProducer(fmt.Sprintf("p%d", i), "siteinfo", fmt.Sprintf("h%d", i), 5))
	}
	for _, ad := range ps.Advertisements() {
		if err := reg.RegisterProducer(ad, 0, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	return ps, reg
}

// newHawkeye returns an Agent with the default modules and a Manager
// holding six machines' Startd ads.
func newHawkeye(t testing.TB) (*hawkeye.Agent, *hawkeye.Manager) {
	t.Helper()
	agent := hawkeye.NewAgent("lucky4", 30)
	if err := agent.AddModules(hawkeye.DefaultModules()); err != nil {
		t.Fatal(err)
	}
	mgr := hawkeye.NewManager("lucky3", 0)
	for i := 0; i < 6; i++ {
		a := hawkeye.NewAgent(fmt.Sprintf("lucky%d", i+3), 30)
		if err := a.AddModules(hawkeye.DefaultModules()); err != nil {
			t.Fatal(err)
		}
		ad, _ := a.StartdAd(0)
		if _, err := mgr.Update(0, ad); err != nil {
			t.Fatal(err)
		}
	}
	return agent, mgr
}

// TestInformationServersAnswerUniformly: each system's Table 1
// information server answers "everything" with Work in the common
// units — records and bytes returned.
func TestInformationServersAnswerUniformly(t *testing.T) {
	ps, _ := newRGMA(t)
	agent, _ := newHawkeye(t)
	_, mdsSt := newGRIS().Query(1, nil, nil)
	_, rgmaSt, err := ps.Query(1, "SELECT * FROM siteinfo")
	if err != nil {
		t.Fatal(err)
	}
	_, hawkSt := agent.Query(1, nil)
	for sys, w := range map[System]Work{
		SystemMDS:     MDSWork(mdsSt),
		SystemRGMA:    RGMAWork(rgmaSt),
		SystemHawkeye: HawkeyeWork(hawkSt),
	} {
		name := ComponentMapping[RoleInformationServer][sys]
		if w.RecordsReturned == 0 || w.ResponseBytes == 0 {
			t.Errorf("%s/%s returned empty work: %+v", sys, name, w)
		}
	}
}

func TestCachingContrastAcrossSystems(t *testing.T) {
	// The paper's central finding in one assertion: a cached GRIS performs
	// no collector invocations per query, while the Agent re-collects
	// everything.
	gris := newGRIS()
	gris.Warm(0)
	agent, _ := newHawkeye(t)

	_, gst := gris.Query(1, nil, nil)
	_, ast := agent.Query(1, nil)
	if wg := MDSWork(gst); wg.CollectorInvocations != 0 {
		t.Errorf("cached GRIS invoked %v collectors per query", wg.CollectorInvocations)
	}
	if wa := HawkeyeWork(ast); wa.CollectorInvocations != 11 {
		t.Errorf("Agent invoked %v collectors, want 11 (no resident database)", wa.CollectorInvocations)
	}
}

// TestDirectoryServersAnswerUniformly: each system's directory query —
// the GIIS search, the Registry's producer lookup, the Manager's pool
// scan — resolves resources.
func TestDirectoryServersAnswerUniformly(t *testing.T) {
	giis := mds.NewGIIS("giis0", 1e9, 1e9)
	for i := 0; i < 5; i++ {
		g := mds.NewGRIS(fmt.Sprintf("lucky%d", i+3), 1e9, mds.DefaultProviders())
		if _, err := giis.Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, registry := newRGMA(t)
	_, manager := newHawkeye(t)

	_, mdsSt, err := giis.Query(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, rgmaSt, err := registry.LookupProducersStats("siteinfo", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, hawkSt := manager.Query(1, nil)
	for sys, w := range map[System]Work{
		SystemMDS:     MDSWork(mdsSt),
		SystemRGMA:    RGMAWork(rgmaSt),
		SystemHawkeye: HawkeyeWork(hawkSt),
	} {
		if w.RecordsReturned == 0 {
			t.Errorf("%s/%s lookup returned no records", sys, ComponentMapping[RoleDirectoryServer][sys])
		}
	}
}

// TestAggregateQueryPartCheaperThanAll: the GIIS "query part" of
// Experiment Set 4 (one attribute of every CPU entry) returns fewer bytes
// than "query all" but walks the same tree.
func TestAggregateQueryPartCheaperThanAll(t *testing.T) {
	giis := mds.NewGIIS("giis0", 1e9, 1e9)
	for i := 0; i < 10; i++ {
		g := mds.NewGRIS(fmt.Sprintf("sim%d", i), 1e9, mds.DefaultProviders())
		if _, err := giis.Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, allSt, err := giis.Query(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, partSt, err := giis.Query(1, ldap.MustParseFilter("(objectclass=MdsCpu)"), []string{"Mds-Cpu-Free-1minX100"})
	if err != nil {
		t.Fatal(err)
	}
	all, part := MDSWork(allSt), MDSWork(partSt)
	if part.ResponseBytes >= all.ResponseBytes {
		t.Fatalf("query-part bytes %d >= query-all bytes %d", part.ResponseBytes, all.ResponseBytes)
	}
	if part.RecordsVisited != all.RecordsVisited {
		t.Fatalf("both shapes must walk the whole tree: %d vs %d", part.RecordsVisited, all.RecordsVisited)
	}
}

func TestManagerWorstCaseScansEverything(t *testing.T) {
	_, manager := newHawkeye(t)
	_, st := manager.Query(1, classad.MustParseExpr("TARGET.CpuLoad > 200")) // matches nothing
	w := HawkeyeWork(st)
	if w.RecordsVisited != 6 {
		t.Fatalf("worst-case scan visited %d, want 6", w.RecordsVisited)
	}
	if w.RecordsReturned != 0 {
		t.Fatalf("worst-case constraint returned %d records", w.RecordsReturned)
	}
}

// TestCollectors: each system's Table 1 information collector — an MDS
// provider, a Hawkeye module, an R-GMA producer — produces records.
func TestCollectors(t *testing.T) {
	counts := map[System]int{
		SystemMDS:     len(mds.DefaultProviders()[0].Generate("lucky7", 1)),
		SystemHawkeye: hawkeye.DefaultModules()[0].Collect("lucky4", 1).Len(),
		SystemRGMA:    len(rgma.NewMonitoringProducer("p", "t", "h", 4).Rows(1)),
	}
	for sys, n := range counts {
		if n == 0 {
			t.Errorf("%s/%s collected nothing", sys, ComponentMapping[RoleInformationCollector][sys])
		}
	}
}

func TestWorkAdd(t *testing.T) {
	w := Work{CollectorInvocations: 1, RecordsVisited: 2, ResponseBytes: 3}
	w.Add(Work{CollectorInvocations: 0.5, RecordsReturned: 4, Subqueries: 1, ThreadSpawns: 2})
	if w.CollectorInvocations != 1.5 || w.RecordsVisited != 2 || w.RecordsReturned != 4 ||
		w.Subqueries != 1 || w.ThreadSpawns != 2 || w.ResponseBytes != 3 {
		t.Fatalf("Add result %+v", w)
	}
}
