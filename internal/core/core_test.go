package core

import (
	"fmt"
	"testing"

	"repro/internal/hawkeye"
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

func newMDSServer(t testing.TB) *GRISServer {
	t.Helper()
	return &GRISServer{GRIS: mds.NewGRIS("lucky7", 1e9, mds.DefaultProviders())}
}

func newRGMAServer(t testing.TB) (*ProducerServletServer, *RegistryServer) {
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
	return &ProducerServletServer{Servlet: ps}, &RegistryServer{Registry: reg}
}

func newHawkeyeServers(t testing.TB) (*AgentServer, *ManagerServer) {
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
	return &AgentServer{Agent: agent}, &ManagerServer{Manager: mgr}
}

func TestInformationServersAnswerUniformly(t *testing.T) {
	gris := newMDSServer(t)
	pserv, _ := newRGMAServer(t)
	agent, _ := newHawkeyeServers(t)

	servers := []InformationServer{gris, pserv, agent}
	for _, s := range servers {
		w, err := s.QueryAll(1)
		if err != nil {
			t.Fatalf("%s/%s: %v", s.System(), s.ComponentName(), err)
		}
		if w.RecordsReturned == 0 || w.ResponseBytes == 0 {
			t.Errorf("%s/%s returned empty work: %+v", s.System(), s.ComponentName(), w)
		}
		if s.Role() != RoleInformationServer {
			t.Errorf("%s role = %v", s.ComponentName(), s.Role())
		}
		if ComponentMapping[RoleInformationServer][s.System()] != s.ComponentName() {
			t.Errorf("%s/%s not in Table 1", s.System(), s.ComponentName())
		}
	}
}

func TestCachingContrastAcrossSystems(t *testing.T) {
	// The paper's central finding in one assertion: a cached GRIS performs
	// no collector invocations per query, while the Agent re-collects
	// everything.
	gris := newMDSServer(t)
	gris.GRIS.Warm(0)
	agent, _ := newHawkeyeServers(t)

	wg, _ := gris.QueryAll(1)
	wa, _ := agent.QueryAll(1)
	if wg.CollectorInvocations != 0 {
		t.Errorf("cached GRIS invoked %v collectors per query", wg.CollectorInvocations)
	}
	if wa.CollectorInvocations != 11 {
		t.Errorf("Agent invoked %v collectors, want 11 (no resident database)", wa.CollectorInvocations)
	}
}

func TestDirectoryServersAnswerUniformly(t *testing.T) {
	giis := mds.NewGIIS("giis0", 1e9, 1e9)
	for i := 0; i < 5; i++ {
		g := mds.NewGRIS(fmt.Sprintf("lucky%d", i+3), 1e9, mds.DefaultProviders())
		if _, err := giis.Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
			t.Fatal(err)
		}
	}
	_, registry := newRGMAServer(t)
	_, manager := newHawkeyeServers(t)
	manager.AsDirectory = true

	dirs := []DirectoryServer{&GIISServer{GIIS: giis, AsDirectory: true}, registry, manager}
	for _, d := range dirs {
		w, err := d.Lookup(1)
		if err != nil {
			t.Fatalf("%s/%s: %v", d.System(), d.ComponentName(), err)
		}
		if w.RecordsReturned == 0 {
			t.Errorf("%s/%s lookup returned no records", d.System(), d.ComponentName())
		}
		if d.Role() != RoleDirectoryServer {
			t.Errorf("%s role = %v", d.ComponentName(), d.Role())
		}
	}
}

func TestAggregateQueryPartCheaperThanAll(t *testing.T) {
	giis := mds.NewGIIS("giis0", 1e9, 1e9)
	for i := 0; i < 10; i++ {
		g := mds.NewGRIS(fmt.Sprintf("sim%d", i), 1e9, mds.DefaultProviders())
		if _, err := giis.Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
			t.Fatal(err)
		}
	}
	agg := &GIISServer{GIIS: giis}
	all, err := agg.QueryAll(1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := agg.QueryPart(1)
	if err != nil {
		t.Fatal(err)
	}
	if part.ResponseBytes >= all.ResponseBytes {
		t.Fatalf("query-part bytes %d >= query-all bytes %d", part.ResponseBytes, all.ResponseBytes)
	}
	if part.RecordsVisited != all.RecordsVisited {
		t.Fatalf("both shapes must walk the whole tree: %d vs %d", part.RecordsVisited, all.RecordsVisited)
	}
}

func TestManagerWorstCaseScansEverything(t *testing.T) {
	_, manager := newHawkeyeServers(t)
	w, err := manager.QueryPart(1)
	if err != nil {
		t.Fatal(err)
	}
	if w.RecordsVisited != 6 {
		t.Fatalf("worst-case scan visited %d, want 6", w.RecordsVisited)
	}
	if w.RecordsReturned != 0 {
		t.Fatalf("worst-case constraint returned %d records", w.RecordsReturned)
	}
}

func TestCollectors(t *testing.T) {
	provs := mds.DefaultProviders()
	mods := hawkeye.DefaultModules()
	prod := rgma.NewMonitoringProducer("p", "t", "h", 4)
	collectors := []InformationCollector{
		&ProviderCollector{Provider: provs[0], Host: "lucky7"},
		&ModuleCollector{Module: mods[0], Host: "lucky4"},
		&ProducerCollector{Producer: prod},
	}
	for _, c := range collectors {
		n, err := c.Collect(1)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.System(), c.ComponentName(), err)
		}
		if n == 0 {
			t.Errorf("%s/%s collected nothing", c.System(), c.ComponentName())
		}
		if ComponentMapping[RoleInformationCollector][c.System()] != c.ComponentName() {
			t.Errorf("%s/%s not in Table 1", c.System(), c.ComponentName())
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
