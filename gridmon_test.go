package gridmon

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/classad"
)

func TestGridMDSQueryable(t *testing.T) {
	grid, err := New(WithHosts("lucky3", "lucky7"), WithSystems(MDS))
	if err != nil {
		t.Fatal(err)
	}
	giis, grises := grid.MDS()
	if giis == nil || len(grises) != 2 {
		t.Fatalf("grises = %d", len(grises))
	}
	rs, err := grid.Query(context.Background(), Query{
		System: MDS,
		Role:   RoleAggregateServer,
		Expr:   "(objectclass=MdsCpu)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("cpu records = %d, want 2", rs.Len())
	}
}

func TestGridRGMAQueryable(t *testing.T) {
	grid, err := New(WithHosts("a", "b"), WithSystems(RGMA), WithRGMAProducers(3))
	if err != nil {
		t.Fatal(err)
	}
	_, _, servlets := grid.RGMA()
	if len(servlets) != 2 {
		t.Fatalf("servlets = %d", len(servlets))
	}
	rs, err := grid.Query(context.Background(), Query{
		System: RGMA,
		Expr:   "SELECT host, value FROM siteinfo",
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 hosts x 3 producers x 5 metrics.
	if rs.Len() != 30 {
		t.Fatalf("rows = %d, want 30", rs.Len())
	}
}

func TestGridHawkeyeQueryable(t *testing.T) {
	grid, err := New(WithHosts("a1", "a2", "a3"), WithSystems(Hawkeye), WithManagerHost("m"))
	if err != nil {
		t.Fatal(err)
	}
	_, agents := grid.HawkeyePool()
	if len(agents) != 3 {
		t.Fatalf("agents = %d", len(agents))
	}
	rs, err := grid.Query(context.Background(), Query{
		System: Hawkeye,
		Role:   RoleAggregateServer,
		Expr:   "TARGET.CpuLoad >= 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3 || rs.Work.RecordsVisited != 3 {
		t.Fatalf("ads = %d scanned = %d", rs.Len(), rs.Work.RecordsVisited)
	}
}

func TestComponentMappingExposed(t *testing.T) {
	if ComponentMapping[RoleInformationServer][MDS] != "GRIS" {
		t.Fatal("Table 1 not exposed correctly")
	}
	if ComponentMapping[RoleDirectoryServer][RGMA] != "Registry" {
		t.Fatal("Table 1 registry row wrong")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("exp9", nil, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 5 || names[0] != "exp1" || names[4] != "exp5" {
		t.Fatalf("names = %v", names)
	}
}

// TestRunExperimentQuickExp3 exercises the full experiment pipeline end
// to end on the smallest set (Experiment 3 has the fewest points).
func TestRunExperimentQuickExp3(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	var buf bytes.Buffer
	series, err := RunExperiment("exp3", &buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4", len(series))
	}
	out := buf.String()
	for _, want := range []string{"Figures 13-16", "Throughput", "MDS GRIS(cache)", "Hawkeye Agent"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	csv := ExperimentCSV(series)
	if !strings.Contains(csv, "series,x,") {
		t.Error("CSV header missing")
	}
}

func TestTriggerThroughPublicAPI(t *testing.T) {
	grid, err := New(WithHosts("h1", "h2"), WithSystems(Hawkeye), WithManagerHost("m"))
	if err != nil {
		t.Fatal(err)
	}
	mgr, _ := grid.HawkeyePool()
	fired := 0
	trAd := classad.NewAd()
	trAd.Set(classad.AttrRequirements, classad.MustParseExpr("TARGET.CpuLoad >= 0"))
	mgr.SubmitTrigger(0, &Trigger{
		Name: "always",
		Ad:   trAd,
		Fire: func(string, *ClassAd) { fired++ },
	})
	if fired != 2 {
		t.Fatalf("fired = %d on submit, want 2", fired)
	}
	if err := grid.Advertise(30); err != nil {
		t.Fatal(err)
	}
	if fired != 4 {
		t.Fatalf("fired = %d after advertise, want 4", fired)
	}
}
