package gridmon

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
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
	if _, err := RunExperimentWorkers("exp9", nil, true, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 5 || names[0] != "exp1" || names[4] != "exp5" {
		t.Fatalf("names = %v", names)
	}
}

// TestRunExperimentQuickGolden runs every experiment set end to end at
// the quick windows and compares its CSV with the checked-in figures in
// testdata/experiments-quick, which `go run ./cmd/gridmon-bench -quick
// -csv testdata/experiments-quick` writes. Every simulated number must
// stay bit-identical unless a change means to move the figures.
func TestRunExperimentQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	for _, name := range ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "experiments-quick", name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			series, err := RunExperimentWorkers(name, nil, true, runtime.GOMAXPROCS(0))
			if err != nil {
				t.Fatal(err)
			}
			if got := ExperimentCSV(series); got != string(want) {
				t.Errorf("%s.csv changed:\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
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
