package gridmon

import (
	"context"
	"testing"

	"repro/internal/gma"
	"repro/internal/leakcheck"
	"repro/internal/mds"
)

// buildDurableGrid deploys MDS + R-GMA over dir; two grids built over
// the same directory are the restart pair the durability tests compare.
func buildDurableGrid(t *testing.T, dir string) *Grid {
	t.Helper()
	grid, err := New(
		WithHosts(testHosts...),
		fixedClock(1),
		WithSystems(MDS, RGMA),
		WithStorage(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// extraAd is a runtime registration — state only the WAL remembers,
// since a rebuilt grid re-announces its own deployment but knows
// nothing about producers that registered while the old one ran.
var extraAd = gma.Advertisement{
	ProducerID: "extra-producer",
	Address:    "elsewhere:8080",
	TableName:  "siteinfo",
	Predicate:  "host = 'elsewhere'",
}

func registryHas(t *testing.T, grid *Grid, producerID string) bool {
	t.Helper()
	registry, _, _ := grid.RGMA()
	ads, _, err := registry.LookupProducersStats("siteinfo", grid.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, ad := range ads {
		if ad.ProducerID == producerID {
			return true
		}
	}
	return false
}

// TestGridStorageSurvivesCrash is the facade-level acceptance test: a
// WithStorage grid accumulates runtime registrations, is abandoned
// without Close (the in-process analog of kill -9 — nothing flushes,
// nothing snapshots), and a new grid over the same directory must know
// everything the dead one knew.
func TestGridStorageSurvivesCrash(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	g1 := buildDurableGrid(t, dir)

	registry, _, _ := g1.RGMA()
	if err := registry.RegisterProducer(extraAd, g1.Now(), 1e12); err != nil {
		t.Fatal(err)
	}
	giis, _ := g1.MDS()
	extraGris := mds.NewGRIS("elsewhere", 1e12, mds.DefaultProviders())
	extraGris.Warm(g1.Now())
	if _, err := giis.Register("gris-extra", extraGris, g1.Now()); err != nil {
		t.Fatal(err)
	}
	baseline := giis.NumRegistered(g1.Now())
	if !registryHas(t, g1, extraAd.ProducerID) {
		t.Fatal("runtime registration not visible before the crash")
	}
	// Crash: g1 is abandoned with its stores open. Nothing else may
	// touch dir through it.

	g2 := buildDurableGrid(t, dir)
	defer g2.Close()
	if !registryHas(t, g2, extraAd.ProducerID) {
		t.Error("runtime producer registration lost in the crash")
	}
	if !registryHas(t, g2, testHosts[0]+"-p0") {
		t.Error("deployment's own producer missing after recovery")
	}
	giis2, _ := g2.MDS()
	if n := giis2.NumRegistered(g2.Now()); n != baseline {
		t.Errorf("GIIS NumRegistered after crash = %d, want %d (extra source recovered, detached)", n, baseline)
	}
	// The recovered extra registration is detached (its GRIS died with
	// the old process), so queries serve only the deployment's hosts —
	// until the source re-registers under its recovered id, after which
	// its data is served again.
	if _, err := giis2.Register("gris-extra", extraGris, g2.Now()); err != nil {
		t.Fatalf("re-registering the recovered source: %v", err)
	}
	hosts := make(map[string]bool)
	for _, h := range giis2.Hosts(g2.Now()) {
		hosts[h] = true
	}
	if !hosts["elsewhere"] {
		t.Errorf("reattached source's data not served; hosts seen: %v", hosts)
	}

	// The recovered grid still answers facade queries.
	rs, err := g2.Query(context.Background(), Query{System: RGMA, Role: RoleDirectoryServer, Expr: "siteinfo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) == 0 {
		t.Error("recovered grid answered a directory query with no records")
	}
}

// TestGridStorageCleanClose pins the clean-shutdown path: Close writes
// final snapshots, and the next grid over the directory opens replay-
// free with the same state. Closing twice is safe.
func TestGridStorageCleanClose(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	g1 := buildDurableGrid(t, dir)
	registry, _, _ := g1.RGMA()
	if err := registry.RegisterProducer(extraAd, g1.Now(), 1e12); err != nil {
		t.Fatal(err)
	}
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g1.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	g2 := buildDurableGrid(t, dir)
	defer g2.Close()
	if !registryHas(t, g2, extraAd.ProducerID) {
		t.Error("runtime registration lost across a clean restart")
	}
}

// TestGridVolatileCloseNoop pins that a grid without WithStorage closes
// as a no-op — the facade's Close is safe to call unconditionally.
func TestGridVolatileCloseNoop(t *testing.T) {
	leakcheck.Check(t)
	grid := newTestGrid(t)
	if err := grid.Close(); err != nil {
		t.Fatal(err)
	}
}
