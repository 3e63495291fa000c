package hawkeye

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/classad"
)

func TestDefaultModulesCount(t *testing.T) {
	ms := DefaultModules()
	if len(ms) != 11 {
		t.Fatalf("default modules = %d, want 11 (standard Hawkeye install)", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Name] {
			t.Fatalf("duplicate module %q", m.Name)
		}
		seen[m.Name] = true
		if ad := m.Collect("lucky4", 0); ad.Len() == 0 {
			t.Fatalf("module %q produced empty ad", m.Name)
		}
	}
}

func TestVmstatModuleCopiesDistinct(t *testing.T) {
	ms := VmstatModuleCopies(5)
	a := ms[0].Collect("h", 0)
	b := ms[1].Collect("h", 0)
	for _, name := range a.Names() {
		if _, ok := b.Lookup(name); ok {
			t.Fatalf("module copies share attribute %q; Startd ad would not grow", name)
		}
	}
}

func newDefaultAgent(t *testing.T) *Agent {
	t.Helper()
	a := NewAgent("lucky4", 30)
	if err := a.AddModules(DefaultModules()); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAgentStartdAdIntegratesModules(t *testing.T) {
	a := newDefaultAgent(t)
	ad, st := a.StartdAd(0)
	if st.ModulesCollected != 11 {
		t.Fatalf("collected %d modules, want 11", st.ModulesCollected)
	}
	if v := ad.Eval("Name"); !v.SameAs(classad.Str("lucky4")) {
		t.Fatalf("Name = %v", v)
	}
	if v := ad.Eval("OpSys"); !v.SameAs(classad.Str("LINUX")) {
		t.Fatalf("OpSys = %v (module ads not merged)", v)
	}
	if ad.Eval("CpuLoad").IsUndefined() {
		t.Fatal("CpuLoad missing from Startd ad")
	}
}

func TestAgentModuleLimit(t *testing.T) {
	a := NewAgent("lucky4", 30)
	blank := func(*classad.Ad, string, float64) {}
	for i := 0; i < MaxModules; i++ {
		if err := a.AddModule(&Module{Name: fmt.Sprintf("m%d", i), Fill: blank}); err != nil {
			t.Fatalf("module %d rejected: %v", i, err)
		}
	}
	err := a.AddModule(&Module{Name: "m99", Fill: blank})
	if err == nil {
		t.Fatal("99th module accepted; the Startd should crash")
	}
	if _, ok := err.(ErrStartdCrash); !ok {
		t.Fatalf("error type %T, want ErrStartdCrash", err)
	}
}

func TestAgentQueryRecollectsEveryTime(t *testing.T) {
	// The Agent has no resident database: each query re-runs the modules.
	a := newDefaultAgent(t)
	for i := 0; i < 3; i++ {
		_, st := a.Query(float64(i), nil)
		if st.ModulesCollected != 11 {
			t.Fatalf("query %d collected %d modules, want 11", i, st.ModulesCollected)
		}
	}
}

func TestAgentQueryConstraint(t *testing.T) {
	a := newDefaultAgent(t)
	ad, st := a.Query(0, classad.MustParseExpr("TARGET.CpuLoad >= 0"))
	if ad == nil || st.AdsReturned != 1 {
		t.Fatal("satisfiable constraint returned nothing")
	}
	ad, st = a.Query(0, classad.MustParseExpr("TARGET.CpuLoad > 100"))
	if ad != nil || st.AdsReturned != 0 {
		t.Fatal("unsatisfiable constraint returned an ad")
	}
	if st.ModulesCollected != 11 {
		t.Fatal("non-matching query still pays collection cost")
	}
}

func TestAgentQueryModule(t *testing.T) {
	a := newDefaultAgent(t)
	ad, st, err := a.QueryModule(0, "disk")
	if err != nil {
		t.Fatal(err)
	}
	if ad.Eval("FreeDiskMB").IsUndefined() {
		t.Fatal("disk module ad missing FreeDiskMB")
	}
	if st.ModulesCollected != 1 {
		t.Fatalf("module query collected %d, want 1", st.ModulesCollected)
	}
	if _, _, err := a.QueryModule(0, "nope"); err == nil {
		t.Fatal("unknown module query succeeded")
	}
}

func newPool(t *testing.T, nAgents int) (*Manager, []*Agent) {
	t.Helper()
	m := NewManager("lucky3", 90)
	var agents []*Agent
	for i := 0; i < nAgents; i++ {
		a := NewAgent(fmt.Sprintf("lucky%d", i+4), 30)
		if err := a.AddModules(DefaultModules()); err != nil {
			t.Fatal(err)
		}
		ad, _ := a.StartdAd(0)
		if _, err := m.Update(0, ad); err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	return m, agents
}

func TestManagerIndexedLookup(t *testing.T) {
	m, _ := newPool(t, 3)
	ad, st, ok := m.QueryByName(1, "LUCKY5") // case-insensitive
	if !ok {
		t.Fatal("indexed lookup missed")
	}
	if v := ad.Eval("Name"); !v.SameAs(classad.Str("lucky5")) {
		t.Fatalf("Name = %v", v)
	}
	if st.AdsScanned != 0 {
		t.Fatalf("indexed lookup scanned %d ads, want 0", st.AdsScanned)
	}
	if _, _, ok := m.QueryByName(1, "nope"); ok {
		t.Fatal("lookup of unknown machine succeeded")
	}
}

func TestManagerScanQuery(t *testing.T) {
	m, _ := newPool(t, 5)
	// Worst case from the paper: a constraint no machine meets scans all.
	ads, st := m.Query(1, classad.MustParseExpr("TARGET.CpuLoad > 1000"))
	if len(ads) != 0 {
		t.Fatalf("impossible constraint matched %d", len(ads))
	}
	if st.AdsScanned != 5 {
		t.Fatalf("scanned %d, want 5", st.AdsScanned)
	}
	// A satisfiable constraint returns the matching subset.
	ads, _ = m.Query(1, classad.MustParseExpr("TARGET.OpSys == \"LINUX\""))
	if len(ads) != 5 {
		t.Fatalf("matched %d, want 5", len(ads))
	}
}

func TestManagerAdExpiry(t *testing.T) {
	m, agents := newPool(t, 2)
	// Only lucky4 keeps advertising.
	ad, _ := agents[0].StartdAd(60)
	if _, err := m.Update(60, ad); err != nil {
		t.Fatal(err)
	}
	if n := m.NumMachines(120); n != 1 {
		t.Fatalf("machines after expiry = %d, want 1", n)
	}
	if names := m.Machines(120); len(names) != 1 || names[0] != "lucky4" {
		t.Fatalf("survivors = %v", names)
	}
}

func TestManagerTriggerFiresOnUpdate(t *testing.T) {
	m := NewManager("mgr", 0)
	var fired []string
	tr := &Trigger{
		Name: "high-cpu",
		Ad:   classad.NewAd(),
		Fire: func(machine string, ad *classad.Ad) { fired = append(fired, machine) },
	}
	tr.Ad.Set(classad.AttrRequirements, classad.MustParseExpr("TARGET.CpuLoad > 50"))
	if n := m.SubmitTrigger(0, tr); n != 0 {
		t.Fatalf("trigger fired %d times on empty pool", n)
	}
	busy := classad.NewAd()
	busy.SetString("Name", "lucky6")
	busy.SetReal("CpuLoad", 80)
	if _, err := m.Update(1, busy); err != nil {
		t.Fatal(err)
	}
	idle := classad.NewAd()
	idle.SetString("Name", "lucky7")
	idle.SetReal("CpuLoad", 5)
	if _, err := m.Update(1, idle); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "lucky6" {
		t.Fatalf("fired = %v, want [lucky6]", fired)
	}
}

func TestManagerTriggerOnSubmitMatchesExisting(t *testing.T) {
	m, _ := newPool(t, 4)
	tr := &Trigger{Name: "all-linux", Ad: classad.NewAd()}
	tr.Ad.Set(classad.AttrRequirements, classad.MustParseExpr("TARGET.OpSys == \"LINUX\""))
	if n := m.SubmitTrigger(1, tr); n != 4 {
		t.Fatalf("trigger fired %d, want 4", n)
	}
	if !m.RemoveTrigger("all-linux") {
		t.Fatal("remove failed")
	}
	if m.RemoveTrigger("all-linux") {
		t.Fatal("double remove succeeded")
	}
}

func TestManagerUpdateRequiresName(t *testing.T) {
	m := NewManager("mgr", 0)
	if _, err := m.Update(0, classad.NewAd()); err == nil {
		t.Fatal("nameless ad accepted")
	}
}

func TestManagerAgentAddress(t *testing.T) {
	m, _ := newPool(t, 1)
	addr, ok := m.AgentAddress(1, "lucky4")
	if !ok || addr == "" {
		t.Fatal("agent address lookup failed")
	}
	if _, ok := m.AgentAddress(1, "nowhere"); ok {
		t.Fatal("unknown agent resolved")
	}
}

func TestManagerUpdateReplacesAd(t *testing.T) {
	m := NewManager("mgr", 0)
	ad1 := classad.NewAd()
	ad1.SetString("Name", "host1")
	ad1.SetReal("CpuLoad", 10)
	ad2 := classad.NewAd()
	ad2.SetString("Name", "host1")
	ad2.SetReal("CpuLoad", 90)
	if _, err := m.Update(0, ad1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(1, ad2); err != nil {
		t.Fatal(err)
	}
	if n := m.NumMachines(2); n != 1 {
		t.Fatalf("machines = %d, want 1", n)
	}
	got, _, _ := m.QueryByName(2, "host1")
	if v := got.Eval("CpuLoad"); !v.SameAs(classad.Real(90)) {
		t.Fatalf("CpuLoad = %v, want 90", v)
	}
}

func TestStartdAdGrowsWithModules(t *testing.T) {
	small := NewAgent("h", 30)
	if err := small.AddModules(DefaultModules()); err != nil {
		t.Fatal(err)
	}
	big := NewAgent("h", 30)
	if err := big.AddModules(DefaultModules()); err != nil {
		t.Fatal(err)
	}
	if err := big.AddModules(VmstatModuleCopies(79)); err != nil {
		t.Fatal(err)
	}
	sAd, _ := small.StartdAd(0)
	bAd, _ := big.StartdAd(0)
	if bAd.SizeBytes() <= sAd.SizeBytes() {
		t.Fatalf("90-module ad (%dB) not larger than 11-module ad (%dB)",
			bAd.SizeBytes(), sAd.SizeBytes())
	}
}

// TestTriggerFireReentrant: Fire callbacks run outside the Manager's
// lock, so a one-shot trigger may remove itself (and inspect the pool)
// from inside its own callback without deadlocking.
func TestTriggerFireReentrant(t *testing.T) {
	mgr := NewManager("m", 0)
	a := NewAgent("h1", 30)
	if err := a.AddModules(DefaultModules()); err != nil {
		t.Fatal(err)
	}
	ad, _ := a.StartdAd(0)
	if _, err := mgr.Update(0, ad); err != nil {
		t.Fatal(err)
	}
	fired := 0
	tr := &Trigger{Name: "oneshot", Ad: classad.NewAd()}
	tr.Ad.Set(classad.AttrRequirements, classad.MustParseExpr("TARGET.CpuLoad >= 0"))
	tr.Fire = func(machine string, _ *classad.Ad) {
		fired++
		if _, _, ok := mgr.QueryByName(0, machine); !ok { // reentrant read
			t.Errorf("machine %q not found from Fire", machine)
		}
		mgr.RemoveTrigger("oneshot") // reentrant write
	}
	done := make(chan struct{})
	go func() {
		mgr.SubmitTrigger(0, tr)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitTrigger deadlocked on reentrant Fire callback")
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// The trigger removed itself: a fresh advertise must not re-fire.
	if _, err := mgr.Update(30, ad); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("one-shot trigger fired again: %d", fired)
	}
}

// TestStartdAdAllocs: a collection builds one ad sized for its modules
// and fills it in place, so what it allocates is the ad — its struct,
// map, order and constant slab — and not a count that grows per module
// or per attribute: 11 modules and 90 cost the same. Each module's
// declared attribute count, which sizes the ad, is what its Fill binds.
func TestStartdAdAllocs(t *testing.T) {
	for _, m := range append(DefaultModules(), VmstatModuleCopies(79)...) {
		if got := m.Collect("lucky4", 0).Len(); got != m.attrs {
			t.Errorf("module %q binds %d attributes, declares %d", m.Name, got, m.attrs)
		}
	}
	small := newDefaultAgent(t)
	big := newDefaultAgent(t)
	if err := big.AddModules(VmstatModuleCopies(79)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		agent *Agent
		attrs int
	}{{small, 23}, {big, 23 + 2*79}} {
		ad, _ := c.agent.StartdAd(0)
		if ad.Len() != c.attrs {
			t.Fatalf("%d modules: %d attributes, want %d", c.agent.NumModules(), ad.Len(), c.attrs)
		}
		allocs := testing.AllocsPerRun(100, func() { c.agent.StartdAd(1) })
		t.Logf("%d modules, %d attributes: %.0f allocs", c.agent.NumModules(), c.attrs, allocs)
		// The ad struct, its order and constant slabs, and the map: 4
		// allocations for a Swiss-table map of up to 1,024 slots; a bucket
		// map (GOEXPERIMENT=noswissmap) takes 2 for 23 attributes, 4 for
		// 181.
		if allocs > 7 {
			t.Errorf("%d modules: StartdAd costs %.0f allocs, want at most 7", c.agent.NumModules(), allocs)
		}
	}
}

// TestQueryIntoLentAd: a direct query that collects into a lent ad,
// reused from query to query and from agent to agent, answers what a
// query into a fresh ad answers, ad for ad and stat for stat, including
// a rejection; once the ad has grown for the largest agent it asks, a
// query allocates nothing for the ad. The Work a query reports still
// counts every module, collected again on every query.
func TestQueryIntoLentAd(t *testing.T) {
	small := newDefaultAgent(t)
	big := newDefaultAgent(t)
	if err := big.AddModules(VmstatModuleCopies(79)); err != nil {
		t.Fatal(err)
	}
	lent := classad.NewAd()
	for _, c := range []struct {
		agent      *Agent
		constraint string
	}{{big, ""}, {small, ""}, {small, "TARGET.CpuLoad >= 0"}, {big, "false"}, {small, "TARGET.OpSys == \"LINUX\""}} {
		var constraint classad.Expr
		if c.constraint != "" {
			var err error
			if constraint, err = classad.ParseExpr(c.constraint); err != nil {
				t.Fatal(err)
			}
		}
		for _, now := range []float64{1, 2} {
			want, wst := c.agent.Query(now, constraint)
			got, gst := c.agent.QueryInto(now, constraint, lent)
			if gst != wst || (got == nil) != (want == nil) || (got != nil && (got != lent || got.String() != want.String())) {
				t.Fatalf("%d modules, %q at %v: lent ad %v %+v, fresh ad %v %+v",
					c.agent.NumModules(), c.constraint, now, got, gst, want, wst)
			}
			if wst.ModulesCollected != c.agent.NumModules() {
				t.Fatalf("%d modules collected, want every one of %d", wst.ModulesCollected, c.agent.NumModules())
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { small.QueryInto(1, nil, lent) }); allocs != 0 {
		t.Errorf("a query into a lent ad costs %.0f allocs, want 0", allocs)
	}
}

// TestManagerQueryInto: a Manager query that lists its matches in a
// lent slice lists what Query lists, after whatever the slice held, and
// a read unlocks without a closure: once the slice has room, a query
// with no constraint allocates nothing, with or without ad expiry.
func TestManagerQueryInto(t *testing.T) {
	for _, lifetime := range []float64{0, 60} {
		mgr := NewManager("m", lifetime)
		for _, host := range []string{"a", "b", "c"} {
			ad, _ := NewAgent(host, 30).StartdAd(0)
			if _, err := mgr.Update(0, ad); err != nil {
				t.Fatal(err)
			}
		}
		want, wst := mgr.Query(1, nil)
		held := classad.NewAd()
		got, gst := mgr.QueryInto(1, nil, []*classad.Ad{held})
		if gst != wst || len(got) != len(want)+1 || got[0] != held {
			t.Fatalf("lifetime %v: lent slice %v %+v, fresh %v %+v", lifetime, got, gst, want, wst)
		}
		for i := range want {
			if got[i+1] != want[i] {
				t.Fatalf("lifetime %v: ad %d differs", lifetime, i)
			}
		}
		lent := make([]*classad.Ad, 0, 8)
		if allocs := testing.AllocsPerRun(100, func() { mgr.QueryInto(1, nil, lent) }); allocs != 0 {
			t.Errorf("lifetime %v: a query into a lent slice costs %.0f allocs, want 0", lifetime, allocs)
		}
	}
}

// TestConstraintScratchComesBackEmpty: the compiled constraint a
// Manager or Agent query evaluates in goes back to the pool holding
// neither the constraint nor the last ad it was evaluated against, and a
// Manager query lent the same list from query to query matches what a
// new one does.
func TestConstraintScratchComesBackEmpty(t *testing.T) {
	m, agents := newPool(t, 4)
	constraint := classad.MustParseExpr(`TARGET.OpSys == "LINUX" && TARGET.CpuLoad >= 0`)
	cc := compile(constraint)
	ad, _ := agents[0].StartdAd(1)
	if !cc.SatisfiedBy(ad) {
		t.Fatal("the Startd ad does not satisfy the constraint")
	}
	release(cc)
	if *cc != (classad.CompiledConstraint{}) {
		t.Fatalf("the compiled constraint came back holding %+v", *cc)
	}
	if compile(nil) != nil {
		t.Fatal("no constraint compiled to one")
	}
	want, _ := m.Query(1, constraint)
	var lent []*classad.Ad
	for i := 0; i < 3; i++ {
		lent, _ = m.QueryInto(1, constraint, lent[:0])
	}
	if len(lent) != len(want) || len(want) != len(agents) {
		t.Fatalf("a lent query matched %d ads, a new one %d, of %d", len(lent), len(want), len(agents))
	}
}
