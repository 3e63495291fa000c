package gridmon

// Benchmark harness: one benchmark per figure group of the paper's
// evaluation, plus micro-benchmarks for the three query engines. Each
// figure benchmark runs one representative configuration of its
// experiment set through the simulated testbed and reports the *measured
// simulation results* (throughput, response time, load) as custom
// metrics; the full sweeps that regenerate every curve are produced by
// `go run ./cmd/gridmon-bench`.
//
// Figure index:
//
//	Figures 5–8   -> BenchmarkFig05_08_InfoServerUsers
//	Figures 9–12  -> BenchmarkFig09_12_DirectoryUsers
//	Figures 13–16 -> BenchmarkFig13_16_InfoServerCollectors
//	Figures 17–20 -> BenchmarkFig17_20_AggregateServers
//	Table 1       -> BenchmarkTable1_ComponentMapping (and TestComponentMapping
//	                 in internal/core)

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/classad"
	"repro/internal/experiments"
	"repro/internal/ldap"
	"repro/internal/relational"
)

// benchParams keeps figure benchmarks affordable: a 2-minute simulated
// window after a 30-second warmup.
func benchParams() experiments.Params { return experiments.QuickParams() }

func reportPoint(b *testing.B, pt experiments.Point) {
	b.ReportMetric(pt.Throughput, "sim-queries/sec")
	b.ReportMetric(pt.ResponseTime, "sim-resp-sec")
	b.ReportMetric(pt.Load1, "sim-load1")
	b.ReportMetric(pt.CPULoad, "sim-cpu-pct")
}

// BenchmarkFig05_08_InfoServerUsers reproduces Experiment Set 1 at the
// paper's mid-scale point (200 concurrent users; 100 for the
// consumer-servlet-capped UC variant).
func BenchmarkFig05_08_InfoServerUsers(b *testing.B) {
	cal := experiments.DefaultCalibration()
	cases := []struct {
		name  string
		build experiments.Builder
		users int
	}{
		{"MDS_GRIS_cache", experiments.BuildGRISUsers(cal, true), 200},
		{"MDS_GRIS_nocache", experiments.BuildGRISUsers(cal, false), 200},
		{"Hawkeye_Agent", experiments.BuildAgentUsers(cal), 200},
		{"RGMA_ProducerServlet_lucky", experiments.BuildProducerServletUsers(cal, false), 200},
		{"RGMA_ProducerServlet_UC", experiments.BuildProducerServletUsers(cal, true), 100},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(c.build, c.users, benchParams())
			}
			reportPoint(b, pt)
		})
	}
}

// BenchmarkFig09_12_DirectoryUsers reproduces Experiment Set 2 at 200
// concurrent users (100 for the UC registry variant).
func BenchmarkFig09_12_DirectoryUsers(b *testing.B) {
	cal := experiments.DefaultCalibration()
	cases := []struct {
		name  string
		build experiments.Builder
		users int
	}{
		{"MDS_GIIS", experiments.BuildGIISUsers(cal), 200},
		{"Hawkeye_Manager", experiments.BuildManagerUsers(cal), 200},
		{"RGMA_Registry_lucky", experiments.BuildRegistryUsers(cal, false), 200},
		{"RGMA_Registry_UC", experiments.BuildRegistryUsers(cal, true), 100},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(c.build, c.users, benchParams())
			}
			reportPoint(b, pt)
		})
	}
}

// BenchmarkFig13_16_InfoServerCollectors reproduces Experiment Set 3 at
// the paper's top scale: 90 information collectors, 10 users.
func BenchmarkFig13_16_InfoServerCollectors(b *testing.B) {
	cal := experiments.DefaultCalibration()
	cases := []struct {
		name  string
		build experiments.Builder
	}{
		{"MDS_GRIS_cache", experiments.BuildGRISCollectors(cal, true)},
		{"MDS_GRIS_nocache", experiments.BuildGRISCollectors(cal, false)},
		{"Hawkeye_Agent", experiments.BuildAgentCollectors(cal)},
		{"RGMA_ProducerServlet", experiments.BuildProducerServletCollectors(cal)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(c.build, 90, benchParams())
			}
			reportPoint(b, pt)
		})
	}
}

// BenchmarkFig17_20_AggregateServers reproduces Experiment Set 4: the
// GIIS at its 200-GRIS query-all limit, the GIIS at 500 GRIS query-part,
// and the Manager with 1000 advertised machines.
func BenchmarkFig17_20_AggregateServers(b *testing.B) {
	cal := experiments.DefaultCalibration()
	cases := []struct {
		name  string
		build experiments.Builder
		x     int
	}{
		{"MDS_GIIS_query_all", experiments.BuildGIISAggregate(cal, true), 200},
		{"MDS_GIIS_query_part", experiments.BuildGIISAggregate(cal, false), 500},
		{"Hawkeye_Manager", experiments.BuildManagerAggregate(cal), 1000},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(c.build, c.x, benchParams())
			}
			reportPoint(b, pt)
		})
	}
}

// BenchmarkTable1_ComponentMapping measures one uniform query through
// each system's Information Server adapter — the mapping that makes the
// paper's comparison possible.
func BenchmarkTable1_ComponentMapping(b *testing.B) {
	grid, err := New(WithHosts("lucky3", "lucky4", "lucky7"))
	if err != nil {
		b.Fatal(err)
	}
	giis, _ := grid.MDS()
	_, cserv, _ := grid.RGMA()
	mgr, _ := grid.HawkeyePool()
	constraint := classad.MustParseExpr("TARGET.CpuLoad >= 0")
	b.Run("MDS_GIIS_query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := giis.Query(float64(i), nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RGMA_mediated_query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cserv.Query(float64(i), "SELECT * FROM siteinfo"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Hawkeye_Manager_scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr.Query(float64(i), constraint)
		}
	})
}

// --- engine micro-benchmarks ---

func BenchmarkClassAdParse(b *testing.B) {
	src := `TARGET.CpuLoad > 50 && MY.OpSys == "LINUX" && ifThenElse(TARGET.FreeDisk > 0, 1, 0) == 1`
	for i := 0; i < b.N; i++ {
		if _, err := classad.ParseExpr(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassAdMatch(b *testing.B) {
	trigger := classad.NewAd()
	trigger.Set(classad.AttrRequirements, classad.MustParseExpr("TARGET.CpuLoad > 50"))
	machine := classad.NewAd()
	machine.SetString("Name", "lucky4")
	machine.SetReal("CpuLoad", 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !classad.Match(trigger, machine) {
			b.Fatal("match failed")
		}
	}
}

// BenchmarkClassAdMatchCompiled is BenchmarkClassAdMatch through the
// compiled matcher — the Manager's steady state, where each trigger is
// compiled once and matched against every advertised machine.
func BenchmarkClassAdMatchCompiled(b *testing.B) {
	trigger := classad.NewAd()
	trigger.Set(classad.AttrRequirements, classad.MustParseExpr("TARGET.CpuLoad > 50"))
	machine := classad.NewAd()
	machine.SetString("Name", "lucky4")
	machine.SetReal("CpuLoad", 80)
	cm := classad.CompileMatch(trigger)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cm.Matches(machine) {
			b.Fatal("match failed")
		}
	}
}

func BenchmarkLDAPFilterSearch(b *testing.B) {
	dit := ldap.NewDIT()
	for i := 0; i < 500; i++ {
		e := ldap.NewEntry(ldap.MustParseDN(fmt.Sprintf("Mds-Host-hn=h%03d, Mds-Vo-name=local, o=grid", i)))
		e.Set("objectclass", "MdsHost")
		e.Set("Mds-Cpu-Free-1minX100", fmt.Sprintf("%d", i%100))
		if err := dit.Add(e); err != nil {
			b.Fatal(err)
		}
	}
	filter := ldap.MustParseFilter("(&(objectclass=MdsHost)(Mds-Cpu-Free-1minX100>=50))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, _ := dit.Search(nil, ldap.ScopeSub, filter)
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkSQLSelect(b *testing.B) {
	t := relational.NewTable("siteinfo", []relational.Column{
		{Name: "host", Type: relational.StringType},
		{Name: "metric", Type: relational.StringType},
		{Name: "value", Type: relational.RealType},
	})
	for i := 0; i < 500; i++ {
		row := []relational.Value{relational.StrVal(fmt.Sprintf("h%03d", i)), relational.StrVal("cpu"), relational.RealVal(float64(i%100) + 0.5)}
		if err := t.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
	sel, err := relational.Parse("SELECT host, value FROM siteinfo WHERE value >= 50 ORDER BY value DESC LIMIT 10")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := relational.ScanSelect(t, sel)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatal("unexpected result size")
		}
	}
}

// --- ablation benchmarks: the design choices DESIGN.md calls out ---

// BenchmarkAblationCacheTTL sweeps the GRIS provider-cache lifetime
// between the paper's two configurations.
func BenchmarkAblationCacheTTL(b *testing.B) {
	cal := experiments.DefaultCalibration()
	for _, ttl := range []float64{0, 30, 1e12} {
		name := fmt.Sprintf("ttl=%g", ttl)
		b.Run(name, func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(experiments.BuildGRISWithTTL(cal, ttl), 200, benchParams())
			}
			reportPoint(b, pt)
		})
	}
}

// BenchmarkAblationWorkerPool sweeps the Agent's request-handling
// concurrency.
func BenchmarkAblationWorkerPool(b *testing.B) {
	cal := experiments.DefaultCalibration()
	for _, workers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(experiments.BuildAgentWithWorkers(cal, workers), 300, benchParams())
			}
			reportPoint(b, pt)
		})
	}
}

// BenchmarkAblationBacklog sweeps the servlet accept-queue depth,
// trading refusals for queueing.
func BenchmarkAblationBacklog(b *testing.B) {
	cal := experiments.DefaultCalibration()
	for _, backlog := range []int{2, 12, 256} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(experiments.BuildServletWithBacklog(cal, backlog), 300, benchParams())
			}
			b.ReportMetric(float64(pt.Refusals), "sim-refusals")
			reportPoint(b, pt)
		})
	}
}

// BenchmarkAblationWANLatency probes the paper's future-work question:
// how do the LAN-era results change as the client path stretches to WAN
// latencies?
func BenchmarkAblationWANLatency(b *testing.B) {
	cal := experiments.DefaultCalibration()
	for _, lat := range []float64{0.005, 0.025, 0.05} {
		b.Run(fmt.Sprintf("oneway=%.0fms", lat*1000), func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(experiments.BuildGRISWithWANLatency(cal, lat), 200, benchParams())
			}
			reportPoint(b, pt)
		})
	}
}

// BenchmarkExt_CompositeAggregate measures the extension composite
// Consumer/Producer (the Table 1 cell R-GMA leaves empty) at the GIIS's
// query-all scale.
func BenchmarkExt_CompositeAggregate(b *testing.B) {
	cal := experiments.DefaultCalibration()
	var pt experiments.Point
	for i := 0; i < b.N; i++ {
		pt = experiments.RunPoint(experiments.BuildCompositeAggregate(cal), 200, benchParams())
	}
	reportPoint(b, pt)
}

// BenchmarkExt_Hierarchy compares the flat GIIS with the two-level
// hierarchy the paper's Section 3.6 proposes, at 200 registered GRIS with
// live registration-renewal traffic.
func BenchmarkExt_Hierarchy(b *testing.B) {
	cal := experiments.DefaultCalibration()
	for _, c := range []struct {
		name  string
		build experiments.Builder
	}{
		{"flat", experiments.BuildGIISFlat(cal)},
		{"two_level", experiments.BuildGIISTwoLevel(cal)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var pt experiments.Point
			for i := 0; i < b.N; i++ {
				pt = experiments.RunPoint(c.build, 200, benchParams())
			}
			reportPoint(b, pt)
		})
	}
}

// BenchmarkSubscribeFanout measures the push path: one monitoring round
// (Grid.Advance) fanning R-GMA sensor rows out to N concurrent
// subscribers, each draining its own bounded stream. The per-iteration
// cost is one full sensor regeneration plus N continuous-query
// evaluations and deliveries; events-delivered and events-dropped are
// reported so the BENCH trajectory records both throughput and
// backpressure behavior.
func BenchmarkSubscribeFanout(b *testing.B) {
	for _, nSubs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", nSubs), func(b *testing.B) {
			var now float64
			grid, err := New(
				WithHosts("lucky3", "lucky4", "lucky7"),
				WithSystems(RGMA),
				WithClock(func() float64 { return now }),
			)
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var delivered, dropped int64
			var wg sync.WaitGroup
			streams := make([]*Stream, 0, nSubs)
			for i := 0; i < nSubs; i++ {
				st, err := grid.Subscribe(ctx, Subscription{
					System: RGMA,
					Expr:   "SELECT * FROM siteinfo WHERE value >= 50",
					Buffer: 1024,
				})
				if err != nil {
					b.Fatal(err)
				}
				streams = append(streams, st)
				wg.Add(1)
				go func(st *Stream) {
					defer wg.Done()
					n := int64(0)
					for {
						ev, err := st.Next(ctx)
						if err != nil {
							if errors.Is(err, ErrLagged) {
								continue
							}
							atomic.AddInt64(&delivered, n)
							return
						}
						n += int64(len(ev.Records))
					}
				}(st)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = float64(i + 1)
				if err := grid.Advance(now); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cancel()
			wg.Wait()
			for _, st := range streams {
				dropped += int64(st.Dropped())
			}
			b.ReportMetric(float64(atomic.LoadInt64(&delivered))/float64(b.N), "records-delivered/op")
			b.ReportMetric(float64(dropped)/float64(b.N), "events-dropped/op")
		})
	}
}
