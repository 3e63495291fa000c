package experiments

import (
	"fmt"

	"repro/internal/classad"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hawkeye"
	"repro/internal/ldap"
	"repro/internal/mds"
	"repro/internal/rgma"
	"repro/internal/sim"
)

// luckyClients returns the Lucky machines usable as client hosts, leaving
// out the machines running measured services.
func luckyClients(tb *cluster.Testbed, exclude ...string) []*cluster.Machine {
	skip := make(map[string]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	var out []*cluster.Machine
	for _, name := range cluster.LuckyNames {
		if !skip[name] {
			out = append(out, tb.Lucky[name])
		}
	}
	return out
}

// grisQuery is the information-server request of Experiment Sets 1 and
// 3 on a GRIS: everything it holds.
func grisQuery(cal Calibration, gris *mds.GRIS) Query {
	return func(now float64) (Demand, error) {
		_, st := gris.Query(now, nil, nil)
		return cal.GRISDemand(core.MDSWork(st)), nil
	}
}

// agentQuery is the same request on a Hawkeye Agent: its Startd ad, from
// a fresh collection by every module.
func agentQuery(cal Calibration, agent *hawkeye.Agent) Query {
	return func(now float64) (Demand, error) {
		_, st := agent.Query(now, nil)
		return cal.AgentDemand(core.HawkeyeWork(st), agent.NumModules()), nil
	}
}

// --- Experiment Set 1: Information Server scalability with users ---

// BuildGRISUsers returns a Builder for the MDS GRIS variants: a GRIS with
// ten information providers on lucky7, queried by x users from UC.
func BuildGRISUsers(cal Calibration, cached bool) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		ttl := 0.0
		if cached {
			ttl = 1e12
		}
		gris := mds.NewGRIS("lucky7", ttl, mds.DefaultProviders())
		if cached {
			gris.Warm(0)
		}
		server := NewServer(env, tb.Host("lucky7"), tb.Network, cal.GRISConfig())
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky7"),
			Clients:   tb.Clients,
			Users:     x,
			Query:     grisQuery(cal, gris),
		}, nil
	}
}

// BuildAgentUsers returns a Builder for the Hawkeye Agent variant: an
// Agent with the standard eleven Modules on lucky4 (Manager on lucky3),
// queried by x users from UC. The Agent's advertise stream to the Manager
// runs in the background.
func BuildAgentUsers(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		agent := hawkeye.NewAgent("lucky4", 30)
		if err := agent.AddModules(hawkeye.DefaultModules()); err != nil {
			return nil, err
		}
		manager := hawkeye.NewManager("lucky3", 90)
		server := NewServer(env, tb.Host("lucky4"), tb.Network, cal.AgentConfig())
		mgrNode := NewServer(env, tb.Host("lucky3"), tb.Network, cal.ManagerConfig())
		dep := &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky4"),
			Clients:   tb.Clients,
			Users:     x,
			Query:     agentQuery(cal, agent),
		}
		dep.Background = func() {
			startAdvertiseLoop(env, tb, cal, agent, manager, mgrNode, tb.Host("lucky4"), 0)
		}
		return dep, nil
	}
}

// startAdvertiseLoop runs a Hawkeye Agent's periodic Startd ClassAd push
// to its Manager over the testbed network.
func startAdvertiseLoop(env *sim.Env, tb *cluster.Testbed, cal Calibration,
	agent *hawkeye.Agent, manager *hawkeye.Manager, mgrNode *Server,
	from *cluster.Machine, phase float64) {
	env.Go("advertise/"+agent.Host, func(p *sim.Proc) {
		p.Sleep(phase)
		for {
			ad, _ := agent.StartdAd(p.Now())
			if _, err := manager.Update(p.Now(), ad); err != nil {
				return
			}
			demand := cal.AdvertiseDemand(ad.SizeBytes())
			// Advertise pushes tolerate refusal; the next interval retries.
			_ = mgrNode.Call(p, from, demand)
			p.Sleep(agent.AdvertiseInterval)
		}
	})
}

// rgmaSetup wires a ProducerServlet with nProducers monitoring producers
// on lucky3 and a Registry on lucky1.
func rgmaSetup(nProducers int) (*rgma.Registry, *rgma.ProducerServlet, error) {
	reg := rgma.NewRegistry("lucky1")
	pserv := rgma.NewProducerServlet("lucky3:8080")
	for i := 0; i < nProducers; i++ {
		pserv.Host(rgma.NewMonitoringProducer(fmt.Sprintf("prod-%d", i), "siteinfo",
			fmt.Sprintf("sensor%02d", i), 5))
	}
	for _, ad := range pserv.Advertisements() {
		if err := reg.RegisterProducer(ad, 0, 1e12); err != nil {
			return nil, nil, err
		}
	}
	return reg, pserv, nil
}

// BuildProducerServletUsers returns a Builder for the two R-GMA variants
// of Experiment Set 1. fromUC selects the paper's UC setup (consumers
// behind one UC ConsumerServlet, at most 120 of them, paying the
// mediation round trips); otherwise consumers run on the Lucky nodes with
// a ConsumerServlet per node.
func BuildProducerServletUsers(cal Calibration, fromUC bool) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		if fromUC && x > 120 {
			// The paper's environment capped one ConsumerServlet at 120
			// consumers (128-row table limit).
			return nil, fmt.Errorf("experiments: UC ConsumerServlet limited to 120 consumers")
		}
		reg, pserv, err := rgmaSetup(10)
		if err != nil {
			return nil, err
		}
		cserv := rgma.NewConsumerServlet("uc00:8080", reg, func(string) (*rgma.ProducerServlet, error) {
			return pserv, nil
		})
		server := NewServer(env, tb.Host("lucky3"), tb.Network, cal.ServletConfig())
		clients := tb.Clients
		if !fromUC {
			clients = luckyClients(tb, "lucky3", "lucky1")
		}
		n := pserv.NumProducers()
		query := func(now float64) (Demand, error) {
			var w core.Work
			if fromUC {
				_, st, err := cserv.Query(now, "SELECT * FROM siteinfo")
				if err != nil {
					return Demand{}, err
				}
				w = core.RGMAWork(st)
			} else {
				_, st, err := pserv.Query(now, "SELECT * FROM siteinfo")
				if err != nil {
					return Demand{}, err
				}
				w = core.RGMAWork(st)
			}
			d := cal.ProducerServletDemand(w, n)
			if fromUC {
				// Mediation: extra WAN round trips to the UC servlet and
				// the Registry before the producer query.
				d.PostHoldSeconds += cal.MediationRTTs * 2 * cluster.DefaultWANLatency
				d.CPUSeconds += cal.RegistryLookupCPU * 0.5
			}
			return d, nil
		}
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky3"),
			Clients:   clients,
			Users:     x,
			Query:     query,
		}, nil
	}
}

// Exp1InfoServerUsers measures Experiment Set 1 (Figures 5–8): every
// information-server variant against the user counts.
func Exp1InfoServerUsers(cal Calibration, xs []int, par Params) []Series {
	ucXs := filterMax(xs, 120)
	return []Series{
		RunSeries("MDS GRIS (cache)", BuildGRISUsers(cal, true), xs, par),
		RunSeries("MDS GRIS (nocache)", BuildGRISUsers(cal, false), xs, par),
		RunSeries("Hawkeye Agent", BuildAgentUsers(cal), xs, par),
		RunSeries("R-GMA ProducerServlet(lucky)", BuildProducerServletUsers(cal, false), xs, par),
		RunSeries("R-GMA ProducerServlet(UC)", BuildProducerServletUsers(cal, true), ucXs, par),
	}
}

func filterMax(xs []int, max int) []int {
	var out []int
	for _, x := range xs {
		if x <= max {
			out = append(out, x)
		}
	}
	return out
}

// --- Experiment Set 2: Directory Server scalability with users ---

// BuildGIISUsers deploys the paper's GIIS setup: GIIS on lucky0 with a
// GRIS (ten providers) on each of lucky3..7 registered to it, cachettl
// effectively infinite, x users from UC.
func BuildGIISUsers(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		giis := mds.NewGIIS("giis-lucky0", 1e12, 1e12)
		for i, host := range []string{"lucky3", "lucky4", "lucky5", "lucky6", "lucky7"} {
			g := mds.NewGRIS(host, 1e12, mds.DefaultProviders())
			if _, err := giis.Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
				return nil, err
			}
		}
		server := NewServer(env, tb.Host("lucky0"), tb.Network, cal.GIISConfig())
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky0"),
			Clients:   tb.Clients,
			Users:     x,
			Query: func(now float64) (Demand, error) {
				// The directory query: the cached search that resolves
				// which resources exist.
				_, st, err := giis.Query(now, nil, nil)
				if err != nil {
					return Demand{}, err
				}
				return cal.GIISDirectoryDemand(core.MDSWork(st)), nil
			},
		}, nil
	}
}

// BuildManagerUsers deploys the Hawkeye Manager on lucky3 with six Agents
// (one per remaining Lucky node, eleven default Modules each) advertising
// every 30 seconds, and x users from UC querying the Manager.
func BuildManagerUsers(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		manager := hawkeye.NewManager("lucky3", 120)
		server := NewServer(env, tb.Host("lucky3"), tb.Network, cal.ManagerConfig())
		var agents []*hawkeye.Agent
		hosts := []string{"lucky0", "lucky1", "lucky4", "lucky5", "lucky6", "lucky7"}
		for _, h := range hosts {
			a := hawkeye.NewAgent(h, 30)
			if err := a.AddModules(hawkeye.DefaultModules()); err != nil {
				return nil, err
			}
			// Prime the pool so the first queries see all members.
			ad, _ := a.StartdAd(0)
			if _, err := manager.Update(0, ad); err != nil {
				return nil, err
			}
			agents = append(agents, a)
		}
		dep := &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky3"),
			Clients:   tb.Clients,
			Users:     x,
			Query: func(now float64) (Demand, error) {
				// The directory query: the pool-membership scan a status
				// query triggers.
				_, st := manager.Query(now, nil)
				return cal.ManagerDirectoryDemand(core.HawkeyeWork(st)), nil
			},
		}
		dep.Background = func() {
			for i, a := range agents {
				startAdvertiseLoop(env, tb, cal, a, manager, server, tb.Host(hosts[i]), float64(i)*5)
			}
		}
		return dep, nil
	}
}

// BuildRegistryUsers deploys the R-GMA Registry on lucky1 with one
// ProducerServlet (ten producers each) on five other Lucky nodes
// registered, and x users performing directory lookups. fromUC places
// consumers at UC (capped at 100 in the paper's setup) instead of the
// Lucky nodes.
func BuildRegistryUsers(cal Calibration, fromUC bool) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		if fromUC && x > 100 {
			return nil, fmt.Errorf("experiments: UC registry consumers limited to 100")
		}
		reg := rgma.NewRegistry("lucky1")
		for s, host := range []string{"lucky3", "lucky4", "lucky5", "lucky6", "lucky7"} {
			ps := rgma.NewProducerServlet(host + ":8080")
			for i := 0; i < 10; i++ {
				ps.Host(rgma.NewMonitoringProducer(fmt.Sprintf("p%d-%d", s, i), "siteinfo",
					fmt.Sprintf("%s-s%02d", host, i), 5))
			}
			for _, ad := range ps.Advertisements() {
				if err := reg.RegisterProducer(ad, 0, 1e12); err != nil {
					return nil, err
				}
			}
		}
		server := NewServer(env, tb.Host("lucky1"), tb.Network, cal.ServletConfig())
		clients := tb.Clients
		if !fromUC {
			clients = luckyClients(tb, "lucky1")
		}
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky1"),
			Clients:   clients,
			Users:     x,
			Query: func(now float64) (Demand, error) {
				_, st, err := reg.LookupProducersStats("siteinfo", now)
				if err != nil {
					return Demand{}, err
				}
				return cal.RegistryDemand(core.RGMAWork(st)), nil
			},
		}, nil
	}
}

// Exp2DirectoryUsers measures Experiment Set 2 (Figures 9–12).
func Exp2DirectoryUsers(cal Calibration, xs []int, par Params) []Series {
	return []Series{
		RunSeries("MDS GIIS", BuildGIISUsers(cal), xs, par),
		RunSeries("Hawkeye Manager", BuildManagerUsers(cal), xs, par),
		RunSeries("R-GMA Registry(lucky)", BuildRegistryUsers(cal, false), xs, par),
		RunSeries("R-GMA Registry(UC)", BuildRegistryUsers(cal, true), filterMax(xs, 100), par),
	}
}

// --- Experiment Set 3: Information Server scalability with collectors ---

// Exp3Users is the fixed concurrent-user count of Experiment Set 3.
const Exp3Users = 10

// BuildGRISCollectors varies the number of information providers behind
// the lucky7 GRIS (copies of the memory provider, as in the paper), with
// ten concurrent UC users.
func BuildGRISCollectors(cal Calibration, cached bool) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		ttl := 0.0
		if cached {
			ttl = 1e12
		}
		gris := mds.NewGRIS("lucky7", ttl, mds.MemoryProviderCopies(x))
		if cached {
			gris.Warm(0)
		}
		server := NewServer(env, tb.Host("lucky7"), tb.Network, cal.GRISConfig())
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky7"),
			Clients:   tb.Clients,
			Users:     Exp3Users,
			Query:     grisQuery(cal, gris),
		}, nil
	}
}

// BuildAgentCollectors varies the Module count on the lucky4 Agent using
// vmstat copies, enforcing the 98-module Startd crash limit.
func BuildAgentCollectors(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		agent := hawkeye.NewAgent("lucky4", 30)
		var modules []*hawkeye.Module
		defaults := hawkeye.DefaultModules()
		if x <= len(defaults) {
			modules = defaults[:x]
		} else {
			modules = append(defaults, hawkeye.VmstatModuleCopies(x-len(defaults))...)
		}
		if err := agent.AddModules(modules); err != nil {
			return nil, err
		}
		server := NewServer(env, tb.Host("lucky4"), tb.Network, cal.AgentConfig())
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky4"),
			Clients:   tb.Clients,
			Users:     Exp3Users,
			Query:     agentQuery(cal, agent),
		}, nil
	}
}

// BuildProducerServletCollectors varies the Producer count behind the
// lucky3 ProducerServlet, queried directly by ten UC consumers.
func BuildProducerServletCollectors(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		_, pserv, err := rgmaSetup(x)
		if err != nil {
			return nil, err
		}
		server := NewServer(env, tb.Host("lucky3"), tb.Network, cal.ServletConfig())
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky3"),
			Clients:   tb.Clients,
			Users:     Exp3Users,
			Query: func(now float64) (Demand, error) {
				_, st, err := pserv.Query(now, "SELECT * FROM siteinfo")
				if err != nil {
					return Demand{}, err
				}
				return cal.ProducerServletDemand(core.RGMAWork(st), pserv.NumProducers()), nil
			},
		}, nil
	}
}

// Exp3InfoServerCollectors measures Experiment Set 3 (Figures 13–16).
func Exp3InfoServerCollectors(cal Calibration, xs []int, par Params) []Series {
	return []Series{
		RunSeries("MDS GRIS(cache)", BuildGRISCollectors(cal, true), xs, par),
		RunSeries("MDS GRIS(no cache)", BuildGRISCollectors(cal, false), xs, par),
		RunSeries("Hawkeye Agent", BuildAgentCollectors(cal), xs, par),
		RunSeries("R-GMA ProducerServlet", BuildProducerServletCollectors(cal), xs, par),
	}
}

// --- Experiment Set 4: Aggregate Information Server scalability ---

// Exp4Users is the fixed concurrent-user count of Experiment Set 4.
const Exp4Users = 10

// GIISQueryAllLimit is the paper's observed crash boundary: beyond 200
// registered GRIS the GIIS could not serve query-all.
const GIISQueryAllLimit = 200

// The two Experiment Set 4 requests that are not "everything", parsed
// once. The GIIS "query part" asks every registered GRIS for one
// attribute of its CPU entries; the Manager runs the paper's worst case,
// a full scan under a constraint no machine meets.
var (
	queryPartFilter  = ldap.MustParseFilter("(objectclass=MdsCpu)")
	queryPartAttrs   = []string{"Mds-Cpu-Free-1minX100"}
	managerWorstCase = classad.MustParseExpr("TARGET.CpuLoad > 200")
)

// giisQueryPart is the query-part request on a GIIS.
func giisQueryPart(cal Calibration, giis *mds.GIIS) Query {
	return func(now float64) (Demand, error) {
		_, st, err := giis.Query(now, queryPartFilter, queryPartAttrs)
		if err != nil {
			return Demand{}, err
		}
		return cal.GIISAggregateDemand(core.MDSWork(st)), nil
	}
}

// BuildGIISAggregate varies the number of GRIS registered to the lucky0
// GIIS (multiple instances per Lucky node, as the paper simulated).
// queryAll selects the full-data query; otherwise a partial query.
func BuildGIISAggregate(cal Calibration, queryAll bool) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		if queryAll && x > GIISQueryAllLimit {
			return nil, fmt.Errorf("experiments: GIIS crashes serving query-all past %d GRIS", GIISQueryAllLimit)
		}
		giis := mds.NewGIIS("giis-lucky0", 1e12, 1e12)
		for i := 0; i < x; i++ {
			g := mds.NewGRIS(fmt.Sprintf("sim%03d", i), 1e12, mds.DefaultProviders())
			if _, err := giis.Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
				return nil, err
			}
		}
		query := giisQueryPart(cal, giis)
		if queryAll {
			query = func(now float64) (Demand, error) {
				_, st, err := giis.Query(now, nil, nil)
				if err != nil {
					return Demand{}, err
				}
				return cal.GIISAggregateDemand(core.MDSWork(st)), nil
			}
		}
		server := NewServer(env, tb.Host("lucky0"), tb.Network, cal.GIISConfig())
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky0"),
			Clients:   tb.Clients,
			Users:     Exp4Users,
			Query:     query,
		}, nil
	}
}

// BuildManagerAggregate varies the number of machines advertising Startd
// ClassAds to the lucky3 Manager at 30-second intervals (the paper's
// hawkeye_advertise streams), with ten users running the worst-case
// non-matching constraint scan.
func BuildManagerAggregate(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		manager := hawkeye.NewManager("lucky3", 120)
		server := NewServer(env, tb.Host("lucky3"), tb.Network, cal.ManagerConfig())
		// Prime the pool and prepare the advertise streams.
		adBytes := 0
		for i := 0; i < x; i++ {
			a := hawkeye.NewAgent(fmt.Sprintf("sim%04d", i), 30)
			if err := a.AddModules(hawkeye.DefaultModules()); err != nil {
				return nil, err
			}
			ad, _ := a.StartdAd(0)
			adBytes = ad.SizeBytes()
			if _, err := manager.Update(0, ad); err != nil {
				return nil, err
			}
		}
		advertisers := luckyClients(tb, "lucky3")
		dep := &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky3"),
			Clients:   tb.Clients,
			Users:     Exp4Users,
			Query: func(now float64) (Demand, error) {
				_, st := manager.Query(now, managerWorstCase)
				return cal.ManagerScanDemand(core.HawkeyeWork(st)), nil
			},
		}
		dep.Background = func() {
			// One background process per advertising machine batch: each
			// sim machine pushes an ad every 30 s. Batches of 25 share a
			// process to bound goroutine count at x=1000.
			const batch = 25
			for b := 0; b*batch < x; b++ {
				b := b
				from := advertisers[b%len(advertisers)]
				env.Go(fmt.Sprintf("advertise-batch-%d", b), func(p *sim.Proc) {
					count := batch
					if rem := x - b*batch; rem < count {
						count = rem
					}
					p.Sleep(float64(b) * 30.0 / float64((x+batch-1)/batch+1))
					for {
						for k := 0; k < count; k++ {
							name := fmt.Sprintf("sim%04d", b*batch+k)
							ad := classad.NewAd()
							ad.SetString("Name", name)
							ad.SetReal("CpuLoad", 100*float64(k%batch)/batch)
							if _, err := manager.Update(p.Now(), ad); err != nil {
								return
							}
							_ = server.Call(p, from, cal.AdvertiseDemand(adBytes))
						}
						p.Sleep(30)
					}
				})
			}
		}
		return dep, nil
	}
}

// Exp4AggregateServers measures Experiment Set 4 (Figures 17–20).
// xsAll/xsPart/xsManager are the registered-server counts for the three
// curves (the paper reached 200, 500 and 1000 respectively). A fourth
// extension series measures the composite Consumer/Producer the paper
// says R-GMA could build, at the query-all x values.
func Exp4AggregateServers(cal Calibration, xsAll, xsPart, xsManager []int, par Params) []Series {
	return []Series{
		RunSeries("MDS GIIS(query all)", BuildGIISAggregate(cal, true), xsAll, par),
		RunSeries("MDS GIIS(query part)", BuildGIISAggregate(cal, false), xsPart, par),
		RunSeries("Hawkeye Manager", BuildManagerAggregate(cal), xsManager, par),
		RunSeries("R-GMA Composite(ext)", BuildCompositeAggregate(cal), xsAll, par),
	}
}

// BuildCompositeAggregate (extension) measures the aggregate information
// server R-GMA lacks, built per the paper's suggestion as a composite
// Consumer/Producer: x producers spread over four producer servlets
// (lucky4..lucky7), aggregated by a composite on lucky3 that refreshes
// every 30 seconds, queried by ten users.
func BuildCompositeAggregate(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		reg := rgma.NewRegistry("lucky1")
		servlets := map[string]*rgma.ProducerServlet{}
		hosts := []string{"lucky4", "lucky5", "lucky6", "lucky7"}
		for i := 0; i < x; i++ {
			host := hosts[i%len(hosts)]
			addr := host + ":8080"
			ps, ok := servlets[addr]
			if !ok {
				ps = rgma.NewProducerServlet(addr)
				servlets[addr] = ps
			}
			ps.Host(rgma.NewMonitoringProducer(fmt.Sprintf("prod-%d", i), "siteinfo",
				fmt.Sprintf("sensor%03d", i), 5))
		}
		for _, ps := range servlets {
			for _, ad := range ps.Advertisements() {
				if err := reg.RegisterProducer(ad, 0, 1e12); err != nil {
					return nil, err
				}
			}
		}
		resolve := func(addr string) (*rgma.ProducerServlet, error) {
			ps, ok := servlets[addr]
			if !ok {
				return nil, fmt.Errorf("experiments: unknown servlet %q", addr)
			}
			return ps, nil
		}
		composite := rgma.NewCompositeProducer("composite", "lucky3:8080", "siteinfo", reg, resolve)
		composite.RefreshTTL = 30
		server := NewServer(env, tb.Host("lucky3"), tb.Network, cal.ServletConfig())
		return &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky3"),
			Clients:   tb.Clients,
			Users:     Exp4Users,
			Query: func(now float64) (Demand, error) {
				_, st, err := composite.Query(now, "SELECT * FROM "+composite.Table)
				if err != nil {
					return Demand{}, err
				}
				return cal.CompositeDemand(core.RGMAWork(st)), nil
			},
		}, nil
	}
}
