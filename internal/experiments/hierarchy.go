package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mds"
	"repro/internal/sim"
)

// Experiment Set 5 (extension): the multi-layer aggregation architecture
// the paper's Section 3.6 recommends examining — "a multi-layer
// architecture in which each middle-level aggregate information server
// manages a subset of information servers should be examined". We compare
// a flat GIIS against a two-level hierarchy at the same total GRIS count,
// including the soft-state re-registration traffic both must absorb.

// RegistrationInterval is how often each source renews its soft state.
const RegistrationInterval = 30.0

// RegisterDemand prices one soft-state registration renewal at the
// receiving GIIS: per-entry cache refresh plus the snapshot on the wire.
func (c Calibration) RegisterDemand(entries int) Demand {
	return Demand{
		CPUSeconds:    0.002 + float64(entries)*c.GIISAggVisitCPU,
		RequestBytes:  float64(entries) * 400,
		ResponseBytes: 128,
	}
}

// BuildGIISFlat deploys x GRIS registered directly to the lucky0 GIIS,
// each renewing its registration every RegistrationInterval seconds (the
// renewal work lands on the GIIS host). Ten users run query-part.
func BuildGIISFlat(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		giis := mds.NewGIIS("giis-flat", 1e12, 4*RegistrationInterval)
		var grises []*mds.GRIS
		for i := 0; i < x; i++ {
			g := mds.NewGRIS(fmt.Sprintf("sim%03d", i), 1e12, mds.DefaultProviders())
			if _, err := giis.Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
				return nil, err
			}
			grises = append(grises, g)
		}
		server := NewServer(env, tb.Host("lucky0"), tb.Network, cal.GIISConfig())
		senders := luckyClients(tb, "lucky0")
		dep := &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky0"),
			Clients:   tb.Clients,
			Users:     Exp4Users,
			Query:     giisQueryPart(cal, giis),
		}
		dep.Background = func() {
			startRegistrationLoops(env, cal, server, senders, grises, func(id int, now float64) (int, error) {
				st, err := giis.Register(fmt.Sprintf("gris-%d", id), grises[id], now)
				return st.EntriesVisited, err
			})
		}
		return dep, nil
	}
}

// BuildGIISTwoLevel deploys the same x GRIS behind four mid-level GIISs
// (on lucky3..lucky6), which are the only registrants at the lucky0 top
// GIIS. GRIS renewals land on the mid-level hosts; only four mid-level
// renewals reach the top.
func BuildGIISTwoLevel(cal Calibration) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		top := mds.NewGIIS("giis-top", 1e12, 4*RegistrationInterval)
		midHosts := []string{"lucky3", "lucky4", "lucky5", "lucky6"}
		var mids []*mds.GIIS
		var midNodes []*Server
		var grisByMid [][]*mds.GRIS
		for m, host := range midHosts {
			mid := mds.NewGIIS(fmt.Sprintf("giis-mid%d", m), 1e12, 4*RegistrationInterval)
			mids = append(mids, mid)
			midNodes = append(midNodes, NewServer(env, tb.Host(host), tb.Network, cal.GIISConfig()))
			grisByMid = append(grisByMid, nil)
		}
		for i := 0; i < x; i++ {
			m := i % len(mids)
			g := mds.NewGRIS(fmt.Sprintf("sim%03d", i), 1e12, mds.DefaultProviders())
			if _, err := mids[m].Register(fmt.Sprintf("gris-%d", i), g, 0); err != nil {
				return nil, err
			}
			grisByMid[m] = append(grisByMid[m], g)
		}
		for m, mid := range mids {
			if _, err := top.Register(fmt.Sprintf("mid-%d", m), mid, 0); err != nil {
				return nil, err
			}
		}
		server := NewServer(env, tb.Host("lucky0"), tb.Network, cal.GIISConfig())
		dep := &Deployment{
			Env: env, Testbed: tb, Server: server,
			Monitored: tb.Host("lucky0"),
			Clients:   tb.Clients,
			Users:     Exp4Users,
			Query:     giisQueryPart(cal, top),
		}
		dep.Background = func() {
			// GRIS renewals hit the mid-level hosts.
			for m := range mids {
				m := m
				senders := []*cluster.Machine{tb.Host("lucky1"), tb.Host("lucky7")}
				startRegistrationLoops(env, cal, midNodes[m], senders, grisByMid[m],
					func(id int, now float64) (int, error) {
						st, err := mids[m].Register(fmt.Sprintf("gris-%d", id), grisByMid[m][id], now)
						return st.EntriesVisited, err
					})
			}
			// Mid-level renewals (with their full snapshots) hit the top.
			for m := range mids {
				m := m
				from := tb.Host(midHosts[m])
				env.Go(fmt.Sprintf("register-mid-%d", m), func(p *sim.Proc) {
					p.Sleep(float64(m) * RegistrationInterval / 5)
					for {
						st, err := top.Register(fmt.Sprintf("mid-%d", m), mids[m], p.Now())
						if err != nil {
							return
						}
						_ = server.Call(p, from, cal.RegisterDemand(st.EntriesVisited))
						p.Sleep(RegistrationInterval)
					}
				})
			}
		}
		return dep, nil
	}
}

// startRegistrationLoops runs batched soft-state renewals for a set of
// GRIS against one GIIS node, spreading renewals across the interval.
func startRegistrationLoops(env *sim.Env, cal Calibration, giisNode *Server,
	senders []*cluster.Machine, grises []*mds.GRIS,
	renew func(id int, now float64) (int, error)) {
	const batch = 25
	n := len(grises)
	for b := 0; b*batch < n; b++ {
		b := b
		from := senders[b%len(senders)]
		env.Go(fmt.Sprintf("register-batch-%d", b), func(p *sim.Proc) {
			count := batch
			if rem := n - b*batch; rem < count {
				count = rem
			}
			p.Sleep(float64(b) * RegistrationInterval / float64(n/batch+2))
			for {
				for k := 0; k < count; k++ {
					entries, err := renew(b*batch+k, p.Now())
					if err != nil {
						return
					}
					_ = giisNode.Call(p, from, cal.RegisterDemand(entries))
				}
				p.Sleep(RegistrationInterval)
			}
		})
	}
}

// Exp5Hierarchy measures the flat-vs-two-level comparison over registered
// GRIS counts.
func Exp5Hierarchy(cal Calibration, xs []int, par Params) []Series {
	return []Series{
		RunSeries("GIIS flat", BuildGIISFlat(cal), xs, par),
		RunSeries("GIIS two-level", BuildGIISTwoLevel(cal), xs, par),
	}
}
