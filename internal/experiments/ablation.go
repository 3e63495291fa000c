package experiments

import (
	"repro/internal/cluster"
	"repro/internal/mds"
	"repro/internal/sim"
)

// Ablation builders: variants of the Experiment Set 1 deployments with one
// design parameter swept, quantifying the mechanisms DESIGN.md calls out —
// cache lifetime, worker-pool width, accept-queue depth, and WAN latency.

// BuildGRISWithTTL deploys the Experiment Set 1 GRIS with an explicit
// provider-cache TTL (seconds; 0 disables caching). Sweeping the TTL
// interpolates between the paper's "nocache" and "cache" configurations.
func BuildGRISWithTTL(cal Calibration, ttl float64) Builder {
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		gris := mds.NewGRIS("lucky7", ttl, mds.DefaultProviders())
		if ttl > 0 {
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

// BuildAgentWithWorkers deploys the Hawkeye Agent with an explicit worker
// count, isolating the effect of request-handling concurrency.
func BuildAgentWithWorkers(cal Calibration, workers int) Builder {
	base := BuildAgentUsers(cal)
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		dep, err := base(env, tb, x)
		if err != nil {
			return nil, err
		}
		cfg := cal.AgentConfig()
		cfg.Workers = workers
		dep.Server = NewServer(env, dep.Monitored, tb.Network, cfg)
		return dep, nil
	}
}

// BuildServletWithBacklog deploys the R-GMA ProducerServlet with an
// explicit accept-queue depth, isolating the refusal/backoff mechanism.
func BuildServletWithBacklog(cal Calibration, backlog int) Builder {
	base := BuildProducerServletUsers(cal, false)
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		dep, err := base(env, tb, x)
		if err != nil {
			return nil, err
		}
		cfg := cal.ServletConfig()
		cfg.Backlog = backlog
		dep.Server = NewServer(env, dep.Monitored, tb.Network, cfg)
		return dep, nil
	}
}

// BuildGRISWithWANLatency deploys the cached GRIS with the UC–ANL WAN
// latency scaled, probing how far the paper's LAN-era conclusions carry
// into the WAN setting its future work proposes.
func BuildGRISWithWANLatency(cal Calibration, oneWayLatency float64) Builder {
	base := BuildGRISUsers(cal, true)
	return func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error) {
		// Replace the WAN link with one of the requested latency.
		tb.Network.ConnectSites(tb.ANL, tb.UC, cluster.DefaultWANBandwidth, oneWayLatency)
		return base(env, tb, x)
	}
}
