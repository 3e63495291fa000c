// Command simulation demonstrates the discrete-event testbed directly:
// it deploys a cached and an uncached GRIS on the simulated Lucky cluster,
// drives both with the same user population, and prints the side-by-side
// measurements — the paper's central caching result at example scale.
// Unlike the other examples it deliberately works below the gridmon.Grid
// facade, showing the simulation substrate the experiments run on.
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func measure(cached bool, users int) (throughput, respTime, cpu float64) {
	build := experiments.BuildGRISUsers(experiments.DefaultCalibration(), cached)
	p := experiments.RunPoint(build, users, experiments.Params{Warmup: 30, Window: 180, Interval: 5})
	return p.Throughput, p.ResponseTime, p.CPULoad
}

func main() {
	fmt.Println("Simulated Lucky testbed: GRIS with and without provider caching")
	fmt.Println("(180-second window after 30-second warmup; users think 1s between queries)")
	fmt.Println()
	fmt.Printf("%6s  %28s  %28s\n", "", "cache", "no cache")
	fmt.Printf("%6s  %10s %8s %8s  %10s %8s %8s\n",
		"users", "q/s", "resp(s)", "cpu%", "q/s", "resp(s)", "cpu%")
	for _, users := range []int{10, 50, 200} {
		ct, cr, cc := measure(true, users)
		nt, nr, nc := measure(false, users)
		fmt.Printf("%6d  %10.2f %8.2f %8.1f  %10.2f %8.2f %8.1f\n",
			users, ct, cr, cc, nt, nr, nc)
	}
	fmt.Println()
	fmt.Println("The cached GRIS scales with users; the uncached one is pinned at its")
	fmt.Println("~2 q/s provider-fork ceiling — the paper's Figures 5-8 in miniature.")

	// The kernel is general; here is the same machinery without any
	// monitoring system: two jobs sharing a simulated CPU.
	fmt.Println()
	env := sim.NewEnv()
	m := cluster.NewMachine(env, "demo", 1, 1.0, nil)
	env.Go("short", func(p *sim.Proc) {
		m.Compute(p, 1)
		fmt.Printf("short job done at t=%.1fs (1 CPU-second, shared core)\n", p.Now())
	})
	env.Go("long", func(p *sim.Proc) {
		m.Compute(p, 3)
		fmt.Printf("long  job done at t=%.1fs (3 CPU-seconds, shared core)\n", p.Now())
	})
	env.RunAll()
}
