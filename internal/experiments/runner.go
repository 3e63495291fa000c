package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Params controls the measurement procedure. The paper warms the system up
// and then averages over a 10-minute span with 5-second Ganglia samples.
type Params struct {
	Warmup   float64
	Window   float64
	Interval float64
	// Workers bounds how many sweep points RunSeries measures
	// concurrently. Every point builds its own sim.Env (clock, event
	// queue, RNGs), so points are independent and each point's result is
	// bit-identical to a serial run — only wall-clock changes. Zero or
	// one means serial.
	Workers int
}

// PaperParams is the measurement configuration the paper used.
func PaperParams() Params {
	return Params{Warmup: 60, Window: 600, Interval: 5}
}

// QuickParams is a shortened window for unit tests.
func QuickParams() Params {
	return Params{Warmup: 30, Window: 120, Interval: 5}
}

// Point is one measured configuration: the four panel values the paper
// plots for every x.
type Point struct {
	X            int
	Throughput   float64 // queries/sec (Figures 5, 9, 13, 17)
	ResponseTime float64 // seconds (Figures 6, 10, 14, 18)
	Load1        float64 // (Figures 7, 11, 15, 19)
	CPULoad      float64 // percent (Figures 8, 12, 16, 20)
	Completed    int
	Refusals     int
	Failed       bool // configuration crashed (paper's hard limits)
}

// Series is one labelled curve across x values.
type Series struct {
	Label  string
	Points []Point
}

// Deployment is a fully built measurement setup for one point.
type Deployment struct {
	Env     *sim.Env
	Testbed *cluster.Testbed
	// Server receives the measured queries.
	Server *Server
	// Monitored is the machine whose load the figures report (the
	// server host).
	Monitored *cluster.Machine
	// Clients host the simulated users.
	Clients []*cluster.Machine
	// Users is the number of simulated users.
	Users int
	// Query performs one logical user query.
	Query Query
	// Background, if non-nil, launches auxiliary processes (advertise
	// streams, registration refreshes) before measurement.
	Background func()
}

// Builder constructs a deployment for an x value on a fresh environment,
// or reports that the configuration cannot run (paper crash limits).
type Builder func(env *sim.Env, tb *cluster.Testbed, x int) (*Deployment, error)

// RunPoint builds and measures one configuration.
func RunPoint(build Builder, x int, par Params) Point {
	env := sim.NewEnv()
	tb := cluster.NewTestbed(env)
	dep, err := build(env, tb, x)
	if err != nil {
		return Point{X: x, Failed: true}
	}
	rec := NewRecorder(par.Warmup, par.Warmup+par.Window)
	sampler := NewSampler(dep.Monitored, par.Warmup, par.Warmup+par.Window, par.Interval)
	sampler.Start(env)
	if dep.Background != nil {
		dep.Background()
	}
	startUsers(env, dep.Users, dep.Clients, dep.Server, dep.Query, rec)
	env.Run(par.Warmup + par.Window + 5)

	host := sampler.Result()
	return Point{
		X:            x,
		Throughput:   rec.Throughput(),
		ResponseTime: rec.MeanResponseTime(),
		Load1:        host.MeanLoad1,
		CPULoad:      host.CPUPercent,
		Completed:    rec.Completed(),
		Refusals:     rec.Refusals(),
	}
}

// Paper measurement constants for the simulated users.
const (
	// ThinkTime is the one-second wait between receiving a response and
	// sending the next query.
	ThinkTime = 1.0
	// InitialBackoff and MaxBackoff bound the retry backoff after a
	// refused connection (TCP SYN retransmission behavior).
	InitialBackoff = 3.0
	MaxBackoff     = 120.0
	// MaxUsersPerClientMachine is the paper's cap of 50 simulated users
	// per client machine.
	MaxUsersPerClientMachine = 50
)

// Query issues one request and returns its demand outcome. It runs the
// real service logic (at simulation-time `now`) and converts the work
// performed into testbed demand.
type Query func(now float64) (Demand, error)

// startUsers launches n users the way the paper's client scripts ran,
// spread over the client machines under the paper's placement rule and
// all querying server with q. Each user issues a blocking query, waits
// ThinkTime after the response, and repeats. A refused connection is
// retried with TCP-style exponential backoff, which is what turns
// overload into the post-threshold load collapse the paper reports.
func startUsers(env *sim.Env, n int, clients []*cluster.Machine, server *Server, q Query, rec *Recorder) {
	for id, m := range cluster.SpreadUsers(clients, n, MaxUsersPerClientMachine) {
		env.Go("user-"+strconv.Itoa(id), func(p *sim.Proc) {
			// The seed decorrelates user start times and backoff jitter.
			rng := sim.NewRNG(0x9E3779B97F4A7C15 ^ uint64(id)*7919 ^ uint64(id))
			// Stagger start-up over the first think time so users do not
			// arrive in lockstep.
			p.Sleep(rng.Uniform(0, ThinkTime))
			backoff := InitialBackoff
			for {
				start := p.Now()
				demand, err := q(p.Now())
				if err != nil {
					p.Sleep(ThinkTime)
					continue
				}
				callErr := server.Call(p, m, demand)
				for callErr == ErrRefused {
					rec.RecordRefusal(p.Now())
					p.Sleep(rng.Jitter(backoff, 0.25))
					if backoff *= 2; backoff > MaxBackoff {
						backoff = MaxBackoff
					}
					callErr = server.Call(p, m, demand)
				}
				// Multiplicative decrease on success: a client that was
				// recently refused stays cautious, so sustained overload
				// drives the population's offered rate below the server's
				// capacity — the post-threshold load collapse of the
				// paper's Figures 7-8.
				if backoff /= 2; backoff < InitialBackoff {
					backoff = InitialBackoff
				}
				rec.RecordQuery(start, p.Now())
				p.Sleep(ThinkTime)
			}
		})
	}
}

// RunSeries measures one labelled curve over the given x values. The
// points are measured by a pool of par.Workers workers (at least one) —
// the standard dynamic-load-balancing recipe for embarrassingly
// parallel point evaluations — and the returned series is ordered and
// valued exactly as a serial run.
func RunSeries(label string, build Builder, xs []int, par Params) Series {
	s := Series{Label: label}
	workers := par.Workers
	if workers > len(xs) {
		workers = len(xs)
	}
	if workers < 1 {
		workers = 1
	}
	s.Points = make([]Point, len(xs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//gridmon:nolint simdet each worker owns its own sim.Env and writes one disjoint Points slot per index, so the sweep stays bit-identical across worker counts (TestRunSeriesParallelDeterminism)
		go func() {
			defer wg.Done()
			for i := range next {
				s.Points[i] = RunPoint(build, xs[i], par)
			}
		}()
	}
	for i := range xs {
		next <- i
	}
	close(next)
	wg.Wait()
	return s
}

// UserCounts is the x axis of the paper's user-scaling experiments
// (Figures 5–12).
var UserCounts = []int{1, 10, 50, 100, 200, 300, 400, 500, 600}

// CollectorCounts is the x axis of Experiment Set 3 (Figures 13–16).
var CollectorCounts = []int{10, 30, 50, 70, 90}

// FormatSeries renders a set of curves as aligned text tables, one row per
// x, matching the paper's four panels.
func FormatSeries(title, xLabel string, series []Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	for _, panel := range []struct {
		name string
		get  func(Point) float64
	}{
		{"Throughput (queries/sec)", func(p Point) float64 { return p.Throughput }},
		{"Response Time (sec)", func(p Point) float64 { return p.ResponseTime }},
		{"Load1", func(p Point) float64 { return p.Load1 }},
		{"CPU Load (%)", func(p Point) float64 { return p.CPULoad }},
	} {
		fmt.Fprintf(&sb, "\n-- %s --\n", panel.name)
		fmt.Fprintf(&sb, "%-8s", xLabel)
		for _, s := range series {
			fmt.Fprintf(&sb, " %28s", s.Label)
		}
		sb.WriteByte('\n')
		if len(series) == 0 {
			continue
		}
		for _, x := range unionX(series) {
			fmt.Fprintf(&sb, "%-8d", x)
			for _, s := range series {
				p := pointAtX(s, x)
				if p == nil {
					fmt.Fprintf(&sb, " %28s", "-")
				} else if p.Failed {
					fmt.Fprintf(&sb, " %28s", "crash")
				} else {
					fmt.Fprintf(&sb, " %28.2f", panel.get(*p))
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// unionX returns the sorted union of x values across all series.
func unionX(series []Series) []int {
	seen := make(map[int]bool)
	var out []int
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				out = append(out, p.X)
			}
		}
	}
	sort.Ints(out)
	return out
}

func pointAtX(s Series, x int) *Point {
	for i := range s.Points {
		if s.Points[i].X == x {
			return &s.Points[i]
		}
	}
	return nil
}

// CSV renders the series as comma-separated values with one row per
// (series, x) pair.
func CSV(series []Series) string {
	var sb strings.Builder
	sb.WriteString("series,x,throughput,response_time,load1,cpu_load,completed,refusals,failed\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%s,%d,%.4f,%.4f,%.4f,%.4f,%d,%d,%v\n",
				s.Label, p.X, p.Throughput, p.ResponseTime, p.Load1, p.CPULoad,
				p.Completed, p.Refusals, p.Failed)
		}
	}
	return sb.String()
}
