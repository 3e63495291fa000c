package experiments

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func rig(workers, backlog int) (*sim.Env, *cluster.Testbed, *Server) {
	env := sim.NewEnv()
	tb := cluster.NewTestbed(env)
	srv := NewServer(env, tb.Host("lucky7"), tb.Network, ServerConfig{
		Workers: workers, Backlog: backlog,
	})
	return env, tb, srv
}

func constQuery(d Demand) Query {
	return func(now float64) (Demand, error) { return d, nil }
}

func TestSingleUserPacing(t *testing.T) {
	// One user, 0.5s service, 1s think: ~each cycle takes 1.5s, so about
	// 60/1.5 = 40 queries in 60 seconds.
	env, _, srv := rig(2, 10)
	rec := NewRecorder(0, 60)
	startUsers(env, 1, []*cluster.Machine{cluster.NewMachine(env, "c", 1, 1, nil)}, srv,
		constQuery(Demand{CPUSeconds: 0.5}), rec)
	env.Run(61)
	got := rec.Completed()
	if got < 35 || got > 42 {
		t.Fatalf("completed = %d, want ~40", got)
	}
	if rt := rec.MeanResponseTime(); math.Abs(rt-0.5) > 0.1 {
		t.Fatalf("mean RT = %v, want ~0.5", rt)
	}
}

func TestClosedLoopLittlesLaw(t *testing.T) {
	// N users, service s, think Z, no contention: X ~ N/(s+Z).
	env, tb, srv := rig(64, 128)
	rec := NewRecorder(30, 330)
	startUsers(env, 20, tb.Clients, srv, constQuery(Demand{PostHoldSeconds: 1}), rec)
	env.Run(340)
	want := 20.0 / (1 + 1)
	if x := rec.Throughput(); math.Abs(x-want) > 1 {
		t.Fatalf("throughput = %v, want ~%v", x, want)
	}
}

func TestSaturationCapsThroughput(t *testing.T) {
	// 1 worker, 1s CPU per query: capacity 1 q/s no matter how many users.
	env, tb, srv := rig(1, 200)
	rec := NewRecorder(60, 360)
	startUsers(env, 100, tb.Clients, srv, constQuery(Demand{CPUSeconds: 1}), rec)
	env.Run(370)
	if x := rec.Throughput(); x > 1.1 {
		t.Fatalf("throughput = %v exceeds 1-worker capacity", x)
	}
	if x := rec.Throughput(); x < 0.8 {
		t.Fatalf("throughput = %v, want near capacity 1", x)
	}
	// Response time reflects queueing far beyond service time.
	if rt := rec.MeanResponseTime(); rt < 10 {
		t.Fatalf("mean RT = %v, want heavy queueing", rt)
	}
}

func TestRefusalsTriggerBackoffAndRetry(t *testing.T) {
	// Tiny backlog forces refusals; users must still complete queries via
	// retries, and refusals must be recorded.
	env, tb, srv := rig(1, 2)
	rec := NewRecorder(30, 330)
	startUsers(env, 80, tb.Clients, srv, constQuery(Demand{CPUSeconds: 0.5}), rec)
	env.Run(340)
	if rec.Refusals() == 0 {
		t.Fatal("no refusals despite tiny backlog and 80 users")
	}
	if rec.Completed() == 0 {
		t.Fatal("no queries completed despite retries")
	}
	// Throughput still bounded by the single worker.
	if x := rec.Throughput(); x > 2.2 {
		t.Fatalf("throughput = %v, want <= capacity 2", x)
	}
}

func TestQueryErrorCountsAsFailure(t *testing.T) {
	env, tb, srv := rig(1, 10)
	rec := NewRecorder(0, 30)
	calls := 0
	q := func(now float64) (Demand, error) {
		calls++
		return Demand{}, errTest
	}
	startUsers(env, 1, tb.Clients, srv, q, rec)
	env.Run(31)
	if rec.Completed() != 0 {
		t.Fatal("failed queries counted as completed")
	}
	if calls < 25 {
		t.Fatalf("user retried only %d times in 30s; should pace at think time", calls)
	}
}

var errTest = errBox("boom")

type errBox string

func (e errBox) Error() string { return string(e) }

func TestPopulationPlacementRespectsCap(t *testing.T) {
	_, tb, _ := rig(2, 10)
	placement := cluster.SpreadUsers(tb.Clients, 600, MaxUsersPerClientMachine)
	if len(placement) != 600 {
		t.Fatalf("users = %d", len(placement))
	}
	perMachine := map[string]int{}
	for _, m := range placement {
		perMachine[m.Name]++
	}
	for name, n := range perMachine {
		if n > MaxUsersPerClientMachine {
			t.Fatalf("machine %s has %d users (cap %d)", name, n, MaxUsersPerClientMachine)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, float64) {
		env, tb, srv := rig(2, 50)
		rec := NewRecorder(10, 110)
		startUsers(env, 30, tb.Clients, srv, constQuery(Demand{CPUSeconds: 0.05}), rec)
		env.Run(120)
		return rec.Completed(), rec.MeanResponseTime()
	}
	c1, rt1 := run()
	c2, rt2 := run()
	if c1 != c2 || rt1 != rt2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", c1, rt1, c2, rt2)
	}
}
