package experiments

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func testRig(workers, backlog int) (*sim.Env, *cluster.Testbed, *Server) {
	env := sim.NewEnv()
	tb := cluster.NewTestbed(env)
	srv := NewServer(env, tb.Host("lucky7"), tb.Network, ServerConfig{
		Workers: workers, Backlog: backlog, SetupRTTs: 0,
	})
	return env, tb, srv
}

func TestCallChargesCPUToServerMachine(t *testing.T) {
	env, tb, srv := testRig(2, 10)
	client := tb.Clients[0]
	var done float64
	env.Go("c", func(p *sim.Proc) {
		if err := srv.Call(p, client, Demand{CPUSeconds: 2}); err != nil {
			t.Errorf("Call: %v", err)
		}
		done = p.Now()
	})
	env.Run(100)
	if math.Abs(done-2) > 0.1 {
		t.Fatalf("call completed at %v, want ~2 (2 CPU-seconds on idle machine)", done)
	}
	if srv.Served != 1 {
		t.Fatalf("Served = %d", srv.Served)
	}
	if util := tb.Host("lucky7").CPUBusyIntegral(); util <= 0 {
		t.Fatal("server machine CPU never charged")
	}
}

func TestWorkerPoolSerializes(t *testing.T) {
	// 4 requests of 1 CPU-second each through 1 worker take ~4 seconds.
	env, tb, srv := testRig(1, 10)
	var last float64
	for i := 0; i < 4; i++ {
		client := tb.Clients[i]
		env.Go("c", func(p *sim.Proc) {
			if err := srv.Call(p, client, Demand{CPUSeconds: 1}); err != nil {
				t.Errorf("Call: %v", err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run(100)
	if math.Abs(last-4) > 0.2 {
		t.Fatalf("4 serialized 1s requests drained at %v, want ~4", last)
	}
}

func TestBacklogRefusesExcess(t *testing.T) {
	// 1 worker + 1 backlog slot: a third concurrent request is refused.
	env, tb, srv := testRig(1, 1)
	refused := 0
	for i := 0; i < 3; i++ {
		client := tb.Clients[i]
		env.Go("c", func(p *sim.Proc) {
			if err := srv.Call(p, client, Demand{CPUSeconds: 5}); err == ErrRefused {
				refused++
			}
		})
	}
	env.Run(100)
	if refused != 1 {
		t.Fatalf("refused = %d, want 1", refused)
	}
	if srv.Refused != 1 || srv.Served != 2 {
		t.Fatalf("counters: refused=%d served=%d", srv.Refused, srv.Served)
	}
}

func TestRefusalConsumesNoServerCPU(t *testing.T) {
	env, tb, srv := testRig(1, 0)
	busyClient, probeClient := tb.Clients[0], tb.Clients[1]
	env.Go("busy", func(p *sim.Proc) {
		_ = srv.Call(p, busyClient, Demand{CPUSeconds: 10})
	})
	env.Go("probe", func(p *sim.Proc) {
		p.Sleep(1)
		if err := srv.Call(p, probeClient, Demand{CPUSeconds: 100}); err != ErrRefused {
			t.Errorf("expected refusal, got %v", err)
		}
	})
	env.Run(50)
	// Only the admitted request's 10 CPU-seconds are charged.
	if got := tb.Host("lucky7").CPUBusyIntegral(); got > 5.1 {
		t.Fatalf("CPU integral = %v, want ~5 (10 CPU-seconds on 2 cores)", got)
	}
}

func TestPostHoldDoesNotOccupyWorker(t *testing.T) {
	// With 1 worker and a long post-hold, back-to-back requests pipeline:
	// worker time is 0.1s each, so 4 requests drain in ~0.4s + one hold.
	env, tb, srv := testRig(1, 10)
	var last float64
	for i := 0; i < 4; i++ {
		client := tb.Clients[i]
		env.Go("c", func(p *sim.Proc) {
			_ = srv.Call(p, client, Demand{CPUSeconds: 0.1, PostHoldSeconds: 3})
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run(100)
	if last > 4 {
		t.Fatalf("pipelined requests drained at %v, want < 4 (hold outside worker)", last)
	}
	if last < 3.3 {
		t.Fatalf("drained at %v, want >= 3.4 (0.4 worker + 3 hold)", last)
	}
}

func TestWorkerHoldOccupiesWorker(t *testing.T) {
	// Worker-held I/O serializes: 3 requests of 1s worker-hold through 1
	// worker take ~3s even with zero CPU.
	env, tb, srv := testRig(1, 10)
	var last float64
	for i := 0; i < 3; i++ {
		client := tb.Clients[i]
		env.Go("c", func(p *sim.Proc) {
			_ = srv.Call(p, client, Demand{WorkerHoldSeconds: 1})
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run(100)
	if math.Abs(last-3) > 0.2 {
		t.Fatalf("worker-held requests drained at %v, want ~3", last)
	}
}

func TestWorkerHoldLoadsNoCPU(t *testing.T) {
	env, tb, srv := testRig(2, 10)
	env.Go("c", func(p *sim.Proc) {
		_ = srv.Call(p, tb.Clients[0], Demand{WorkerHoldSeconds: 5})
	})
	env.Run(50)
	if got := tb.Host("lucky7").CPUBusyIntegral(); got > 0.01 {
		t.Fatalf("worker hold charged CPU: %v", got)
	}
}

func TestResponseBytesCrossNetwork(t *testing.T) {
	// 12.5 MB response over three 12.5 MB/s hops ~ 3 s.
	env, tb, srv := testRig(2, 10)
	var done float64
	env.Go("c", func(p *sim.Proc) {
		_ = srv.Call(p, tb.Clients[0], Demand{ResponseBytes: 12.5e6})
		done = p.Now()
	})
	env.Run(100)
	if done < 2.9 || done > 3.3 {
		t.Fatalf("big response completed at %v, want ~3", done)
	}
}

func TestSetupRTTs(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.NewTestbed(env)
	srv := NewServer(env, tb.Host("lucky7"), tb.Network, ServerConfig{
		Workers: 1, Backlog: 1, SetupRTTs: 2,
	})
	var done float64
	env.Go("c", func(p *sim.Proc) {
		_ = srv.Call(p, tb.Clients[0], Demand{})
		done = p.Now()
	})
	env.Run(10)
	// 2 setup RTTs (20ms) plus one-way request and response latency
	// (5ms each) = 30ms.
	if done < 0.029 || done > 0.035 {
		t.Fatalf("setup completed at %v, want ~0.03", done)
	}
}

func TestConfigDefaults(t *testing.T) {
	env := sim.NewEnv()
	tb := cluster.NewTestbed(env)
	srv := NewServer(env, tb.Host("lucky7"), tb.Network, ServerConfig{Workers: 0, Backlog: -5})
	if srv.Config.Workers != 1 || srv.Config.Backlog != 0 {
		t.Fatalf("defaults: %+v", srv.Config)
	}
}
