package experiments

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestRecorderWindowFilter(t *testing.T) {
	r := NewRecorder(100, 700)
	r.RecordQuery(50, 90)   // ends before window
	r.RecordQuery(95, 105)  // ends inside
	r.RecordQuery(600, 650) // inside
	r.RecordQuery(690, 701) // ends after window
	if r.Completed() != 2 {
		t.Fatalf("completed = %d, want 2", r.Completed())
	}
}

func TestRecorderThroughputAndResponse(t *testing.T) {
	r := NewRecorder(0, 600)
	for i := 0; i < 60; i++ {
		start := float64(i * 10)
		r.RecordQuery(start, start+2)
	}
	if got := r.Throughput(); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("throughput = %v, want 0.1", got)
	}
	if got := r.MeanResponseTime(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("mean RT = %v, want 2", got)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder(0, 10)
	if r.Throughput() != 0 || r.MeanResponseTime() != 0 {
		t.Fatal("empty recorder reported nonzero stats")
	}
}

func TestRecorderRefusals(t *testing.T) {
	r := NewRecorder(10, 20)
	r.RecordRefusal(5)  // outside
	r.RecordRefusal(15) // inside
	r.RecordRefusal(25) // outside
	if r.Refusals() != 1 {
		t.Fatalf("refusals=%d, want 1", r.Refusals())
	}
}

func TestSamplerMeasuresBusyMachine(t *testing.T) {
	env := sim.NewEnv()
	m := cluster.NewMachine(env, "m", 2, 1.0, nil)
	s := NewSampler(m, 10, 110, 5)
	s.Start(env)
	// One core busy from t=0 through t=200 (fully covering the window).
	env.Go("burn", func(p *sim.Proc) { m.Compute(p, 200) })
	env.Run(220)
	res := s.Result()
	if math.Abs(res.CPUPercent-50) > 1 {
		t.Fatalf("CPU%% = %v, want ~50 (1 of 2 cores)", res.CPUPercent)
	}
	if res.MeanLoad1 < 0.5 || res.MeanLoad1 > 1.1 {
		t.Fatalf("load1 = %v, want ~0.8-1", res.MeanLoad1)
	}
	if res.Samples < 20 {
		t.Fatalf("samples = %d, want >= 20 (100s window / 5s)", res.Samples)
	}
}

func TestSamplerIdleMachine(t *testing.T) {
	env := sim.NewEnv()
	m := cluster.NewMachine(env, "m", 2, 1.0, nil)
	s := NewSampler(m, 0, 60, 5)
	s.Start(env)
	env.Run(70)
	res := s.Result()
	if res.CPUPercent != 0 {
		t.Fatalf("idle CPU%% = %v", res.CPUPercent)
	}
	if res.MeanLoad1 != 0 {
		t.Fatalf("idle load1 = %v", res.MeanLoad1)
	}
}

func TestSamplerDefaultInterval(t *testing.T) {
	env := sim.NewEnv()
	m := cluster.NewMachine(env, "m", 1, 1.0, nil)
	s := NewSampler(m, 0, 50, 0) // 0 -> default 5s
	s.Start(env)
	env.Run(60)
	if got := s.Result().Samples; got < 10 || got > 12 {
		t.Fatalf("samples = %d, want ~11", got)
	}
}
