package experiments

import (
	"repro/internal/cluster"
	"repro/internal/sim"
)

// The paper's measurement procedure: response times and throughput
// accumulated over a ten-minute window, and a Ganglia-style sampler
// reading machine load at five-second intervals.

// Recorder accumulates per-query outcomes inside a measurement window.
// Queries completing outside [WindowStart, WindowEnd) are ignored,
// matching the paper's warm-up-then-measure procedure.
type Recorder struct {
	WindowStart float64
	WindowEnd   float64

	completed int
	totalRT   float64
	refused   int
}

// NewRecorder creates a recorder for the given measurement window.
func NewRecorder(start, end float64) *Recorder {
	return &Recorder{WindowStart: start, WindowEnd: end}
}

// RecordQuery registers a completed query that started at start and ended
// at end (simulation seconds, including any connection retries).
func (r *Recorder) RecordQuery(start, end float64) {
	if end < r.WindowStart || end >= r.WindowEnd {
		return
	}
	r.completed++
	r.totalRT += end - start
}

// RecordRefusal registers one refused connection attempt in the window.
func (r *Recorder) RecordRefusal(at float64) {
	if at >= r.WindowStart && at < r.WindowEnd {
		r.refused++
	}
}

// Completed reports the number of queries completed in the window.
func (r *Recorder) Completed() int { return r.completed }

// Refusals reports the number of refused connection attempts.
func (r *Recorder) Refusals() int { return r.refused }

// Throughput reports completed queries per second over the window.
func (r *Recorder) Throughput() float64 {
	dur := r.WindowEnd - r.WindowStart
	if dur <= 0 {
		return 0
	}
	return float64(r.completed) / dur
}

// MeanResponseTime reports the average response time of completed queries.
func (r *Recorder) MeanResponseTime() float64 {
	if r.completed == 0 {
		return 0
	}
	return r.totalRT / float64(r.completed)
}

// HostSample summarizes one machine's load over the measurement window.
type HostSample struct {
	MeanLoad1 float64
	// CPUPercent is mean utilization over the window as a percentage —
	// the paper's cpu_user + cpu_system "Load" metric.
	CPUPercent float64
	Samples    int
}

// Sampler watches one machine the way Ganglia watched the Lucky nodes:
// load1 sampled every Interval seconds inside the window, CPU utilization
// integrated across the window.
type Sampler struct {
	Machine  *cluster.Machine
	Interval float64

	windowStart float64
	windowEnd   float64

	load1Sum  float64
	samples   int
	cpuStart  float64
	cpuEnd    float64
	completed bool
}

// NewSampler creates a sampler; Start must be called to launch its
// process.
func NewSampler(m *cluster.Machine, windowStart, windowEnd, interval float64) *Sampler {
	if interval <= 0 {
		interval = 5
	}
	return &Sampler{Machine: m, Interval: interval, windowStart: windowStart, windowEnd: windowEnd}
}

// Start launches the sampling process on env.
func (s *Sampler) Start(env *sim.Env) {
	env.Go("sampler/"+s.Machine.Name, func(p *sim.Proc) {
		if wait := s.windowStart - p.Now(); wait > 0 {
			p.Sleep(wait)
		}
		s.cpuStart = s.Machine.CPUBusyIntegral()
		for p.Now() < s.windowEnd {
			s.load1Sum += s.Machine.Load1()
			s.samples++
			remain := s.windowEnd - p.Now()
			if remain <= 0 {
				break
			}
			step := s.Interval
			if step > remain {
				step = remain
			}
			p.Sleep(step)
		}
		s.cpuEnd = s.Machine.CPUBusyIntegral()
		s.completed = true
	})
}

// Result summarizes the window; valid after the simulation has run past
// the window end.
func (s *Sampler) Result() HostSample {
	out := HostSample{Samples: s.samples}
	if s.samples > 0 {
		out.MeanLoad1 = s.load1Sum / float64(s.samples)
	}
	dur := s.windowEnd - s.windowStart
	if s.completed && dur > 0 {
		out.CPUPercent = 100 * (s.cpuEnd - s.cpuStart) / dur
	}
	return out
}
