package sim

import "math"

// completionEps is the slack under which a job's remaining demand counts as
// zero, absorbing float rounding in the processor-sharing arithmetic.
const completionEps = 1e-9

// PS is a processor-sharing resource with a number of identical servers.
// Jobs submit a demand (in work units); while n jobs are active each is
// served at rate*min(1, servers/n) work units per second. With servers=1 it
// models a shared network link (per-flow rate = bandwidth/n); with
// servers=k it models a k-core CPU under a processor-sharing scheduler.
type PS struct {
	env     *Env
	servers int
	rate    float64
	jobs    []*psJob
	last    float64 // time of the last advance
	pending *Timer
	// expect lists the jobs the pending completion event was scheduled
	// for; they are forced complete when it fires, immune to float
	// round-off (a completion scheduled d seconds out can otherwise land
	// at now+d == now and never cross the epsilon threshold).
	expect []*psJob

	busyArea TimeWeighted // integral of utilization in [0,1]

	// OnCount, if non-nil, is invoked whenever the active-job count
	// changes. Machines use it to maintain the run-queue load average.
	OnCount func(t float64, n int)
}

type psJob struct {
	proc      *Proc
	remaining float64
}

// NewPS returns a processor-sharing resource with the given server count
// (>= 1) and per-server service rate (> 0, work units per second).
func NewPS(env *Env, servers int, rate float64) *PS {
	if servers < 1 {
		panic("sim: PS servers must be >= 1")
	}
	if rate <= 0 {
		panic("sim: PS rate must be > 0")
	}
	ps := &PS{env: env, servers: servers, rate: rate, last: env.now}
	ps.busyArea.Reset(env.now, 0)
	return ps
}

// Active reports the number of jobs currently in service.
func (ps *PS) Active() int { return len(ps.jobs) }

// perJobRate reports the rate each of n active jobs receives.
func (ps *PS) perJobRate(n int) float64 {
	if n <= ps.servers {
		return ps.rate
	}
	return ps.rate * float64(ps.servers) / float64(n)
}

// advance applies service accrued since the last state change.
func (ps *PS) advance() {
	now := ps.env.now
	dt := now - ps.last
	ps.last = now
	if dt <= 0 || len(ps.jobs) == 0 {
		return
	}
	served := ps.perJobRate(len(ps.jobs)) * dt
	for _, j := range ps.jobs {
		j.remaining -= served
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
}

// stateChanged records accounting after the job set changes and schedules
// the next completion.
func (ps *PS) stateChanged() {
	n := len(ps.jobs)
	util := math.Min(float64(n), float64(ps.servers)) / float64(ps.servers)
	ps.busyArea.Set(ps.env.now, util)
	if ps.OnCount != nil {
		ps.OnCount(ps.env.now, n)
	}
	ps.reschedule()
}

// reschedule points the pending completion timer at the earliest-finishing
// job and records which jobs that event will retire.
func (ps *PS) reschedule() {
	ps.pending.Cancel()
	ps.pending = nil
	ps.expect = ps.expect[:0]
	if len(ps.jobs) == 0 {
		return
	}
	minRemain := math.Inf(1)
	for _, j := range ps.jobs {
		if j.remaining < minRemain {
			minRemain = j.remaining
		}
	}
	tol := minRemain*1e-12 + completionEps
	for _, j := range ps.jobs {
		if j.remaining <= minRemain+tol {
			ps.expect = append(ps.expect, j)
		}
	}
	d := minRemain / ps.perJobRate(len(ps.jobs))
	ps.pending = ps.env.After(d, ps.complete)
}

// complete finishes every job whose demand has been served — including the
// jobs the firing event was scheduled for, regardless of rounding.
func (ps *PS) complete() {
	ps.advance()
	for _, j := range ps.expect {
		j.remaining = 0
	}
	ps.expect = ps.expect[:0]
	var done []*psJob
	var live []*psJob
	for _, j := range ps.jobs {
		if j.remaining <= completionEps {
			done = append(done, j)
		} else {
			live = append(live, j)
		}
	}
	ps.jobs = live
	ps.stateChanged()
	for _, j := range done {
		ps.env.resumeProc(j.proc)
	}
}

// Consume blocks p until demand work units have been served under
// processor sharing. A non-positive demand returns immediately.
func (ps *PS) Consume(p *Proc, demand float64) {
	if demand <= 0 {
		return
	}
	ps.advance()
	j := &psJob{proc: p, remaining: demand}
	ps.jobs = append(ps.jobs, j)
	ps.stateChanged()
	p.park()
}

// Utilization reports the time-averaged utilization in [0,1] since creation.
func (ps *PS) Utilization() float64 { return ps.busyArea.Mean(ps.env.now) }

// UtilizationIntegral reports the accumulated utilization integral (in
// busy-time units normalized to [0,1]) up to time t. Differencing it across
// an interval yields the mean utilization over that interval.
func (ps *PS) UtilizationIntegral(t float64) float64 {
	return ps.busyArea.Integral(t)
}
