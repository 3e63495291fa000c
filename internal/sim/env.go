// Package sim provides a deterministic discrete-event simulation kernel.
//
// Simulation processes are ordinary goroutines, but the kernel runs exactly
// one at a time: a process either holds control or is parked on a kernel
// primitive (Sleep, Signal.Wait, Resource.Acquire, ...). Events scheduled at
// the same instant fire in scheduling order, so a given program produces the
// same trajectory on every run.
package sim

import (
	"container/heap"
	"fmt"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create one with NewEnv.
type Env struct {
	now     float64
	events  eventHeap
	free    []*event // recycled events; see allocEvent/recycle
	seq     uint64
	yielded chan struct{}
	procs   []*Proc
	running bool
	stopped bool
}

// NewEnv returns an environment with the clock at zero.
func NewEnv() *Env {
	return &Env{yielded: make(chan struct{})}
}

// Now reports the current simulation time in seconds.
func (e *Env) Now() float64 { return e.now }

// event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (seq breaks ties), which keeps runs deterministic.
type event struct {
	t        float64
	seq      uint64
	fn       func()
	canceled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// allocEvent takes an event from the free list (or allocates one) and
// stamps it with a fresh sequence number. A simulation schedules one
// event per Sleep, per Signal release and per timer — recycling them
// keeps the kernel's steady-state allocation rate flat no matter how
// long the run is.
func (e *Env) allocEvent(t float64, fn func()) *event {
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	*ev = event{t: t, seq: e.seq, fn: fn}
	return ev
}

// recycle returns a popped event to the free list. The sequence number is
// left in place so a stale Timer.Cancel (whose generation check compares
// it) stays a no-op until the slot is reused and restamped.
func (e *Env) recycle(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// schedule enqueues fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a bug in the caller.
func (e *Env) schedule(t float64, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	ev := e.allocEvent(t, fn)
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn to run d seconds from now and returns a handle that can
// be canceled with Cancel.
func (e *Env) After(d float64, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	ev := e.schedule(e.now+d, fn)
	return &Timer{ev: ev, seq: ev.seq}
}

// Timer is a handle to a scheduled callback. It records the event's
// generation (sequence number) so Cancel cannot touch a recycled event
// that now carries someone else's callback.
type Timer struct {
	ev  *event
	seq uint64
}

// Cancel prevents the timer's callback from firing. Canceling an
// already-fired or already-canceled timer is a no-op.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil && t.ev.seq == t.seq {
		t.ev.canceled = true
	}
}

// Run drives the simulation until the event queue empties or the clock
// passes until. It leaves the clock at min(until, time of last event), and
// then terminates any still-parked processes.
func (e *Env) Run(until float64) {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.t > until {
			break
		}
		heap.Pop(&e.events)
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.t
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
	if e.now < until {
		e.now = until
	}
	e.running = false
	e.shutdown()
}

// RunAll drives the simulation until no events remain.
func (e *Env) RunAll() {
	if e.running {
		panic("sim: RunAll called re-entrantly")
	}
	e.running = true
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		e.now = ev.t
		fn := ev.fn
		e.recycle(ev)
		fn()
	}
	e.running = false
	e.shutdown()
}

// shutdown kills every process still parked on a primitive so that Run does
// not leak goroutines.
func (e *Env) shutdown() {
	if e.stopped {
		return
	}
	e.stopped = true
	for _, p := range e.procs {
		if !p.finished && p.started {
			p.kill = true
			e.resumeProc(p)
		}
	}
	e.procs = nil
}

// killed is the sentinel panic value used to unwind a process during
// environment shutdown.
type killedPanic struct{}

// Proc is a simulation process: a goroutine scheduled by the kernel. Its
// blocking calls (Sleep, Signal.Wait, Resource.Acquire, PS.Consume) must be
// made only from the process's own goroutine.
type Proc struct {
	env      *Env
	name     string
	resume   chan struct{}
	resumeFn func() // allocated once; Sleep's wakeup callback
	started  bool
	finished bool
	kill     bool
}

// Name reports the name given to Go.
func (p *Proc) Name() string { return p.name }

// Now reports current simulation time.
func (p *Proc) Now() float64 { return p.env.now }

// Go starts fn as a new process at the current simulation time.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	p.resumeFn = func() { e.resumeProc(p) }
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		defer func() {
			p.finished = true
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); ok {
					e.yielded <- struct{}{}
					return
				}
				// Re-panic on the kernel goroutine would deadlock; annotate
				// and crash here so the test output names the process.
				panic(fmt.Sprintf("sim: process %q panicked: %v", name, r))
			}
			e.yielded <- struct{}{}
		}()
		fn(p)
	}()
	e.schedule(e.now, func() {
		p.started = true
		e.resumeProc(p)
	})
	return p
}

// resumeProc hands control to p and blocks until p parks or finishes.
func (e *Env) resumeProc(p *Proc) {
	p.resume <- struct{}{}
	<-e.yielded
}

// park returns control to the kernel and blocks until the kernel resumes
// this process. It must only be called from p's goroutine after arranging a
// wakeup.
func (p *Proc) park() {
	p.env.yielded <- struct{}{}
	<-p.resume
	if p.kill {
		panic(killedPanic{})
	}
}

// Sleep suspends the process for d seconds of simulated time. Negative
// durations sleep zero seconds (yielding to other events at the same time).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	e := p.env
	e.schedule(e.now+d, p.resumeFn)
	p.park()
}
