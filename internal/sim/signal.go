package sim

// Signal is a wait queue: processes park on Wait and Notify releases them
// one at a time, longest waiter first. Unlike a sync.Cond there is no
// associated lock — the kernel only ever runs one process at a time.
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal returns a Signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait parks p until Notify releases it.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Notify releases the longest-waiting process, if any, and reports whether
// one was released. The waiter resumes at the current instant via a
// scheduled event, preserving deterministic ordering with other same-time
// events.
func (s *Signal) Notify() bool {
	if len(s.waiters) == 0 {
		return false
	}
	p := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.env.schedule(s.env.now, func() { s.env.resumeProc(p) })
	return true
}
