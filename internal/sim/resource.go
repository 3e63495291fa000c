package sim

// Resource is a counted FCFS resource (a semaphore with fair queueing):
// worker pools, accept backlogs, and similar capacity limits. Acquire blocks
// while all units are held; Release hands a unit to the longest waiter.
type Resource struct {
	capacity int
	inUse    int
	avail    *Signal
}

// NewResource returns a resource with the given number of units
// (capacity >= 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{capacity: capacity, avail: NewSignal(env)}
}

// TryAcquire takes a unit without blocking, reporting whether it could.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.inUse++
	return true
}

// Acquire blocks p until a unit is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.avail.Wait(p)
	}
	r.inUse++
}

// Release returns a unit and wakes the longest waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	r.inUse--
	r.avail.Notify()
}
