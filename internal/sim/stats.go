package sim

import "math"

// TimeWeighted accumulates the time integral of a piecewise-constant value,
// for time-averaged statistics such as mean queue length or utilization.
// The zero value is ready for use starting at time 0 with value 0.
type TimeWeighted struct {
	start    float64
	lastT    float64
	lastV    float64
	integral float64
}

// Reset restarts accumulation at time t with current value v.
func (w *TimeWeighted) Reset(t, v float64) {
	w.start, w.lastT, w.lastV, w.integral = t, t, v, 0
}

// Set records that the value changed to v at time t. Time must not go
// backwards.
func (w *TimeWeighted) Set(t, v float64) {
	if t > w.lastT {
		w.integral += w.lastV * (t - w.lastT)
		w.lastT = t
	}
	w.lastV = v
}

// Integral reports the accumulated integral up to time t.
func (w *TimeWeighted) Integral(t float64) float64 {
	extra := 0.0
	if t > w.lastT {
		extra = w.lastV * (t - w.lastT)
	}
	return w.integral + extra
}

// Mean reports the time-averaged value over [start, t]. It returns the
// current value when no time has elapsed.
func (w *TimeWeighted) Mean(t float64) float64 {
	dur := t - w.start
	if dur <= 0 {
		return w.lastV
	}
	return w.Integral(t) / dur
}

// Damped is an exponentially damped average with time constant tau, the
// mechanism behind Unix one-minute load averages (tau = 60 s). Between
// updates the input is treated as constant.
type Damped struct {
	tau   float64
	value float64
	input float64
	lastT float64
}

// NewDamped returns a damped average with the given time constant.
func NewDamped(tau, t0 float64) *Damped {
	if tau <= 0 {
		panic("sim: Damped tau must be > 0")
	}
	return &Damped{tau: tau, lastT: t0}
}

// Observe records that the input changed to v at time t, folding the
// interval since the previous observation into the average.
func (d *Damped) Observe(t, v float64) {
	d.advance(t)
	d.input = v
}

func (d *Damped) advance(t float64) {
	dt := t - d.lastT
	if dt > 0 {
		f := math.Exp(-dt / d.tau)
		d.value = d.value*f + d.input*(1-f)
		d.lastT = t
	}
}

// Value reports the damped average as of time t.
func (d *Damped) Value(t float64) float64 {
	d.advance(t)
	return d.value
}
