package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv()
	var at float64
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		at = p.Now()
	})
	e.RunAll()
	if at != 2.5 {
		t.Fatalf("woke at %v, want 2.5", at)
	}
}

func TestSleepSequence(t *testing.T) {
	e := NewEnv()
	var times []float64
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			times = append(times, p.Now())
		}
	})
	e.RunAll()
	want := []float64{1, 2, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEnv()
	var at float64 = -1
	var order []string
	e.Go("p", func(p *Proc) {
		order = append(order, "p1")
		p.Sleep(-5)
		at = p.Now()
		order = append(order, "p2")
	})
	e.Go("q", func(p *Proc) { order = append(order, "q") })
	e.RunAll()
	if at != 0 {
		t.Fatalf("woke at %v, want 0", at)
	}
	// A zero-length sleep still yields to events of the same instant.
	if len(order) != 3 || order[0] != "p1" || order[1] != "q" || order[2] != "p2" {
		t.Fatalf("order = %v, want [p1 q p2]", order)
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(1, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestAfterAndCancel(t *testing.T) {
	e := NewEnv()
	fired := 0
	tm := e.After(1, func() { fired++ })
	e.After(2, func() { fired += 10 })
	tm.Cancel()
	e.RunAll()
	if fired != 10 {
		t.Fatalf("fired = %d, want 10 (first timer canceled)", fired)
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEnv()
	fired := 0
	tm := e.After(1, func() { fired++ })
	e.RunAll()
	tm.Cancel() // must not panic
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := NewEnv()
	var woke bool
	e.Go("p", func(p *Proc) {
		p.Sleep(100)
		woke = true
	})
	e.Run(10)
	if woke {
		t.Fatal("process past deadline ran")
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
}

func TestRunKillsParkedProcesses(t *testing.T) {
	// A process parked past the horizon must be unwound, not leaked; its
	// deferred functions must still run.
	e := NewEnv()
	cleaned := false
	e.Go("p", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Sleep(1e9)
	})
	e.Run(1)
	if !cleaned {
		t.Fatal("deferred cleanup did not run during shutdown")
	}
}

func TestManyProcessesDeterministicInterleave(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(1)
					log = append(log, p.Name())
				}
			})
		}
		e.RunAll()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length: %d vs %d", len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleave at %d: %v vs %v", i, first, again)
			}
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv()
	e.Go("p", func(p *Proc) { p.Sleep(5) })
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.schedule(1, func() {})
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv()
		var fired []float64
		for _, d := range delays {
			d := float64(d) / 100
			e.After(d, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTimerCancelAfterRecycle pins the event-pool generation check: a
// Timer whose event has fired (and been recycled into a new event) must
// not cancel the new owner's callback.
func TestTimerCancelAfterRecycle(t *testing.T) {
	env := NewEnv()
	var fired bool
	stale := env.After(1, func() {})
	env.Run(2)
	// The fired event is on the free list; the next After reuses it.
	env.After(1, func() { fired = true })
	stale.Cancel() // must not cancel the recycled event's new callback
	env.Run(4)
	if !fired {
		t.Fatal("stale Timer.Cancel canceled a recycled event")
	}
}

// TestEventPoolRecycles checks the kernel actually reuses event structs
// instead of allocating one per schedule.
func TestEventPoolRecycles(t *testing.T) {
	env := NewEnv()
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
		}
	})
	env.RunAll()
	if len(env.free) == 0 {
		t.Fatal("no events were recycled to the free list")
	}
}
