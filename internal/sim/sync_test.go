package sim

import "testing"

func TestSignalNotifyWakesFIFO(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	var order []string
	waitAs := func(name string) {
		e.Go(name, func(p *Proc) {
			s.Wait(p)
			order = append(order, name)
		})
	}
	waitAs("first")
	waitAs("second")
	e.Go("notifier", func(p *Proc) {
		p.Sleep(1)
		s.Notify()
		p.Sleep(1)
		s.Notify()
	})
	e.RunAll()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
}

func TestSignalNotifyOnEmpty(t *testing.T) {
	e := NewEnv()
	s := NewSignal(e)
	if s.Notify() {
		t.Fatal("Notify on empty signal reported a release")
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	maxHeld, held := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("w", func(p *Proc) {
			r.Acquire(p)
			held++
			if held > maxHeld {
				maxHeld = held
			}
			p.Sleep(1)
			held--
			r.Release()
		})
	}
	e.RunAll()
	if maxHeld != 2 {
		t.Fatalf("max concurrent holders = %d, want 2", maxHeld)
	}
	if e.Now() != 3 {
		t.Fatalf("completion at %v, want 3 (6 jobs / 2 units * 1s)", e.Now())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed on idle resource")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire succeeded on full resource")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire failed after release")
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release on idle resource did not panic")
		}
	}()
	r.Release()
}
