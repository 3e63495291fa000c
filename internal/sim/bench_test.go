package sim

import "testing"

// BenchmarkEventChurn measures the scheduler's event alloc/fire cycle —
// the free-list pool's target. Each Sleep schedules (and recycles) one
// event.
func BenchmarkEventChurn(b *testing.B) {
	env := NewEnv()
	n := b.N
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	env.RunAll()
}
