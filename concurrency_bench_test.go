package gridmon

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkGridQueryParallel measures concurrent read-only query
// throughput through the facade at increasing worker counts — the
// paper's concurrent-users x-axis, in-process. ns/op is the wall time
// per query across all workers, so on a multi-core machine it should
// fall as workers grow (the read-locked facade admits them in
// parallel); on one core it stays flat, which is itself the result:
// fine-grained locking costs nothing over the old single mutex.
// TestConcurrentQueryBitIdenticalToSerial pins this exact workload to
// the serialized baseline byte-for-byte.
func BenchmarkGridQueryParallel(b *testing.B) {
	queries := stressQueries()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			grid, err := New(WithHosts("lucky3", "lucky4", "lucky7"))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// Warm every lazy structure once so all workers hit steady
			// state (compiled plans, postings, ordinals).
			for _, q := range queries {
				if _, err := grid.Query(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := next.Add(1) - 1
						if n >= int64(b.N) {
							return
						}
						q := queries[n%int64(len(queries))]
						if _, err := grid.Query(ctx, q); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkGridQueryCached measures the paper's cache lever (Figures
// 5–6: >10x throughput with data in cache) against the real facade: the
// same repeated query with and without WithQueryCache. The cached run's
// steady state is all hits — no engine work at all — so the ratio of
// the two ns/op numbers is the in-process cache speedup.
func BenchmarkGridQueryCached(b *testing.B) {
	q := Query{System: MDS, Role: RoleAggregateServer, Expr: "(objectclass=MdsCpu)"}
	run := func(b *testing.B, opts ...Option) {
		grid, err := New(append([]Option{WithHosts("lucky3", "lucky4", "lucky7")}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, err := grid.Query(ctx, q); err != nil { // prime
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := grid.Query(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := grid.Stats(); st.CacheHits+st.CacheMisses > 0 {
			b.ReportMetric(float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses), "hit-rate")
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b) })
	b.Run("cached", func(b *testing.B) { run(b, WithQueryCache(time.Hour)) })
}
