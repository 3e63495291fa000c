package gridmon

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// The load-shedding acceptance test, the paper's users-vs-latency curves
// replayed against the facade's admission gate. The paper's Figures show
// every system's response time blowing up once offered load passes
// saturation, because every arriving request is admitted and they all
// share the server; WithAdmission is the repo's answer. This test pins
// the contract:
//
//   - past saturation, ACCEPTED requests keep a p99 within 3× of the
//     unsaturated p99 (the queue bound caps how much waiting a request
//     can be charged);
//   - accepted throughput plateaus near the unsaturated rate instead of
//     collapsing;
//   - SHED requests fail with the overloaded code in well under a
//     millisecond — refusal must be cheap, or shedding is just another
//     form of queueing;
//   - the same offered load WITHOUT admission collapses (documented by
//     the companion test below).
//
// The structural half of the contract — sheds carry the overloaded
// code, Stats count exactly the sheds and queue waits callers saw,
// requests are accepted, nothing hangs — is checked on every run, and so
// is the throughput plateau (a 2× margin on a rate, which a busy box does
// not eat). The three tail-latency bounds (shed < 1ms, accepted p99 ≤ 3×
// unsaturated, "the ungated collapse reproduces") depend on how busy the
// box is as much as on the code, so they are asserted only with
// GRIDMON_WALLCLOCK=1, which `make chaos` and the CI chaos job set.
//
// Service time is simulated by burning CPU WORK, not wall time and not
// sleep: on this single-core CI runner, sleeps (and wall-bounded spins)
// overlap for free and no amount of concurrency would collapse latency.
// A query costs a fixed number of work units, so N concurrent queries
// take ~N× the wall time of one — the paper's shared-server contention,
// reproduced. Each unit ends in a Gosched, so scheduling latency for
// the other goroutines (shed fast-fails especially) stays in the
// microseconds despite the spinning.

// shedBurn is the simulated per-query engine cost (single-threaded).
const shedBurn = 5 * time.Millisecond

// shedWorkers is the closed-loop offered load, sized well past the
// 1-slot saturation point (offered ≈ workers × capacity).
const shedWorkers = 8

// burnSink keeps the burn loops observable so the compiler cannot
// delete them.
var burnSink atomic.Int64

// burnUnits performs n units of CPU work, yielding after each (~1µs)
// unit.
func burnUnits(n int) {
	sink := 1
	for u := 0; u < n; u++ {
		for i := 0; i < 2000; i++ {
			sink = sink*31 + i
		}
		runtime.Gosched()
	}
	burnSink.Add(int64(sink))
}

// calibrateBurn measures this machine's (and build mode's — the race
// detector slows everything) unit cost and returns the unit count that
// burns ~target single-threaded.
func calibrateBurn(target time.Duration) int {
	const probe = 2048
	start := time.Now()
	burnUnits(probe)
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return probe
	}
	units := int(float64(probe) * float64(target) / float64(elapsed))
	if units < 1 {
		units = 1
	}
	return units
}

// burnClock returns a clock Option whose reads cost `units` of CPU work
// — the grid calls the clock once per query, so every query carries
// that much engine time.
func burnClock(units int) Option {
	return WithClock(func() float64 {
		burnUnits(units)
		return 1
	})
}

// wallclockBounds reports whether this run asserts the absolute and
// ratio timing bounds, or only logs them.
func wallclockBounds() bool { return os.Getenv("GRIDMON_WALLCLOCK") == "1" }

// shedQuery is the probe: engine-cheap, so the burn clock dominates.
var shedQuery = Query{System: MDS, Role: RoleDirectoryServer}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))]
}

// measureSequential runs n queries one at a time and returns their
// latencies — the unsaturated baseline.
func measureSequential(t *testing.T, grid *Grid, n int) []time.Duration {
	t.Helper()
	ctx := context.Background()
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := grid.Query(ctx, shedQuery); err != nil {
			t.Fatalf("unsaturated query %d: %v", i, err)
		}
		lats = append(lats, time.Since(start))
	}
	return lats
}

// flood drives `workers` closed-loop clients against grid for `window`,
// separating accepted latencies from shed latencies. Workers that are
// shed back off ~1ms, as a well-behaved (or DialWith-retrying) client
// would.
func flood(t *testing.T, grid *Grid, workers int, window time.Duration) (accepted, shed []time.Duration) {
	t.Helper()
	ctx := context.Background()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc, sh []time.Duration
			for time.Since(start) < window {
				t0 := time.Now()
				_, err := grid.Query(ctx, shedQuery)
				d := time.Since(t0)
				switch {
				case err == nil:
					acc = append(acc, d)
				case errors.Is(err, ErrOverloaded):
					sh = append(sh, d)
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("flood query: %v", err)
					return
				}
			}
			mu.Lock()
			accepted = append(accepted, acc...)
			shed = append(shed, sh...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return accepted, shed
}

// TestLoadShedding: the admission gate holds the acceptance bounds past
// saturation. One re-measure damps scheduler flakes on the plateau and
// (GRIDMON_WALLCLOCK=1 only) the tail-latency bounds; the bounds
// themselves have wide margins (see the constants).
func TestLoadShedding(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("timing-based load test")
	}
	attempt := func() string {
		grid, err := New(
			WithHosts(testHosts...),
			burnClock(calibrateBurn(shedBurn)),
			// One engine slot, two waiters, and a sub-millisecond queue
			// bound: every shed — the immediate queue-full kind and the
			// timed-out-in-queue kind — resolves in well under 1ms, and
			// an accepted query is charged at most that much extra wait,
			// keeping accepted p99 inside 3× unsaturated.
			WithAdmission(1, 2, 300*time.Microsecond),
		)
		if err != nil {
			t.Fatal(err)
		}
		unsat := measureSequential(t, grid, 100)
		unsatP99 := percentile(unsat, 0.99)
		unsatRate := float64(len(unsat)) / sumDur(unsat).Seconds()

		window := 700 * time.Millisecond
		accepted, shed := flood(t, grid, shedWorkers, window)
		if len(accepted) == 0 {
			return "flood: no requests accepted"
		}
		if len(shed) == 0 {
			return "flood: nothing shed — offered load never passed saturation"
		}
		accP99 := percentile(accepted, 0.99)
		shedP99 := percentile(shed, 0.99)
		accRate := float64(len(accepted)) / window.Seconds()
		st := grid.Stats()
		t.Logf("unsaturated: p50=%v p99=%v rate=%.0f/s", percentile(unsat, 0.50), unsatP99, unsatRate)
		t.Logf("flooded (%d workers): accepted=%d (p99=%v, %.0f/s) shed=%d (p99=%v) stats=%+v",
			shedWorkers, len(accepted), accP99, accRate, len(shed), shedP99, st)

		if st.Shed != int64(len(shed)) {
			return fmt.Sprintf("stats shed %d != observed sheds %d", st.Shed, len(shed))
		}
		if want := int64(len(unsat) + len(accepted)); st.Queries != want {
			return fmt.Sprintf("stats queries %d != answered queries %d", st.Queries, want)
		}
		if st.Queued > int64(len(accepted)+len(shed)) {
			return fmt.Sprintf("stats queued %d > flood requests %d", st.Queued, len(accepted)+len(shed))
		}
		if st.QueueDepth != 0 || st.InFlight != 0 {
			return fmt.Sprintf("idle grid reports queue depth %d, %d in flight", st.QueueDepth, st.InFlight)
		}
		if accRate < 0.5*unsatRate {
			return fmt.Sprintf("accepted throughput %.0f/s collapsed below half the unsaturated %.0f/s", accRate, unsatRate)
		}
		if !wallclockBounds() {
			return ""
		}
		if accP99 > 3*unsatP99 {
			return fmt.Sprintf("accepted p99 %v > 3× unsaturated p99 %v", accP99, unsatP99)
		}
		if shedP99 > time.Millisecond {
			return fmt.Sprintf("shed p99 %v — refusal must take < 1ms", shedP99)
		}
		return ""
	}
	if msg := attempt(); msg != "" {
		t.Logf("first measurement out of bounds (%s); re-measuring once", msg)
		if msg := attempt(); msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestLoadCollapseWithoutAdmission documents the failure mode the gate
// exists to prevent: the same offered load against an ungated grid sends
// tail latency far past the admission-controlled bound, exactly like the
// paper's past-saturation curves.
func TestLoadCollapseWithoutAdmission(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("timing-based load test")
	}
	grid, err := New(WithHosts(testHosts...), burnClock(calibrateBurn(shedBurn)))
	if err != nil {
		t.Fatal(err)
	}
	unsat := measureSequential(t, grid, 50)
	unsatP99 := percentile(unsat, 0.99)

	accepted, shed := flood(t, grid, shedWorkers, 700*time.Millisecond)
	if len(shed) != 0 {
		t.Fatalf("ungated grid shed %d requests", len(shed))
	}
	collapsedP99 := percentile(accepted, 0.99)
	t.Logf("without admission: unsaturated p99=%v, flooded p99=%v (%.1f×) over %d requests",
		unsatP99, collapsedP99, float64(collapsedP99)/float64(unsatP99), len(accepted))
	// Every admitted request shares the engine with ~all workers, so the
	// tail grows with the worker count; 3× is the bound the gated grid
	// holds and the ungated one must blow through.
	if wallclockBounds() && collapsedP99 <= 3*unsatP99 {
		t.Errorf("ungated flooded p99 %v stayed within 3× unsaturated %v — collapse did not reproduce",
			collapsedP99, unsatP99)
	}
}

func sumDur(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}
