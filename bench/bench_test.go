package main

import (
	"context"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// These tests are deterministic: none of them asserts a wall-clock
// threshold. The one test that runs the real phases (the smoke) checks
// only which names come out.

func TestSameSeedSameInputs(t *testing.T) {
	w := workloadByName("mixed_direct")
	a := newGenerator(7, w.shapes, w.mix)
	b := newGenerator(7, w.shapes, w.mix)
	if !reflect.DeepEqual(a.seq, b.seq) {
		t.Fatal("same seed gave different query sequences")
	}
	if !reflect.DeepEqual(a.queries, b.queries) {
		t.Fatal("same seed gave different queries")
	}
	if !reflect.DeepEqual(poissonSchedule(7, 2, 5000, 10000), poissonSchedule(7, 2, 5000, 10000)) {
		t.Fatal("same seed gave different arrival schedules")
	}
	c := newGenerator(8, w.shapes, w.mix)
	if reflect.DeepEqual(a.pools, c.pools) {
		t.Fatal("different seeds gave identical expression pools")
	}
}

func TestPoolsAreDistinctAndMixIsHonoured(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(3, w.shapes, w.mix)
		for sys, pool := range g.pools {
			if len(pool) != poolSize {
				t.Fatalf("%s: pool %d has %d shapes, want %d", w.name, sys, len(pool), poolSize)
			}
			seen := map[string]bool{}
			for _, sh := range pool {
				key := sh.expr + "|" + strings.Join(sh.attrs, ",")
				if seen[key] {
					t.Fatalf("%s: pool %d repeats %q", w.name, sys, key)
				}
				seen[key] = true
			}
		}
		var counts [numKinds]float64
		for _, id := range g.seq {
			counts[g.queries[id].kind]++
		}
		total := 0.0
		for _, share := range w.mix {
			total += share
		}
		for k, share := range w.mix {
			got, want := counts[k]/float64(len(g.seq)), share/total
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: kind %s is %.3f of the sequence, mix says %.3f", w.name, kind(k), got, want)
			}
			if share == 0 {
				t.Errorf("%s: kind %s has no traffic; every component should see some", w.name, kind(k))
			}
		}
	}
}

func TestPoissonMean(t *testing.T) {
	const rate, n = 4000.0, 100000
	sched := poissonSchedule(1, 0, rate, n)
	for i := 1; i < n; i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	mean := float64(sched[n-1]) / 1e9 / n
	if want := 1 / rate; math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("mean inter-arrival %.6gs over %d draws, want %.6gs within 2%%", mean, n, want)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{5000, 99, 4950}, // 50 samples beyond p99
		{1000, 99, 990},  // exactly 10 beyond
		{999, 100 * 989.0 / 999, 989},
		{200, 95, 190},
		{15, 50, 8}, // never below the median
	}
	for _, c := range cases {
		got := tailOf(seq(c.n), 99)
		if got.n != c.n || math.Abs(got.pct-c.wantPct) > 1e-9 || got.value != c.wantVal {
			t.Errorf("n=%d: got p%.4g=%v (n=%d), want p%.4g=%v", c.n, got.pct, got.value, got.n, c.wantPct, c.wantVal)
		}
		if beyond := c.n - int(got.value); c.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
	if got := tailOf(nil, 99); got.n != 0 || got.value != 0 {
		t.Errorf("empty input: got %+v", got)
	}
}

// A request is timed from when it was due, not from when it was sent:
// one worker serves a schedule against a fake clock that stalls once,
// and every request queued behind the stall must carry the wait.
func TestLatencyIsTakenFromDueTime(t *testing.T) {
	const ms = int64(time.Millisecond)
	due := []int64{0, 20 * ms, 40 * ms, 60 * ms, 80 * ms}
	var now int64
	clock := func() int64 { return now }
	var got []int64
	for i, d := range due {
		if now < d {
			now = d // the worker was idle until the request was due
		}
		got = append(got, sinceDue(d, clock, func() {
			now += 10 * ms // the service time
			if i == 1 {
				now += 100 * ms // the stall
			}
		}))
	}
	want := []int64{10 * ms, 110 * ms, 100 * ms, 90 * ms, 80 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("latencies %v, want %v: requests behind the stall must be charged it", got, want)
	}
}

// A step's verdict: a late generator makes it invalid whatever the
// latencies say, and otherwise failures, backlog and the tail against
// the limit are checked in that order.
func TestStepVerdict(t *testing.T) {
	const n = 2000
	step := func(latUS, lateUS float64, failed, backlog int) stepResult {
		s := stepResult{sent: n, failed: failed, backlogEnd: backlog}
		for i := 0; i < n-failed; i++ {
			s.samples = append(s.samples, sample{latNs: int64(latUS * 1e3)})
		}
		late := make([]float64, n)
		for i := range late {
			late[i] = lateUS
		}
		s.finish(late)
		return s
	}
	cases := []struct {
		name          string
		s             stepResult
		valid, passed bool
	}{
		{"healthy", step(1000, 300, 0, 0), true, true},
		{"generator late", step(1000, 0.10*limitUS+1, 0, 0), false, false},
		{"generator late hides a slow tail", step(2*limitUS, 0.10*limitUS+1, 0, 0), false, false},
		{"failures", step(1000, 300, 3, 0), true, false},
		{"backlog", step(1000, 300, 0, 8*maxInFlight+1), true, false},
		{"over the limit", step(limitUS+1, 300, 0, 0), true, false},
	}
	for _, c := range cases {
		if c.s.valid != c.valid || c.s.passed != c.passed {
			t.Errorf("%s: valid=%v passed=%v (%s), want valid=%v passed=%v", c.name, c.s.valid, c.s.passed, c.s.why, c.valid, c.passed)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	//  0 remote 0..100
	//  1   facade 10..80        (child of 0)
	//  2     parse 12..20       (child of 1)
	//  3     component 20..60   (child of 1)
	//  4       scan 25..45      (child of 3)
	//  5 other root 200..230
	spans := []span{
		{Name: "remote", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "facade", Parent: 0, StartNs: 10, EndNs: 80},
		{Name: "parse", Parent: 1, StartNs: 12, EndNs: 20},
		{Name: "component", Parent: 1, StartNs: 20, EndNs: 60},
		{Name: "scan", Parent: 3, StartNs: 25, EndNs: 45},
		{Name: "other", Parent: -1, StartNs: 200, EndNs: 230},
	}
	want := []int64{30, 22, 8, 20, 20, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	var total int64
	for _, s := range selfTimes(spans) {
		total += s
	}
	if total != 130 { // self times partition the roots' durations
		t.Fatalf("self times sum to %d, want the roots' 130", total)
	}
}

func TestSpreadAndMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

// TestSmokeEmitsEveryMetricOnce runs every workload through both modes
// with half-second phases and checks that each run reports exactly the
// names BENCHMARK.json lists for its mode, once each.
func TestSmokeEmitsEveryMetricOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real load for a few seconds per workload")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// Runs leave their artifacts under bench/out of the repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("bench")
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runOne(context.Background(), w, 1, smokeSizes, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := spec.EndToEnd
			if traced {
				defs = spec.PerLayer
			}
			line := contractMetrics(defs, res)
			if len(line) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the contract line, %d defined", w.name, traced, len(line), len(defs))
			}
			for _, def := range defs {
				m, ok := res.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not reported", w.name, traced, def.Name)
				case m.Unit != def.Unit:
					t.Errorf("%s traced=%v: metric %s reported in %q, BENCHMARK.json says %q", w.name, traced, def.Name, m.Unit, def.Unit)
				}
			}
			if len(res.GateMismatches) > 0 {
				t.Errorf("%s: gate mismatches: %v", w.name, res.GateMismatches)
			}
		}
	}
}
