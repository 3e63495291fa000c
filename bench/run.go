package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir is where a run leaves its artifacts (trace spans, result
// files, the durable workload's data directories), inside the checkout.
const outDir = "bench/out"

// sizes is how much work a run does.
type sizes struct {
	seconds float64 // the load phases, together
	// setupRepeats is how many times an untraced run builds its
	// deployment: set-up is short against the machine's noise, so
	// setup_s is the median of several complete set-ups; the last
	// deployment is the one measured.
	setupRepeats int
	// The traced replay: queries per boundary, pump rounds, storage
	// records.
	queries, rounds, records int
}

func fullSizes(seconds float64) sizes {
	return sizes{seconds: seconds, setupRepeats: 9, queries: 2000, rounds: 200, records: 2000}
}

// smokeSizes is the -short run: every phase about half a second. Its
// numbers are not comparable with anything.
var smokeSizes = sizes{seconds: 1.5, setupRepeats: 1, queries: 200, rounds: 20, records: 200}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Env      env     `json:"env"`

	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the sample count behind each percentile metric, and the
	// percentile it really is when too few samples lay beyond a p99.
	Samples map[string]string `json:"samples"`
	// NoReading names the latency metrics whose open-loop step did not
	// pass or had a late generator, with the reason. Their value in
	// Metrics is what the step measured, kept for the record; it is not a
	// reading of the system at that rate.
	NoReading map[string]string `json:"no_reading,omitempty"`

	SetupS      []float64      `json:"setup_s,omitempty"` // every set-up of the run, in order
	Windows     []closedWindow `json:"closed_windows,omitempty"`
	RoundLagP50 []float64      `json:"round_lag_p50_us,omitempty"`
	RoundLagMax []float64      `json:"round_lag_max_us,omitempty"`
	AdvanceUS   []float64      `json:"advance_us,omitempty"`
	Steps       []stepSummary  `json:"open_steps,omitempty"`

	GateChecked    int      `json:"gate_checked"`
	GateMismatches []string `json:"gate_mismatches,omitempty"`

	text []string // the human-readable report, in order
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) printf(format string, args ...any) {
	r.text = append(r.text, fmt.Sprintf(format, args...))
}

func newResult(w *workload, seed int64, seconds float64, traced bool) *result {
	return &result{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Env: stampEnv(),
		Metrics: map[string]metric{}, Samples: map[string]string{}, NoReading: map[string]string{},
	}
}

// deploy runs set-up repeats times and returns the last deployment with
// every set-up's time.
func deploy(ctx context.Context, w *workload, gen *generator, repeats int) (*deployment, []float64, error) {
	var times []float64
	var d *deployment
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.close()
		}
		dataDir := ""
		if w.durable {
			dataDir = filepath.Join(outDir, fmt.Sprintf("data-%s-%d-%d", w.name, os.Getpid(), i))
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, nil, err
			}
			if err := prepopulate(dataDir); err != nil {
				return nil, nil, fmt.Errorf("prepopulate %s: %w", dataDir, err)
			}
		}
		start := time.Now()
		var err error
		d, err = setup(ctx, w, gen, dataDir, true)
		if err != nil {
			if dataDir != "" {
				os.RemoveAll(dataDir)
			}
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, times, nil
}

// runUntraced is one workload's measured run with tracing off: set-up,
// warm, closed loop, open-loop ladder.
func runUntraced(ctx context.Context, w *workload, seed int64, sz sizes) (*result, error) {
	res := newResult(w, seed, sz.seconds, false)
	gen := newGenerator(seed, w.shapes, w.mix)
	d, setups, err := deploy(ctx, w, gen, sz.setupRepeats)
	if err != nil {
		return nil, err
	}
	defer d.close()
	res.SetupS = setups
	res.set("setup_s", median(setups), "s")
	res.Samples["setup_s"] = fmt.Sprintf("median of %d complete set-ups", sz.setupRepeats)
	if lr := measureLoad(ctx, res, "", w, gen, d, seed, planFor(sz.seconds)); lr.err != nil {
		return nil, lr.err
	}
	return res, nil
}

// measureLoad runs the load phases against d and files the end-to-end
// readings in res, each name prefixed (the traced run files them under
// "load."). It also settles the run's failure accounting.
func measureLoad(ctx context.Context, res *result, prefix string, w *workload, gen *generator, d *deployment, seed int64, p plan) *loadRun {
	res.GateChecked, res.GateMismatches = d.gate.checked, d.gate.mismatches
	r := &loadRun{w: w, gen: gen, d: d, seed: seed}
	// Start from a collected heap: what the set-ups and the gate left
	// behind is not the load's to answer for in heap_peak_mb.
	runtime.GC()
	r.startBackground()
	windows := r.closedLoop(ctx, p)
	r.steps = r.openLoop(ctx, p)
	r.stopBackground()
	if r.pumpErr != nil {
		r.err = fmt.Errorf("pump: %w", r.pumpErr)
		return r
	}
	// Stop the subscribers before reading what they collected.
	d.subCtx()
	var delivered int64
	byRound := map[int64][]float64{} // round start -> its events' lags, us
	for _, s := range d.subs {
		s.stream.Close()
		s.wg.Wait()
		for _, l := range s.lags {
			if l.roundStart >= r.measureFrom {
				byRound[l.roundStart] = append(byRound[l.roundStart], float64(l.lagNs)/1e3)
			}
		}
		delivered += int64(len(s.lags))
		r.dropped += int64(s.stream.Dropped())
		if s.err != nil {
			r.dropped++
			res.printf("subscriber failed: %v", s.err)
		}
	}
	set := func(name string, v float64, unit, samples string) {
		res.set(prefix+name, v, unit)
		if samples != "" {
			res.Samples[prefix+name] = samples
		}
	}

	// Closed loop.
	col := func(f func(closedWindow) float64) []float64 {
		v := make([]float64, len(windows))
		for i, cw := range windows {
			v[i] = f(cw)
		}
		return v
	}
	nWin := fmt.Sprintf("median of %d windows", len(windows))
	set("throughput_qps", median(col(func(c closedWindow) float64 { return c.QPS })), "1/s", nWin)
	set("cpu_us_per_query", median(col(func(c closedWindow) float64 { return c.CPUUS })), "us", nWin)
	// The two counts are taken over the whole closed phase: a window holds
	// zero, one or two pump rounds, so a median of windows flips between
	// those modes, while the phase as a whole holds a dozen. Rates and
	// times stay medians of windows, which one noisy stretch cannot move.
	var queries float64
	for _, cw := range windows {
		queries += float64(cw.Done)
	}
	perQuery := func(f func(closedWindow) float64) float64 {
		sum := 0.0
		for _, cw := range windows {
			sum += f(cw) * float64(cw.Done)
		}
		return sum / max(queries, 1)
	}
	whole := fmt.Sprintf("whole closed phase, n=%.0f queries", queries)
	set("allocs_per_query", perQuery(func(c closedWindow) float64 { return c.Allocs }), "1", whole)
	set("bytes_per_query", perQuery(func(c closedWindow) float64 { return c.Bytes }), "B", whole)
	set("heap_peak_mb", float64(r.heapPeak)/(1<<20), "MB", "")

	// Open loop. The highest passing rate is that of the last step of the
	// ladder's leading run of passes.
	maxRate := 0.0
	for _, st := range r.steps {
		if !st.passed {
			break
		}
		maxRate = st.rate
	}
	set("max_rate_qps", maxRate, "1/s", "")
	// A step that failed, or whose generator ran late, measured its own
	// collapse or the generator, not the system at that rate: its number
	// is kept for the record and marked as no reading.
	lat := func(name string, st *stepResult, wantTail bool) {
		p50s, tails, pct, perWindow := st.windows()
		v := median(p50s)
		if wantTail {
			v = median(tails)
		}
		set(name, v, "us", fmt.Sprintf("median of %d windows, n>=%d per window, %d in the step, tail is p%.4g", subWindows, perWindow, len(st.samples), pct))
		if !st.passed {
			res.NoReading[prefix+name] = fmt.Sprintf("the %.2fx step did not pass: %s", st.mult, st.why)
		}
	}
	stepOK := func(name string, st *stepResult) {
		ok := 0.0
		if st.passed {
			ok = 1
		}
		set(name, ok, "count", "")
	}
	mid, high := &r.steps[midStep], &r.steps[highStep]
	lat("lat_p50_us", mid, false)
	lat("lat_p99_us", mid, true)
	lat("lat_high_p99_us", high, true)
	stepOK("mid_step_ok", mid)
	stepOK("high_step_ok", high)
	set("gen_late_p99_us", mid.genLateP99.value, "us", fmt.Sprintf("n=%d, tail is p%.4g", mid.genLateP99.n, mid.genLateP99.pct))

	// Event lag: per pump round, then across rounds.
	var roundP50, all []float64
	for _, lags := range byRound {
		roundP50 = append(roundP50, percentile(sortedCopy(lags), 50))
		all = append(all, lags...)
	}
	sort.Float64s(all)
	lagTail := tailOf(all, 99)
	set("event_lag_p50_us", median(roundP50), "us", fmt.Sprintf("median of %d rounds' medians, n=%d events", len(roundP50), len(all)))
	set("event_lag_p99_us", lagTail.value, "us", fmt.Sprintf("n=%d, tail is p%.4g", lagTail.n, lagTail.pct))

	// Failure accounting, whole run: every query sent (warm included),
	// every event, every write, every gate check.
	ut, wt := sumCounters(r.users), sumCounters(r.workers)
	r.hits, r.misses = ut.hits+wt.hits, ut.misses+wt.misses
	res.Attempted = ut.done + ut.failed + wt.done + wt.failed + delivered + r.dropped + r.writes + int64(d.gate.checked)
	res.Failed = ut.failed + wt.failed + r.dropped + r.writeErr + int64(len(d.gate.mismatches))
	set("fail_share", float64(res.Failed)/float64(res.Attempted), "ratio", "")
	res.Correct = res.Failed == 0

	res.Windows = windows
	for i := range r.steps {
		res.Steps = append(res.Steps, r.steps[i].summary())
	}

	// The report.
	res.printf("gate: %d distinct queries, remote answer against the grids' own, %d mismatches", d.gate.checked, len(d.gate.mismatches))
	for i, m := range d.gate.mismatches {
		if i == 5 {
			res.printf("  ... %d more", len(d.gate.mismatches)-5)
			break
		}
		res.printf("  MISMATCH %s", m)
	}
	res.printf("closed loop: %d users on %d loopback connections, zero think, %v warm then %d windows of %v; CPU and allocations include the in-process generator and client",
		len(d.clients), len(d.clients), p.warm, p.windows, p.window)
	for i, cw := range windows {
		res.printf("  window %2d: %8.0f q/s  %6.1f cpu-us/q  %7.1f allocs/q  %8.0f B/q  n=%d", i, cw.QPS, cw.CPUUS, cw.Allocs, cw.Bytes, cw.Done)
	}
	res.printf("open loop: Poisson arrivals on the same connections (<= %d in flight each), timed from due time; base %.0f q/s, limit %.0f us",
		maxInFlight, w.baseQPS, limitUS)
	for _, st := range r.steps {
		verdict := "pass"
		if !st.passed {
			verdict = "FAIL " + st.why
		}
		res.printf("  %.2fx %6.0f q/s for %4.1fs: p50 %7.0f us  p%.4g %8.0f us (n=%d)  gen_late_p50_us %4.0f  gen_late_p99_us %5.0f (n=%d)  backlog %d  admission queued %d shed %d  %s",
			st.mult, st.rate, st.dur.Seconds(), st.p50, st.p99.pct, st.p99.value, st.p99.n,
			st.genLateP50, st.genLateP99.value, st.genLateP99.n, st.backlogEnd, st.queued, st.shed, verdict)
	}
	if r.hits+r.misses > 0 {
		res.printf("cache: %.1f%% hits (%d hits, %d misses)", 100*float64(r.hits)/float64(r.hits+r.misses), r.hits, r.misses)
	}
	res.printf("pump: %d rounds, one per %d answered queries (%v at base_qps), Advance p50 %.0f us; events: %d delivered, %d dropped; writes: %d (%d failed)",
		len(r.advance), r.pumpEvery, w.pumpEvery, percentile(sortedCopy(nsToUS(r.advance)), 50), delivered, r.dropped, r.writes, r.writeErr)
	return r
}
