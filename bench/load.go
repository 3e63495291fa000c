package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	gridmon "repro"
)

// The load phases of one untraced run: warm, closed loop, open loop.
// Load is generated from this same process (GOMAXPROCS = nproc), so the
// CPU and allocation figures include the generator and the client half
// of every query; they still compare a parent with a change exactly,
// because both carry the same generator.

// plan is how a run's --seconds are divided.
type plan struct {
	warm    time.Duration
	window  time.Duration // one closed-loop window
	windows int
	open    time.Duration // the whole ladder
}

const closedWindows = 12

func planFor(seconds float64) plan {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return plan{warm: d(0.08), window: d(0.50 / closedWindows), windows: closedWindows, open: d(0.42)}
}

// counters is one load goroutine's tally; padded so neighbours do not
// share a cache line.
type counters struct {
	done, failed, hits, misses atomic.Int64
	_                          [32]byte
}

type totals struct{ done, failed, hits, misses int64 }

func sumCounters(cs []counters) totals {
	var t totals
	for i := range cs {
		t.done += cs[i].done.Load()
		t.failed += cs[i].failed.Load()
		t.hits += cs[i].hits.Load()
		t.misses += cs[i].misses.Load()
	}
	return t
}

// loadRun is the state shared by a run's phases.
type loadRun struct {
	w    *workload
	gen  *generator
	d    *deployment
	seed int64

	users   []counters // closed-loop users
	workers []counters // open-loop workers

	// The pump and the writer are paced by the load, not by the wall
	// clock: one round per pumpEvery answered queries and one renewal per
	// writeEvery, which are the workload's cadences at base_qps. A slow
	// machine then sees the same invalidations, events and writes per
	// query as a fast one, so per-query counts repeat.
	answered   atomic.Int64
	pumpEvery  int64
	pumpDue    chan struct{}
	writeEvery int64 // 0: the workload has no writer
	writeDue   chan struct{}

	bg       sync.WaitGroup // pump, writer, heap sampler
	stopBG   chan struct{}
	advance  []int64 // per-round Advance duration, ns (pump goroutine)
	pumpErr  error
	heapPeak uint64
	writes   int64
	writeErr int64

	measureFrom int64 // UnixNano the warm period ended

	// Filled in by measureLoad.
	steps        []stepResult
	hits, misses int64
	dropped      int64 // events lost to a lagging stream, or a failed subscriber
	err          error
}

// signal posts to a background goroutine's channel without ever
// blocking the load: a goroutine that has fallen its whole buffer behind
// simply skips a beat.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// account checks one answer and tallies it. Every pumpEvery-th answer
// of the run, whoever receives it, releases one pump round, and every
// writeEvery-th one soft-state renewal.
func (r *loadRun) account(c *counters, id uint32, rs *gridmon.ResultSet, err error) bool {
	n := r.answered.Add(1)
	if n%r.pumpEvery == 0 {
		signal(r.pumpDue)
	}
	if r.writeEvery > 0 && n%r.writeEvery == 0 {
		signal(r.writeDue)
	}
	if err != nil || !r.d.gate.checkAnswer(id, rs) {
		c.failed.Add(1)
		return false
	}
	c.done.Add(1)
	c.hits.Add(int64(rs.Work.CacheHits))
	c.misses.Add(int64(rs.Work.CacheMisses))
	return true
}

// startBackground starts the Advance pump, the heap sampler and, for a
// workload with writes, the soft-state renewal writer.
func (r *loadRun) startBackground() {
	r.stopBG = make(chan struct{})
	r.pumpEvery = max(1, int64(r.w.pumpEvery.Seconds()*r.w.baseQPS))
	r.pumpDue = make(chan struct{}, 1)
	if r.w.writesPerSec > 0 {
		r.writeEvery = max(1, int64(r.w.baseQPS)/int64(r.w.writesPerSec))
		r.writeDue = make(chan struct{}, 64) // renewals may bunch up behind a WAL compaction
	}
	r.bg.Add(2)
	go func() {
		defer r.bg.Done()
		for round := 1; round < maxRounds; round++ {
			select {
			case <-r.stopBG:
				return
			case <-r.pumpDue:
			}
			took, err := r.d.advance(round)
			if err != nil {
				r.pumpErr = err
				return
			}
			r.advance = append(r.advance, int64(took))
		}
	}()
	go func() {
		defer r.bg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > r.heapPeak {
				r.heapPeak = ms.HeapInuse
			}
			select {
			case <-r.stopBG:
				return
			case <-tick.C:
			}
		}
	}()
	if r.w.writesPerSec > 0 {
		reg, _, _ := r.d.grids[0].RGMA()
		r.bg.Add(1)
		go func() {
			defer r.bg.Done()
			for i := 0; ; i++ {
				select {
				case <-r.stopBG:
					return
				case <-r.writeDue:
				}
				// Nine renewals, then one departure; the departed
				// producer re-registers on the next lap.
				ad := churnAd(i % walRecords)
				now := r.d.clock.now()
				r.writes++
				if i%10 == 9 {
					reg.UnregisterProducer(ad.ProducerID, now)
				} else if err := reg.RegisterProducer(ad, now, 1e12); err != nil {
					r.writeErr++
				}
			}
		}()
	}
}

func (r *loadRun) stopBackground() {
	close(r.stopBG)
	r.bg.Wait()
	if r.w.writesPerSec > 0 {
		reg, _, _ := r.d.grids[0].RGMA()
		if reg.Err() != nil {
			r.writeErr++
		}
	}
}

// mark is the process's resource use at a window boundary.
type mark struct {
	t       time.Time
	done    int64
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *loadRun) mark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t := sumCounters(r.users)
	return mark{t: time.Now(), done: t.done, cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// closedWindow is one closed-loop window's figures.
type closedWindow struct {
	QPS    float64 `json:"qps"`
	CPUUS  float64 `json:"cpu_us"`
	Allocs float64 `json:"allocs"`
	Bytes  float64 `json:"bytes"`
	Done   int64   `json:"done"`
}

// closedLoop runs nproc users with zero think time, each on its own
// connection: a warm period that is discarded, then the measured
// windows.
func (r *loadRun) closedLoop(ctx context.Context, p plan) []closedWindow {
	r.users = make([]counters, len(r.d.clients))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, c := range r.d.clients {
		wg.Add(1)
		go func(i int, c *gridmon.RemoteGrid) {
			defer wg.Done()
			pos := i * (seqLen / len(r.d.clients))
			for !stop.Load() {
				id := r.gen.seq[pos&(seqLen-1)]
				pos++
				rs, err := c.Query(ctx, r.gen.queries[id].q)
				r.account(&r.users[i], id, rs, err)
			}
		}(i, c)
	}
	time.Sleep(p.warm)
	r.measureFrom = time.Now().UnixNano()
	marks := []mark{r.mark()}
	for i := 0; i < p.windows; i++ {
		time.Sleep(p.window)
		marks = append(marks, r.mark())
	}
	stop.Store(true)
	wg.Wait()

	out := make([]closedWindow, p.windows)
	for i := range out {
		out[i] = windowBetween(marks[i], marks[i+1])
	}
	return out
}

// windowBetween is the per-query cost and rate between two marks.
func windowBetween(a, b mark) closedWindow {
	n := float64(b.done - a.done)
	if n < 1 {
		n = 1
	}
	return closedWindow{
		QPS:    float64(b.done-a.done) / b.t.Sub(a.t).Seconds(),
		CPUUS:  float64(b.cpu-a.cpu) / 1e3 / n,
		Allocs: float64(b.mallocs-a.mallocs) / n,
		Bytes:  float64(b.bytes-a.bytes) / n,
		Done:   b.done - a.done,
	}
}

// openReq is one scheduled request of the open loop.
type openReq struct {
	id  uint32
	due int64 // UnixNano the request was due to be sent
}

// sample is one completed open-loop request.
type sample struct {
	due   int64 // ns from the step's start
	latNs int64 // completion minus due time
}

// stepResult is one rung of the ladder.
type stepResult struct {
	mult, rate float64
	dur        time.Duration

	sent, failed int
	samples      []sample
	p50          float64 // µs, successful requests
	p99          tail

	genLateP50 float64 // µs
	genLateP99 tail
	backlogEnd int // requests due but not yet picked up when the schedule ended

	valid  bool // the generator kept up
	passed bool
	why    string // first reason it failed

	queued, shed int64 // admission transits over the step
}

// dispatchTick is the grid the open loop's dispatcher wakes on. The
// dispatcher is an ordinary goroutine asleep on a runtime timer. A
// thread of its own in nanosleep(2), woken once per request, kept one of
// the two Ps busy handing itself over and halved what the open loop
// could carry; a timer costs the serving goroutines nothing. A request
// is sent up to a tick after it was due, which its latency (taken from
// the due time) includes and gen_late_* reports.
const dispatchTick = 250 * time.Microsecond

// subWindows is how many slices a mid or high step's samples are cut
// into; the reported latency is the median of the slices' readings,
// which one noisy stretch of a shared box cannot move.
const subWindows = 10

// windows cuts the step's samples into subWindows slices by due time
// and returns each slice's p50 and tail reading, with the percentile
// the tail really is and the smallest slice's sample count.
func (s *stepResult) windows() (p50s, tails []float64, pct float64, perWindow int) {
	width := int64(s.dur) / subWindows
	buckets := make([][]float64, subWindows)
	for _, sm := range s.samples {
		b := int(sm.due / width)
		if b >= subWindows {
			b = subWindows - 1
		}
		if b < 0 {
			b = 0
		}
		buckets[b] = append(buckets[b], float64(sm.latNs)/1e3)
	}
	perWindow = len(s.samples)
	for _, b := range buckets {
		sort.Float64s(b)
		t := tailOf(b, 99)
		p50s = append(p50s, percentile(b, 50))
		tails = append(tails, t.value)
		pct = t.pct
		if len(b) < perWindow {
			perWindow = len(b)
		}
	}
	return p50s, tails, pct, perWindow
}

// openLoop offers Poisson arrivals at each ladder rate in turn. Each
// request is timed from the instant it was due, so a stall is charged
// to every request it delays; requests ride the users' connections,
// at most maxInFlight in flight on each.
func (r *loadRun) openLoop(ctx context.Context, p plan) []stepResult {
	nWorkers := len(r.d.clients) * maxInFlight
	r.workers = make([]counters, nWorkers)
	// The buffer is the open loop's unbounded queue made finite: large
	// enough that only a step far past capacity can fill it.
	reqs := make(chan openReq, 1<<16)
	// Each worker owns its slot while a request is in flight; the
	// dispatcher reads and resets the slots only after it has seen
	// inFlight reach zero, and the next request reaches a worker through
	// the channel, so the two never touch a slot at the same time.
	type slot struct {
		samples []sample
		failed  int
	}
	slots := make([]slot, nWorkers)
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
		discard  atomic.Bool
		stepBase atomic.Int64
	)
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.d.clients[i%len(r.d.clients)]
			for req := range reqs {
				if !discard.Load() {
					var rs *gridmon.ResultSet
					var err error
					lat := sinceDue(req.due, wallNano, func() { rs, err = c.Query(ctx, r.gen.queries[req.id].q) })
					if r.account(&r.workers[i], req.id, rs, err) {
						slots[i].samples = append(slots[i].samples, sample{due: req.due - stepBase.Load(), latNs: lat})
					} else {
						slots[i].failed++
					}
				}
				inFlight.Add(-1)
			}
		}(i)
	}

	var steps []stepResult
	pos := seqLen / 2
	for si, mult := range ladder {
		rate := mult * r.w.baseQPS
		dur := time.Duration(ladderTime[si] * float64(p.open))
		st := stepResult{mult: mult, rate: rate, dur: dur}
		sched := poissonSchedule(r.seed, si, rate, int(rate*dur.Seconds()))
		before := r.d.stats()
		start := time.Now()
		stepBase.Store(start.UnixNano())
		late := make([]float64, 0, len(sched))
		for i := 0; i < len(sched); {
			// Wake on the tick grid at or after the next due time and send
			// everything that has fallen due: at most one wake-up per
			// dispatchTick however high the rate.
			wake := (sched[i] + int64(dispatchTick) - 1) / int64(dispatchTick) * int64(dispatchTick)
			time.Sleep(time.Until(start.Add(time.Duration(wake))))
			now := time.Now()
			for ; i < len(sched); i++ {
				due := start.Add(time.Duration(sched[i]))
				if due.After(now) {
					break
				}
				late = append(late, float64(now.Sub(due))/1e3)
				inFlight.Add(1)
				reqs <- openReq{id: r.gen.seq[pos&(seqLen-1)], due: due.UnixNano()}
				pos++
				st.sent++
			}
		}
		st.backlogEnd = len(reqs)
		// Let the step's stragglers finish; a step that cannot drain in
		// a second is past capacity, and what is left is discarded.
		deadline := time.Now().Add(time.Second)
		for inFlight.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if inFlight.Load() > 0 {
			discard.Store(true)
			for inFlight.Load() > 0 {
				time.Sleep(time.Millisecond)
			}
			discard.Store(false)
		}
		after := r.d.stats()
		st.queued, st.shed = after.Queued-before.Queued, after.Shed-before.Shed

		for i := range slots {
			st.samples = append(st.samples, slots[i].samples...)
			st.failed += slots[i].failed
			slots[i] = slot{samples: slots[i].samples[:0]}
		}
		st.finish(late)
		steps = append(steps, st)
		// The steps up to "high" feed named metrics and always run (a
		// failed one has drained or been discarded by now); past them the
		// ladder stops at the first step that does not pass.
		if !st.passed && si >= highStep {
			break
		}
	}
	close(reqs)
	wg.Wait()
	return steps
}

func wallNano() int64 { return time.Now().UnixNano() }

// sinceDue runs one request and returns how long after its due time it
// completed, by clock. Timing from the due time, not from the send,
// charges a stall to every request queued behind it.
func sinceDue(due int64, clock func() int64, do func()) int64 {
	do()
	return clock() - due
}

// finish turns a step's raw samples into its readings and verdict.
func (s *stepResult) finish(late []float64) {
	lat := make([]float64, len(s.samples))
	for i, sm := range s.samples {
		lat[i] = float64(sm.latNs) / 1e3
	}
	sort.Float64s(lat)
	s.p50 = percentile(lat, 50)
	s.p99 = tailOf(lat, 99)
	sort.Float64s(late)
	s.genLateP50 = percentile(late, 50)
	s.genLateP99 = tailOf(late, 99)

	s.valid = s.genLateP99.value <= 0.10*limitUS
	switch {
	case !s.valid:
		s.why = fmt.Sprintf("invalid: generator late p%.4g %.0fus > 10%% of limit", s.genLateP99.pct, s.genLateP99.value)
	case float64(s.failed) > 0.001*float64(s.sent):
		s.why = fmt.Sprintf("%d of %d failed", s.failed, s.sent)
	case len(s.samples)+s.failed < s.sent:
		s.why = fmt.Sprintf("backlog: %d of %d not served within 1s of the step's end", s.sent-len(s.samples)-s.failed, s.sent)
	case s.backlogEnd > 8*maxInFlight:
		s.why = fmt.Sprintf("backlog: %d requests waiting at the step's end", s.backlogEnd)
	case s.p99.value > limitUS:
		s.why = fmt.Sprintf("p%.4g %.0fus > limit %.0fus", s.p99.pct, s.p99.value, limitUS)
	default:
		s.passed = true
	}
}

// stats sums the serving counters of every grid in the deployment.
func (d *deployment) stats() gridmon.Stats {
	var sum gridmon.Stats
	for _, g := range d.grids {
		st := g.Stats()
		sum.Queries += st.Queries
		sum.Errors += st.Errors
		sum.Shed += st.Shed
		sum.Queued += st.Queued
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
	}
	return sum
}

// stepSummary is a step's readings as the result file keeps them.
type stepSummary struct {
	Mult       float64   `json:"mult"`
	Rate       float64   `json:"rate_qps"`
	Seconds    float64   `json:"seconds"`
	Sent       int       `json:"sent"`
	Failed     int       `json:"failed"`
	Samples    int       `json:"samples"`
	P50        float64   `json:"p50_us"`
	TailPct    float64   `json:"tail_pct"`
	Tail       float64   `json:"tail_us"`
	WinP50     []float64 `json:"window_p50_us"`
	WinTail    []float64 `json:"window_tail_us"`
	GenLateP50 float64   `json:"gen_late_p50_us"`
	GenLateP99 float64   `json:"gen_late_p99_us"`
	BacklogEnd int       `json:"backlog_end"`
	Queued     int64     `json:"admit_queued"`
	Shed       int64     `json:"admit_shed"`
	Valid      bool      `json:"valid"`
	Passed     bool      `json:"passed"`
	Why        string    `json:"why,omitempty"`
}

func (s *stepResult) summary() stepSummary {
	p50, p99, _, _ := s.windows()
	return stepSummary{
		Mult: s.mult, Rate: s.rate, Seconds: s.dur.Seconds(), Sent: s.sent, Failed: s.failed, Samples: len(s.samples),
		P50: s.p50, TailPct: s.p99.pct, Tail: s.p99.value, WinP50: p50, WinTail: p99,
		GenLateP50: s.genLateP50, GenLateP99: s.genLateP99.value, BacklogEnd: s.backlogEnd,
		Queued: s.queued, Shed: s.shed, Valid: s.valid, Passed: s.passed, Why: s.why,
	}
}
