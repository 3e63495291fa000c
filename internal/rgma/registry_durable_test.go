package rgma

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gma"
	"repro/internal/storage"
)

// errKilled is the injected fault standing in for kill -9 mid-write.
var errKilled = errors.New("injected crash")

// killWriter passes through the first limit bytes and then fails every
// write, tearing whatever WAL frame is in flight.
type killWriter struct {
	w       io.Writer
	limit   int
	written int
}

func (c *killWriter) Write(p []byte) (int, error) {
	if c.written >= c.limit {
		return 0, errKilled
	}
	n := c.limit - c.written
	if n > len(p) {
		n = len(p)
	}
	nw, err := c.w.Write(p[:n])
	c.written += nw
	if err != nil {
		return nw, err
	}
	if nw < len(p) {
		return nw, errKilled
	}
	return nw, nil
}

// regOp is one mutation in the differential churn: a register when ad
// is set, otherwise an unregister of id. Every op appends exactly one
// WAL record, so op index k is WAL record index k.
type regOp struct {
	ad  *gma.Advertisement
	ttl float64
	id  string
	now float64
}

func (o regOp) apply(t *testing.T, r *Registry) {
	t.Helper()
	if o.ad != nil {
		if err := r.RegisterProducer(*o.ad, o.now, o.ttl); err != nil && r.Err() == nil {
			t.Fatalf("register %q: %v", o.ad.ProducerID, err)
		}
		return
	}
	if !r.UnregisterProducer(o.id, o.now) && r.Err() == nil {
		t.Fatalf("unregister %q: producer was not registered", o.id)
	}
}

// churnOps builds a deterministic randomized register/unregister
// sequence where every unregister targets a currently live producer.
func churnOps(n int, rng *rand.Rand) []regOp {
	var ops []regOp
	var live []string
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			id := live[j]
			live = append(live[:j], live[j+1:]...)
			ops = append(ops, regOp{id: id, now: float64(i)})
			continue
		}
		id := fmt.Sprintf("prod-%d", i)
		live = append(live, id)
		ops = append(ops, regOp{
			ad: &gma.Advertisement{
				ProducerID: id,
				Address:    fmt.Sprintf("host%d:8080", rng.Intn(5)),
				TableName:  fmt.Sprintf("table%d", rng.Intn(4)),
				Predicate:  fmt.Sprintf("host = 'host%d'", rng.Intn(5)),
			},
			ttl: 1e12,
			now: float64(i),
		})
	}
	return ops
}

// dumpRegistry renders the full directory state — every table's
// advertisements in registration order — for equality comparison.
func dumpRegistry(t *testing.T, r *Registry, now float64) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "registered=%d\n", r.NumRegistered(now))
	for _, table := range r.Tables(now) {
		ads, _, err := r.LookupProducersStats(table, now)
		if err != nil {
			t.Fatalf("lookup %q: %v", table, err)
		}
		fmt.Fprintf(&b, "table %s:\n", table)
		for _, ad := range ads {
			fmt.Fprintf(&b, "  %s %s %q\n", ad.ProducerID, ad.Address, ad.Predicate)
		}
	}
	return b.String()
}

// TestRegistryDurableDifferential is the acceptance gate for the
// Registry: randomized register/unregister churn, a crash injected at
// every WAL record boundary (and mid-frame within every record), and
// the reopened filestore-backed registry compared against a volatile
// oracle that applied exactly the ops whose records survived.
func TestRegistryDurableDifferential(t *testing.T) {
	ops := churnOps(24, rand.New(rand.NewSource(7)))

	// Pass 1: clean run to learn each record's end offset in the WAL
	// byte stream (every op appends exactly one frame, one Write each).
	var ends []int
	total := 0
	{
		st, err := storage.OpenFile(t.TempDir(), storage.Options{WrapWAL: func(w io.Writer) io.Writer {
			return writerFunc(func(p []byte) (int, error) {
				total += len(p)
				ends = append(ends, total)
				return w.Write(p)
			})
		}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenRegistry("reg", st, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			op.apply(t, r)
		}
		if len(ends) != len(ops) {
			t.Fatalf("%d ops appended %d records, want 1:1", len(ops), len(ends))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Pass 2: crash at every record boundary and mid-frame.
	cuts := []int{0}
	for k, end := range ends {
		cuts = append(cuts, end) // boundary: records 0..k survive
		start := 0
		if k > 0 {
			start = ends[k-1]
		}
		cuts = append(cuts, start+(end-start)/2) // torn frame k
	}
	for _, cut := range cuts {
		survivors := 0
		for _, end := range ends {
			if end <= cut {
				survivors++
			}
		}

		dir := t.TempDir()
		st, err := storage.OpenFile(dir, storage.Options{WrapWAL: func(w io.Writer) io.Writer {
			return &killWriter{w: w, limit: cut}
		}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenRegistry("reg", st, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			op.apply(t, r)
			if r.Err() != nil {
				break // the process died mid-write; nothing runs after
			}
		}
		st.Close() // release the fd; the torn tail stays as the crash left it

		reopened, err := storage.OpenFile(dir, storage.Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		r2, err := OpenRegistry("reg", reopened, 0)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		oracle := NewRegistry("oracle")
		for _, op := range ops[:survivors] {
			op.apply(t, oracle)
		}
		if got, want := dumpRegistry(t, r2, 0), dumpRegistry(t, oracle, 0); got != want {
			t.Fatalf("cut %d (%d surviving records): recovered registry diverges from oracle\ngot:\n%s\nwant:\n%s",
				cut, survivors, got, want)
		}
		if err := r2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestRegistryMemStoreFileStoreEquivalence runs the same churn against
// a MemStore-backed and a FileStore-backed registry: identical answers
// throughout, and identical answers again after each is cleanly
// reopened — the storage engines are interchangeable under the same
// service.
func TestRegistryMemStoreFileStoreEquivalence(t *testing.T) {
	ops := churnOps(30, rand.New(rand.NewSource(11)))
	dir := t.TempDir()
	fst, err := storage.OpenFile(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMem()
	fr, err := OpenRegistry("file", fst, 5)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := OpenRegistry("mem", mem, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		op.apply(t, fr)
		op.apply(t, mr)
		if got, want := dumpRegistry(t, fr, 0), dumpRegistry(t, mr, 0); got != want {
			t.Fatalf("op %d: filestore registry diverges from memstore\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if err := fr.Close(); err != nil {
		t.Fatal(err)
	}

	fst2, err := storage.OpenFile(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fr2, err := OpenRegistry("file", fst2, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer fr2.Close()
	mr2, err := OpenRegistry("mem", mem.Reopen(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dumpRegistry(t, fr2, 0), dumpRegistry(t, mr2, 0); got != want {
		t.Fatalf("after clean reopen: filestore registry diverges from memstore\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryExpiryDurable pins that soft-state expiry is a logged
// mutation: advertisements dropped by a sweep stay dropped after a
// restart, even when the reopened registry is asked at an earlier
// clock (the paper's soft-state protocol must not resurrect producers
// that already lapsed).
func TestRegistryExpiryDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegistry("reg", st, 0)
	if err != nil {
		t.Fatal(err)
	}
	short := gma.Advertisement{ProducerID: "short", Address: "a:1", TableName: "siteinfo"}
	long := gma.Advertisement{ProducerID: "long", Address: "b:1", TableName: "siteinfo"}
	if err := r.RegisterProducer(short, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterProducer(long, 0, 1e12); err != nil {
		t.Fatal(err)
	}
	// A lookup at t=500 sweeps the lapsed advertisement — and logs it.
	ads, _, err := r.LookupProducersStats("siteinfo", 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(ads) != 1 || ads[0].ProducerID != "long" {
		t.Fatalf("lookup at 500 = %v, want only long", ads)
	}
	st.Close() // crash: no Close, no final snapshot

	reopened, err := storage.OpenFile(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OpenRegistry("reg", reopened, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ads, _, err = r2.LookupProducersStats("siteinfo", 0) // clock restarted below the lapse point
	if err != nil {
		t.Fatal(err)
	}
	if len(ads) != 1 || ads[0].ProducerID != "long" {
		t.Fatalf("recovered lookup = %v, want the lapsed producer to stay dropped", ads)
	}
}

// TestRegistrySnapshotCompaction pins the compaction loop: with a
// small cadence the store rotates generations, and a reopen after many
// snapshots still reproduces the oracle.
func TestRegistrySnapshotCompaction(t *testing.T) {
	ops := churnOps(40, rand.New(rand.NewSource(3)))
	dir := t.TempDir()
	st, err := storage.OpenFile(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegistry("reg", st, 4)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewRegistry("oracle")
	for _, op := range ops {
		op.apply(t, r)
		op.apply(t, oracle)
	}
	if g := st.Gen(); g < uint64(len(ops)/4) {
		t.Errorf("Gen = %d after %d ops at cadence 4, want >= %d", g, len(ops), len(ops)/4)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := storage.OpenFile(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap, recs := reopened.Recovered(); snap == nil || len(recs) != 0 {
		t.Errorf("clean close left snapshot=%v with %d wal records, want snapshot-only state", snap != nil, len(recs))
	}
	r2, err := OpenRegistry("reg", reopened, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got, want := dumpRegistry(t, r2, 0), dumpRegistry(t, oracle, 0); got != want {
		t.Fatalf("compacted+reopened registry diverges from oracle\ngot:\n%s\nwant:\n%s", got, want)
	}
}
