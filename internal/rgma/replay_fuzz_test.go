package rgma

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/allocmeter"
	"repro/internal/binenc"
	"repro/internal/gma"
	"repro/internal/storage"
)

// FuzzRegistryReplay feeds arbitrary bytes to the two decoders that read
// what a data directory holds — applyRecord (one WAL record) and
// restoreState (a snapshot). Neither may panic; neither may allocate or
// loop out of proportion to the input (a snapshot whose count is 1<<62
// is "corrupt snapshot", not a makeslice or a loop that outruns the
// bytes); a state either one accepts survives a snapshot round trip. The
// same bytes then script a run of real mutations on a durable registry,
// and the records and snapshots its encoders logged must replay to the
// state that logged them.
func FuzzRegistryReplay(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		budget := uint64(256*len(data) + 64<<10)
		for _, dec := range []struct {
			name string
			load func(*Registry, []byte) error
		}{
			{"record", (*Registry).applyRecord},
			{"snapshot", (*Registry).restoreState},
		} {
			var r *Registry
			var err error
			if n, ok := allocmeter.Bytes(budget, func() { r = NewRegistry("fuzz") }, func() { err = dec.load(r, data) }); !ok {
				t.Fatalf("%s: loading %d bytes allocated %d", dec.name, len(data), n)
			}
			if err != nil {
				continue
			}
			again := NewRegistry("fuzz")
			if err := again.restoreState(r.encodeState()); err != nil {
				t.Fatalf("%s: accepted state does not restore from its own snapshot: %v", dec.name, err)
			}
			if got, want := dumpRegistry(t, again, 0), dumpRegistry(t, r, 0); got != want {
				t.Fatalf("%s: snapshot round trip\n got: %s\nwant: %s", dec.name, got, want)
			}
		}

		// The bytes as a script: register / unregister / look up at an
		// advancing clock, snapshotting every fourth record.
		st := storage.NewMem()
		live, err := OpenRegistry("fuzz", st, 4)
		if err != nil {
			t.Fatal(err)
		}
		d := binenc.NewDec(data)
		now := 0.0
		for d.Len() > 0 && d.Err() == nil {
			now++
			switch op := d.Byte(); op % 4 {
			case 0, 1:
				ad := gma.Advertisement{
					ProducerID: fmt.Sprintf("p%d", d.Byte()%8),
					TableName:  fmt.Sprintf("t%d", d.Byte()%3),
					Address:    d.String(),
					Predicate:  d.String(),
				}
				if err := live.RegisterProducer(ad, now, float64(d.Byte())); err != nil {
					t.Fatal(err)
				}
			case 2:
				live.UnregisterProducer(fmt.Sprintf("p%d", d.Byte()%8), now)
			case 3:
				if _, _, err := live.LookupProducersStats("t0", now); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := dumpRegistry(t, live, now)
		if err := live.Err(); err != nil {
			t.Fatal(err)
		}
		replayed, err := OpenRegistry("fuzz", st.Reopen(), 4)
		if err != nil {
			t.Fatalf("replaying what the encoders logged: %v", err)
		}
		if got := dumpRegistry(t, replayed, now); got != want {
			t.Fatalf("replayed state\n got: %s\nwant: %s", got, want)
		}
	})
}

// TestRegistryReplayRejectsCorrupt pins what the fuzz target can only
// bound: damaged bytes are an error naming the record kind, never a
// partial apply that goes unreported, and a count no input could back is
// refused before a single row is read.
func TestRegistryReplayRejectsCorrupt(t *testing.T) {
	ad := gma.Advertisement{ProducerID: "p", Address: "a:1", TableName: "siteinfo", Predicate: "x"}
	rec := encodeRegisterRec(ad, 1e12)
	good := NewRegistry("good")
	if err := good.applyRecord(rec); err != nil {
		t.Fatal(err)
	}
	snap := good.encodeState()
	huge := append(binenc.AppendUvarint(nil, 1<<62), snap[1:]...)
	for name, tc := range map[string]struct {
		load func(*Registry, []byte) error
		data []byte
		want string
	}{
		"record cut short":       {(*Registry).applyRecord, rec[:len(rec)-3], "corrupt register record"},
		"record trailing byte":   {(*Registry).applyRecord, append(rec[:len(rec):len(rec)], 0), "corrupt register record"},
		"record unknown op":      {(*Registry).applyRecord, []byte{0x09}, "unknown registry record op"},
		"snapshot huge count":    {(*Registry).restoreState, huge, "corrupt registry snapshot"},
		"snapshot trailing byte": {(*Registry).restoreState, append(snap[:len(snap):len(snap)], 0), "corrupt registry snapshot"},
	} {
		r := NewRegistry("fuzz")
		err := tc.load(r, tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
		if name == "snapshot huge count" && r.NumRegistered(0) != 0 {
			t.Errorf("%s: %d rows restored from a refused count", name, r.NumRegistered(0))
		}
	}
}
