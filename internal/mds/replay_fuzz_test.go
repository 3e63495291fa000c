package mds

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/allocmeter"
	"repro/internal/binenc"
	"repro/internal/storage"
)

// FuzzGIISReplay feeds arbitrary bytes to the two decoders that read what
// a data directory holds — applyRecord (one WAL record) and restoreState
// (a snapshot). Neither may panic; neither may allocate or loop out of
// proportion to the input (a snapshot whose count is 1<<62 is "corrupt
// snapshot", not a makeslice or a loop that outruns the bytes); a state
// either one accepts survives a snapshot round trip. The same bytes then
// script a run of real registrations, renewals and lapses on a durable
// GIIS, and the records and snapshots its encoders logged must replay to
// the registration table that logged them.
func FuzzGIISReplay(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		budget := uint64(256*len(data) + 64<<10)
		for _, dec := range []struct {
			name string
			load func(*GIIS, []byte) error
		}{
			{"record", (*GIIS).applyRecord},
			{"snapshot", (*GIIS).restoreState},
		} {
			var g *GIIS
			var err error
			if n, ok := allocmeter.Bytes(budget, func() { g = NewGIIS("fuzz", 1e12, 1e12) }, func() { err = dec.load(g, data) }); !ok {
				t.Fatalf("%s: loading %d bytes allocated %d", dec.name, len(data), n)
			}
			if err != nil {
				continue
			}
			again := NewGIIS("fuzz", 1e12, 1e12)
			if err := again.restoreState(g.encodeState()); err != nil {
				t.Fatalf("%s: accepted state does not restore from its own snapshot: %v", dec.name, err)
			}
			if got, want := dumpRegistrations(again), dumpRegistrations(g); got != want {
				t.Fatalf("%s: snapshot round trip\n got: %s\nwant: %s", dec.name, got, want)
			}
		}

		// The bytes as a script: register or renew one of eight sources,
		// or count the live ones, at a clock that jumps by the next byte —
		// so registrations lapse — snapshotting every fourth record.
		src := NewGIIS("leaf", 1e12, 1e12) // a source with nothing to pull
		st := storage.NewMem()
		live, err := OpenGIIS("fuzz", 1e12, 100, st, 4)
		if err != nil {
			t.Fatal(err)
		}
		d := binenc.NewDec(data)
		now := 0.0
		for d.Len() > 0 && d.Err() == nil {
			op := d.Byte()
			now += float64(d.Byte())
			if op%4 == 3 {
				live.NumRegistered(now)
			} else if _, err := live.Register(fmt.Sprintf("g%d", op%8), src, now); err != nil {
				t.Fatal(err)
			}
		}
		live.NumRegistered(now)
		if err := live.Err(); err != nil {
			t.Fatal(err)
		}
		replayed, err := OpenGIIS("fuzz", 1e12, 100, st.Reopen(), 4)
		if err != nil {
			t.Fatalf("replaying what the encoders logged: %v", err)
		}
		if got, want := dumpRegistrations(replayed), dumpRegistrations(live); got != want {
			t.Fatalf("replayed registrations\n got: %s\nwant: %s", got, want)
		}
	})
}

// TestGIISReplayRejectsCorrupt pins what the fuzz target can only bound:
// damaged bytes are an error naming the record kind, never a partial
// apply that goes unreported, and a count no input could back is refused
// before a single registration is read.
func TestGIISReplayRejectsCorrupt(t *testing.T) {
	rec := encodeUpsertRec("gris-0", 1e12)
	good := NewGIIS("good", 1e12, 1e12)
	if err := good.applyRecord(rec); err != nil {
		t.Fatal(err)
	}
	snap := good.encodeState()
	huge := append(binenc.AppendUvarint(nil, 1<<62), snap[1:]...)
	for name, tc := range map[string]struct {
		load func(*GIIS, []byte) error
		data []byte
		want string
	}{
		"record cut short":       {(*GIIS).applyRecord, rec[:len(rec)-3], "corrupt upsert record"},
		"record trailing byte":   {(*GIIS).applyRecord, append(rec[:len(rec):len(rec)], 0), "corrupt upsert record"},
		"record unknown op":      {(*GIIS).applyRecord, []byte{0x07}, "unknown giis record op"},
		"snapshot huge count":    {(*GIIS).restoreState, huge, "corrupt giis snapshot"},
		"snapshot trailing byte": {(*GIIS).restoreState, append(snap[:len(snap):len(snap)], 0), "corrupt giis snapshot"},
	} {
		g := NewGIIS("fuzz", 1e12, 1e12)
		err := tc.load(g, tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
		if name == "snapshot huge count" && dumpRegistrations(g) != "" {
			t.Errorf("%s: restored %q from a refused count", name, dumpRegistrations(g))
		}
	}
}
