package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binenc"
)

// TestCodecRoundTrip: what Encoder writes is the shared binenc form.
func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.Byte(7)
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Float64(3.5)
	e.String("")
	e.String("lucky3:8080")
	d := binenc.NewDec(e.Bytes())
	if got := d.Byte(); got != 7 {
		t.Errorf("Byte = %d, want 7", got)
	}
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d, want %d", got, uint64(1)<<40)
	}
	if got := d.Float64(); got != 3.5 {
		t.Errorf("Float64 = %v, want 3.5", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := d.String(); got != "lucky3:8080" {
		t.Errorf("String = %q, want lucky3:8080", got)
	}
	if !d.Done() {
		t.Errorf("Done = false after full decode, err=%v", d.Err())
	}
}

func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		size := (i * 37) % 200
		if i == 0 {
			size = 0
		}
		rec := make([]byte, size)
		for j := range rec {
			rec[j] = byte(i + j)
		}
		recs[i] = rec
	}
	return recs
}

func TestFileStoreAppendReopen(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(17)

	st, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap, got := st.Recovered(); snap != nil || len(got) != 0 {
		t.Fatalf("fresh store Recovered = (%v, %d records), want empty", snap, len(got))
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	st2, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, got := st2.Recovered()
	if snap != nil {
		t.Errorf("Recovered snapshot = %v, want nil (never saved)", snap)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d = %v, want %v", i, got[i], recs[i])
		}
	}
}

func TestFileStoreSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte("full state after three records")
	if err := st.SaveSnapshot(state); err != nil {
		t.Fatal(err)
	}
	if g := st.Gen(); g != 1 {
		t.Errorf("Gen after snapshot = %d, want 1", g)
	}
	names := dirNames(t, dir)
	want := []string{snapName(1), walName(1)}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("dir after rotation = %v, want %v", names, want)
	}
	if err := st.Append([]byte("post-snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, recs := st2.Recovered()
	if !bytes.Equal(snap, state) {
		t.Errorf("recovered snapshot = %q, want %q", snap, state)
	}
	if len(recs) != 1 || string(recs[0]) != "post-snapshot" {
		t.Errorf("recovered records = %q, want [post-snapshot]", recs)
	}
	if g := st2.Gen(); g != 1 {
		t.Errorf("reopened Gen = %d, want 1", g)
	}
	if err := st2.SaveSnapshot([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if g := st2.Gen(); g != 2 {
		t.Errorf("Gen after second snapshot = %d, want 2", g)
	}
}

func TestOpenCleansStaleFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]byte("live")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot([]byte("gen1 state")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Plant debris from interrupted compactions: a stale older
	// generation and a torn temporary snapshot.
	for _, name := range []string{snapName(0), walName(0), snapName(2) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if snap, _ := st2.Recovered(); string(snap) != "gen1 state" {
		t.Errorf("recovered snapshot = %q, want gen1 state", snap)
	}
	names := dirNames(t, dir)
	want := []string{snapName(1), walName(1)}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("dir after cleanup = %v, want %v", names, want)
	}
}

func TestOpenRejectsUnexpectedFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir, Options{}); err == nil {
		t.Fatal("OpenFile accepted a directory with foreign files")
	}
}

func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot([]byte("precious directory state")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Flip a payload byte: media corruption, not a torn write — the
	// open must refuse rather than silently serve an empty directory.
	path := filepath.Join(dir, snapName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir, Options{}); err == nil {
		t.Fatal("OpenFile accepted a corrupt snapshot")
	}
}

func TestFileStoreMissingWALAfterSnapshot(t *testing.T) {
	// Crash window between snapshot rename and new-WAL create: the
	// snapshot generation exists with no WAL; open starts it empty.
	dir := t.TempDir()
	st, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.Remove(filepath.Join(dir, walName(1))); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenFile(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, recs := st2.Recovered()
	if string(snap) != "state" || len(recs) != 0 {
		t.Errorf("Recovered = (%q, %d records), want (state, 0)", snap, len(recs))
	}
}

func TestFileStoreMaxRecord(t *testing.T) {
	st, err := OpenFile(t.TempDir(), Options{MaxRecord: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(make([]byte, 17)); err == nil {
		t.Error("Append accepted a record over MaxRecord")
	}
	if err := st.SaveSnapshot(make([]byte, 17)); err == nil {
		t.Error("SaveSnapshot accepted a state over MaxRecord")
	}
	if err := st.Append(make([]byte, 16)); err != nil {
		t.Errorf("Append at MaxRecord: %v", err)
	}
}

func TestMemStoreReopen(t *testing.T) {
	m := NewMem()
	if err := m.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveSnapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if snap, recs := m.Recovered(); snap != nil || len(recs) != 0 {
		t.Errorf("fresh MemStore Recovered = (%v, %d), want empty", snap, len(recs))
	}
	r := m.Reopen()
	snap, recs := r.Recovered()
	if string(snap) != "snap" {
		t.Errorf("reopened snapshot = %q, want snap", snap)
	}
	if len(recs) != 1 || string(recs[0]) != "b" {
		t.Errorf("reopened records = %q, want [b]", recs)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}
