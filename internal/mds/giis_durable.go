package mds

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/storage"
)

// Durable GIIS state. A storage-backed GIIS write-ahead-logs its
// soft-state registration table — add, renew, lapse — through a
// storage.Log, which also compacts the log into a snapshot on cadence,
// so a restarted GIIS reopens knowing exactly which sources were
// registered (and still enforcing MaxRegistrants against them). Cached
// source *data* is deliberately not logged: it is a cache of state the
// sources own, rebuilt by re-pulling when each source re-registers
// after the restart. Until a recovered registration's source returns,
// the entry is "detached" — it holds its directory slot and expiry but
// contributes no entries.
//
// WAL record grammar (see internal/binenc for the primitive forms):
//
//	upsert = 0x01 id expiry     (register or renew)
//	expire = 0x02 now           (soft-state sweep that dropped entries)
//
// The snapshot is the registration table in registration order.
const (
	giisOpUpsert = 0x01
	giisOpExpire = 0x02
)

// OpenGIIS builds a GIIS on a durable store, replaying the store's
// recovered snapshot and WAL into the registration table before any
// new mutation is accepted. A nil store yields a volatile GIIS
// identical to NewGIIS's. snapEvery sets the snapshot cadence in WAL
// records (<= 0 means storage.DefaultSnapshotEvery).
func OpenGIIS(name string, cacheTTL, registrationTTL float64, st storage.Store, snapEvery int) (*GIIS, error) {
	g := NewGIIS(name, cacheTTL, registrationTTL)
	g.mu.Lock()
	defer g.mu.Unlock()
	wal, err := storage.OpenLog(st, snapEvery, "mds: replaying giis", g.restoreState, g.applyRecord, g.encodeState)
	if err != nil {
		return nil, err
	}
	g.wal = wal
	return g, nil
}

// Err reports the first durable-logging failure, or nil. Mutations on
// paths that cannot return an error (expiry during a query) record the
// failure here; once set, the GIIS stops logging (the WAL would have a
// hole) and the error surfaces again from Close.
func (g *GIIS) Err() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.wal.Err()
}

// Close writes a final snapshot and releases the store, so a clean
// shutdown reopens from one state image with no replay. A volatile
// GIIS closes as a no-op.
func (g *GIIS) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.wal.Close()
}

// encodeState serializes the registration table in registration order.
// Callers hold mu.
func (g *GIIS) encodeState() []byte {
	var e storage.Encoder
	e.Uvarint(uint64(len(g.regOrder)))
	for _, id := range g.regOrder {
		e.String(id)
		e.Float64(g.regs[id].expiry)
	}
	return e.Bytes()
}

// restoreState loads a snapshot image into the (empty) registration
// table as detached registrations. Callers hold mu exclusively.
func (g *GIIS) restoreState(snap []byte) error {
	d := binenc.NewDec(snap)
	// A registration is a length-prefixed id and a float64 at least, so a
	// damaged count cannot outrun the bytes that follow it.
	n := d.Count(d.Uvarint(), 1+8)
	for i := 0; i < n; i++ {
		id := d.String()
		expiry := d.Float64()
		if d.Err() != nil {
			break
		}
		g.upsertRegistration(id, expiry)
	}
	if !d.Done() {
		return fmt.Errorf("mds: corrupt giis snapshot (%d bytes)", len(snap))
	}
	return nil
}

// applyRecord replays one WAL record through the same mutation helpers
// the live paths use, so a recovered GIIS holds exactly the
// registration table that logged it.
func (g *GIIS) applyRecord(rec []byte) error {
	d := binenc.NewDec(rec)
	switch op := d.Byte(); op {
	case giisOpUpsert:
		id := d.String()
		expiry := d.Float64()
		if !d.Done() {
			return fmt.Errorf("mds: corrupt upsert record (%d bytes)", len(rec))
		}
		g.upsertRegistration(id, expiry)
		return nil
	case giisOpExpire:
		now := d.Float64()
		if !d.Done() {
			return fmt.Errorf("mds: corrupt expire record (%d bytes)", len(rec))
		}
		g.expire(now)
		return nil
	default:
		return fmt.Errorf("mds: unknown giis record op 0x%02x", op)
	}
}

// encodeUpsertRec serializes a register/renew mutation.
func encodeUpsertRec(id string, expiry float64) []byte {
	var e storage.Encoder
	e.Byte(giisOpUpsert)
	e.String(id)
	e.Float64(expiry)
	return e.Bytes()
}

// encodeExpireRec serializes a soft-state sweep that dropped
// registrations.
func encodeExpireRec(now float64) []byte {
	var e storage.Encoder
	e.Byte(giisOpExpire)
	e.Float64(now)
	return e.Bytes()
}
