package rgma

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/gma"
	"repro/internal/storage"
)

// Durable Registry state. A storage-backed Registry write-ahead-logs
// every directory mutation — register, unregister, soft-state expiry —
// through a storage.Log, which also compacts the log into a snapshot of
// the directory on cadence, so a restarted Registry reopens with its
// advertisements intact instead of waiting a full soft-state period for
// producers to re-announce. Queries are never logged: lookups read the
// directory, they do not change it. This file holds the Registry's
// record grammar; the bookkeeping around it is the Log's.
//
// WAL record grammar (see internal/binenc for the primitive forms):
//
//	register   = 0x01 producerID address tableName predicate expires
//	unregister = 0x02 producerID
//	expire     = 0x03 now
//
// The snapshot is every advertisement in registration order, so replay
// reconstructs the exact order LookupProducersStats promises.
const (
	regOpRegister   = 0x01
	regOpUnregister = 0x02
	regOpExpire     = 0x03
)

// OpenRegistry builds a registry on a durable store, replaying the
// store's recovered snapshot and WAL into the directory before any new
// mutation is accepted. A nil store yields a volatile registry identical
// to NewRegistry's. snapEvery sets the snapshot cadence in WAL records
// (<= 0 means storage.DefaultSnapshotEvery).
func OpenRegistry(name string, st storage.Store, snapEvery int) (*Registry, error) {
	r := NewRegistry(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	wal, err := storage.OpenLog(st, snapEvery, "rgma: replaying registry", r.restoreState, r.applyRecord, r.encodeState)
	if err != nil {
		return nil, err
	}
	r.wal = wal
	return r, nil
}

// Err reports the first durable-logging failure, or nil. Mutations on
// paths that cannot return an error (unregister, expiry during a
// lookup) record the failure here; once set, the registry stops
// logging (the WAL would have a hole) and the error surfaces again
// from Close.
func (r *Registry) Err() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.wal.Err()
}

// Close writes a final snapshot and releases the store, so a clean
// shutdown reopens from one state image with no replay. A volatile
// registry closes as a no-op.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wal.Close()
}

// encodeState serializes the directory in registration order. Callers
// hold mu.
func (r *Registry) encodeState() []byte {
	var e storage.Encoder
	e.Uvarint(uint64(len(r.byID)))
	for reg := r.order.next; reg != &r.order; reg = reg.next {
		e.String(reg.ad.ProducerID)
		e.String(reg.ad.Address)
		e.String(reg.ad.TableName)
		e.String(reg.ad.Predicate)
		e.Float64(reg.expires)
	}
	return e.Bytes()
}

// restoreState loads a snapshot image into the (empty) directory.
// Callers hold mu exclusively.
func (r *Registry) restoreState(snap []byte) error {
	d := binenc.NewDec(snap)
	// A row is four length-prefixed strings and a float64 at least, so a
	// damaged count cannot outrun the bytes that follow it.
	n := d.Count(d.Uvarint(), 4+8)
	for i := 0; i < n; i++ {
		ad, expires := decodeAd(&d)
		if d.Err() != nil {
			break
		}
		r.putProducer(ad, expires)
	}
	if !d.Done() {
		return fmt.Errorf("rgma: corrupt registry snapshot (%d bytes)", len(snap))
	}
	return nil
}

// applyRecord replays one WAL record through the same mutation helpers
// the live paths use, so a recovered registry is bit-identical to the
// one that logged it.
func (r *Registry) applyRecord(rec []byte) error {
	d := binenc.NewDec(rec)
	switch op := d.Byte(); op {
	case regOpRegister:
		ad, expires := decodeAd(&d)
		if !d.Done() {
			return fmt.Errorf("rgma: corrupt register record (%d bytes)", len(rec))
		}
		r.putProducer(ad, expires)
		return nil
	case regOpUnregister:
		id := d.String()
		if !d.Done() {
			return fmt.Errorf("rgma: corrupt unregister record (%d bytes)", len(rec))
		}
		r.deleteProducer(id)
		return nil
	case regOpExpire:
		now := d.Float64()
		if !d.Done() {
			return fmt.Errorf("rgma: corrupt expire record (%d bytes)", len(rec))
		}
		r.expire(now)
		return nil
	default:
		return fmt.Errorf("rgma: unknown registry record op 0x%02x", op)
	}
}

// decodeAd reads an advertisement and its expiry, the form a register
// record and a snapshot row share.
func decodeAd(d *binenc.Dec) (gma.Advertisement, float64) {
	ad := gma.Advertisement{ProducerID: d.String(), Address: d.String(), TableName: d.String(), Predicate: d.String()}
	return ad, d.Float64()
}

// encodeRegisterRec serializes a register mutation.
func encodeRegisterRec(ad gma.Advertisement, expires float64) []byte {
	var e storage.Encoder
	e.Byte(regOpRegister)
	e.String(ad.ProducerID)
	e.String(ad.Address)
	e.String(ad.TableName)
	e.String(ad.Predicate)
	e.Float64(expires)
	return e.Bytes()
}

// encodeExpireRec serializes a soft-state sweep that dropped
// advertisements.
func encodeExpireRec(now float64) []byte {
	var e storage.Encoder
	e.Byte(regOpExpire)
	e.Float64(now)
	return e.Bytes()
}

// encodeUnregisterRec serializes an unregister mutation.
func encodeUnregisterRec(producerID string) []byte {
	var e storage.Encoder
	e.Byte(regOpUnregister)
	e.String(producerID)
	return e.Bytes()
}
