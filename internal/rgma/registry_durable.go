package rgma

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/gma"
	"repro/internal/relational"
	"repro/internal/storage"
)

// Durable Registry state. A storage-backed Registry write-ahead-logs
// every directory mutation — register, unregister, soft-state expiry —
// and periodically compacts the log into a snapshot of the producers
// table, so a restarted Registry reopens with its advertisements
// intact instead of waiting a full soft-state period for producers to
// re-announce. Queries are never logged: lookups read the directory,
// they do not change it.
//
// WAL record grammar (see internal/binenc for the primitive forms):
//
//	register   = 0x01 producerID address tableName predicate expires
//	unregister = 0x02 producerID
//	expire     = 0x03 now
//
// The snapshot is the full producers table in row order, so replay
// reconstructs the exact registration order LookupProducers promises.
const (
	regOpRegister   = 0x01
	regOpUnregister = 0x02
	regOpExpire     = 0x03
)

// OpenRegistry builds a registry on a durable store, replaying the
// store's recovered snapshot and WAL into the producers table before
// any new mutation is accepted. A nil store yields a volatile registry
// identical to NewRegistry's. snapEvery sets the snapshot cadence in
// WAL records (<= 0 means storage.DefaultSnapshotEvery).
func OpenRegistry(name string, st storage.Store, snapEvery int) (*Registry, error) {
	r := NewRegistry(name)
	if st == nil {
		return r, nil
	}
	if snapEvery <= 0 {
		snapEvery = storage.DefaultSnapshotEvery
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap, recs := st.Recovered()
	if snap != nil {
		if err := r.restoreState(snap); err != nil {
			return nil, err
		}
	}
	for i, rec := range recs {
		if err := r.applyRecord(rec); err != nil {
			return nil, fmt.Errorf("rgma: replaying registry record %d of %d: %w", i, len(recs), err)
		}
	}
	r.store = st
	r.snapEvery = snapEvery
	// Count the replayed tail toward the cadence so a registry that
	// crashed with a long WAL compacts soon after reopen instead of
	// replaying it again next time.
	r.walRecords = len(recs)
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
	return r.storeErr
}

// Close writes a final snapshot and releases the store, so a clean
// shutdown reopens from one state image with no replay. A volatile
// registry closes as a no-op.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		return nil
	}
	err := r.storeErr
	if err == nil {
		err = r.snapshotLocked()
	}
	if cerr := r.store.Close(); err == nil {
		err = cerr
	}
	r.store = nil
	return err
}

// log appends one WAL record and compacts on cadence. A nil store (the
// volatile registry) makes it a no-op. Callers hold mu exclusively.
func (r *Registry) log(rec []byte) error {
	if r.store == nil {
		return nil
	}
	if r.storeErr != nil {
		return r.storeErr
	}
	if err := r.store.Append(rec); err != nil {
		r.storeErr = err
		return err
	}
	r.walRecords++
	if r.walRecords >= r.snapEvery {
		return r.snapshotLocked()
	}
	return nil
}

// logExpire records a soft-state sweep that dropped advertisements.
// The error is sticky in storeErr rather than returned: expiry happens
// inside lookups, which must keep answering. Callers hold mu
// exclusively.
func (r *Registry) logExpire(now float64) {
	var e storage.Encoder
	e.Byte(regOpExpire)
	e.Float64(now)
	// log already recorded the failure in storeErr; see Err.
	_ = r.log(e.Bytes())
}

// snapshotLocked compacts the WAL into a snapshot of the full
// producers table. Callers hold mu exclusively, with a live store.
func (r *Registry) snapshotLocked() error {
	if err := r.store.SaveSnapshot(r.encodeState()); err != nil {
		r.storeErr = err
		return err
	}
	r.walRecords = 0
	return nil
}

// encodeState serializes the producers table in row order. Callers
// hold mu.
func (r *Registry) encodeState() []byte {
	rows := r.producers.Rows()
	var e storage.Encoder
	e.Uvarint(uint64(len(rows)))
	for _, row := range rows {
		e.String(row[0].S) // producer_id
		e.String(row[1].S) // address
		e.String(row[2].S) // table_name
		e.String(row[3].S) // predicate
		e.Float64(row[4].R)
	}
	return e.Bytes()
}

// restoreState loads a snapshot image into the (empty) producers
// table. Callers hold mu exclusively.
func (r *Registry) restoreState(snap []byte) error {
	d := binenc.NewDec(snap)
	// A row is four length-prefixed strings and a float64 at least, so a
	// damaged count cannot outrun the bytes that follow it.
	n := d.Count(d.Uvarint(), 4+8)
	for i := 0; i < n; i++ {
		ad := gma.Advertisement{
			ProducerID: d.String(),
			Address:    d.String(),
			TableName:  d.String(),
			Predicate:  d.String(),
		}
		expires := d.Float64()
		if d.Err() != nil {
			break
		}
		if err := r.putProducer(ad, expires); err != nil {
			return err
		}
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
		ad := gma.Advertisement{
			ProducerID: d.String(),
			Address:    d.String(),
			TableName:  d.String(),
			Predicate:  d.String(),
		}
		expires := d.Float64()
		if !d.Done() {
			return fmt.Errorf("rgma: corrupt register record (%d bytes)", len(rec))
		}
		return r.putProducer(ad, expires)
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

// encodeUnregisterRec serializes an unregister mutation.
func encodeUnregisterRec(producerID string) []byte {
	var e storage.Encoder
	e.Byte(regOpUnregister)
	e.String(producerID)
	return e.Bytes()
}

// putProducer replaces any existing advertisement for the producer and
// inserts the new row — the shared mutation core of RegisterProducer
// and replay. Callers hold mu exclusively.
func (r *Registry) putProducer(ad gma.Advertisement, expires float64) error {
	r.producers.DeleteWhere(func(row []relational.Value) bool {
		return row[0].S == ad.ProducerID
	})
	return r.producers.Insert([]relational.Value{
		relational.StrVal(ad.ProducerID),
		relational.StrVal(ad.Address),
		relational.StrVal(ad.TableName),
		relational.StrVal(ad.Predicate),
		relational.RealVal(expires),
	})
}

// deleteProducer removes a producer's advertisement, reporting whether
// one existed. Callers hold mu exclusively.
func (r *Registry) deleteProducer(producerID string) bool {
	return r.producers.DeleteWhere(func(row []relational.Value) bool {
		return row[0].S == producerID
	}) > 0
}
