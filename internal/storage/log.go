package storage

import "fmt"

// Log is the write-ahead bookkeeping a directory service keeps over its
// Store: replay on open, one record per mutation, a snapshot of the
// service's state every so many records and at Close. The service
// supplies only its record grammar, and serializes calls under the lock
// that orders its mutations. A nil *Log is a volatile service: every
// method is a no-op.
type Log struct {
	store   Store         // nil once closed
	state   func() []byte // the service's full-state image
	every   int           // snapshot cadence in records
	records int           // records since the last snapshot
	err     error         // first failure, sticky
}

// OpenLog replays st's recovered snapshot through restore and each
// record through apply ("<what> record i of n: <err>" when one fails),
// then returns the Log that appends after them, or nil for a nil st.
// It snapshots the image state renders once every `every` records (<= 0
// means DefaultSnapshotEvery).
func OpenLog(st Store, every int, what string, restore, apply func([]byte) error, state func() []byte) (*Log, error) {
	if st == nil {
		return nil, nil
	}
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	snap, recs := st.Recovered()
	if snap != nil {
		if err := restore(snap); err != nil {
			return nil, err
		}
	}
	for i, rec := range recs {
		if err := apply(rec); err != nil {
			return nil, fmt.Errorf("%s record %d of %d: %w", what, i, len(recs), err)
		}
	}
	// The replayed tail counts toward the cadence, so a service that
	// crashed with a long log compacts soon after reopening instead of
	// replaying it again next time.
	return &Log{store: st, state: state, every: every, records: len(recs)}, nil
}

// Append logs the record rec encodes, if there is a store to write to,
// and compacts on cadence. After a failure nothing more is logged (the
// log would have a hole) and the failure is returned again.
func (l *Log) Append(rec func() []byte) error {
	if l == nil || l.store == nil {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	if err := l.store.Append(rec()); err != nil {
		l.err = err
		return err
	}
	l.records++
	if l.records >= l.every {
		return l.snapshot()
	}
	return nil
}

// Err reports the first logging failure, or nil. Mutations on paths
// that cannot return an error (an expiry sweep inside a query) leave
// theirs here.
func (l *Log) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}

// Close writes a final snapshot, unless logging failed, and releases
// the store, so a clean shutdown reopens from one state image with no
// replay. Closing twice is a no-op.
func (l *Log) Close() error {
	if l == nil || l.store == nil {
		return nil
	}
	err := l.err
	if err == nil {
		err = l.snapshot()
	}
	if cerr := l.store.Close(); err == nil {
		err = cerr
	}
	l.store = nil
	return err
}

// snapshot compacts the log into an image of the service's state.
func (l *Log) snapshot() error {
	if err := l.store.SaveSnapshot(l.state()); err != nil {
		l.err = err
		return err
	}
	l.records = 0
	return nil
}
