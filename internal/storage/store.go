// Package storage is the durable-state layer under the stateful
// directory services (the R-GMA Registry and the MDS GIIS): an
// append-only write-ahead log with periodic snapshot compaction and
// replay-on-open crash recovery.
//
// The package deliberately knows nothing about what it stores. A record
// is an opaque byte payload the service encodes (see Encoder/Decoder
// for the shared primitive wire forms); the store's only promises are
// about durability and ordering:
//
//   - Append writes one record to the tail of the current WAL segment.
//     Records are framed (length prefix + CRC32-C) so a reader can tell
//     a complete record from a torn one.
//   - SaveSnapshot atomically replaces the accumulated log with a single
//     full-state image, bounding both disk use and replay time.
//   - On open, the store recovers the newest snapshot plus every WAL
//     record appended after it, in order. A torn final record — the
//     signature of a crash mid-write — is truncated away, never
//     half-applied.
//
// Two implementations share the Store interface: FileStore (the real
// thing, see OpenFile) and MemStore (volatile, the differential oracle
// the crash tests compare a reopened FileStore against). Log is the
// bookkeeping a service keeps over either: replay on open, one record
// per mutation, snapshots on cadence and at Close.
package storage

// Store is an append-only durable log with snapshot compaction. A Store
// is safe for concurrent use, though the services layering state
// machines on top serialize through their own locks anyway (replay
// correctness needs a total order of mutations, which only the caller
// can establish).
type Store interface {
	// Recovered returns what survived the last open: the newest
	// snapshot image (nil when none was ever taken) and the WAL records
	// appended after it, in append order. The slices are the caller's
	// to keep; they are not affected by later Append/SaveSnapshot
	// calls.
	Recovered() (snapshot []byte, records [][]byte)

	// Append durably logs one record after the last. The payload is
	// copied (or written out) before Append returns; the caller may
	// reuse the slice. Durability is batched: the record is guaranteed
	// on stable media only after the next Sync (implicit every
	// SyncEvery appends for FileStore, see Options).
	Append(rec []byte) error

	// Sync flushes any buffered appends to stable media.
	Sync() error

	// SaveSnapshot atomically replaces the snapshot+log pair with the
	// given full-state image: after it returns, a reopen recovers
	// exactly state with no records. The old segment is deleted.
	SaveSnapshot(state []byte) error

	// Close flushes and releases the store. Closing twice is a no-op.
	Close() error
}

// DefaultSnapshotEvery is the record cadence at which the services
// compact their WAL into a snapshot when the caller does not choose one:
// every N appended records, the service writes its full state and the
// log restarts empty, so replay work and disk use stay bounded by N
// records plus one state image.
const DefaultSnapshotEvery = 1024
