// Package store is the pluggable storage engine behind a server Dataset.
// A Store receives every mutation batch before it is applied to the live
// multiset and its maintained sketch ("append before apply"), and is
// periodically offered an atomic snapshot of the full state so recovery
// replays only the log tail written since.
//
// Two implementations exist: Mem, the no-op engine every dataset uses by
// default (zero behavior change, nothing durable), and Durable, an
// append-only CRC-framed write-ahead log paired with atomic snapshots of
// the point multiset plus the serialized sketch state (wal.go,
// snapshot.go, durable.go).
//
// The package is deliberately ignorant of points and sketches: points
// are opaque fixed-width encodings (pointSize bytes each, the canonical
// encoding of internal/points) and the sketch is an opaque blob, so the
// on-disk formats never chase the in-memory types.
package store

import "robustset/internal/metrics"

// Op tags one WAL record as an add or a remove batch.
type Op byte

const (
	// OpAdd marks a batch of point insertions.
	OpAdd Op = 1
	// OpRemove marks a batch of point removals (one occurrence each).
	OpRemove Op = 2
)

// Record is one decoded WAL record: a mutation batch with its log
// sequence number. Points alias the buffer they were parsed from.
type Record struct {
	Seq    uint64
	Op     Op
	Points [][]byte
}

// Store is the write-through interface a Dataset mutates against. All
// methods are called with the dataset lock held, so implementations need
// only guard against their own concurrent Close.
type Store interface {
	// Append logs one mutation batch of canonical point encodings. It is
	// called before the batch is applied to the in-memory state; a
	// non-nil error means nothing was applied and the mutation fails.
	// The encodings may share one array and are the caller's again once
	// Append returns: an engine that keeps them copies them.
	Append(op Op, encodedPts [][]byte) error
	// ShouldSnapshot reports whether the engine wants the caller to
	// offer a snapshot (the log has grown past its interval).
	ShouldSnapshot() bool
	// WriteSnapshot atomically persists the full state: every point
	// occurrence (encoded) plus the serialized sketch. On success the
	// log tail it covers is dropped.
	WriteSnapshot(encodedPts [][]byte, sketch []byte) error
	// Close releases the engine's resources, flushing pending state.
	Close() error
}

// Options configures a Durable engine.
type Options struct {
	// Fsync is the WAL fsync policy. Default SyncAlways.
	Fsync FsyncPolicy
	// SnapshotEvery is the number of WAL records after which
	// ShouldSnapshot turns true. 0 means DefaultSnapshotEvery; negative
	// disables interval snapshots entirely.
	SnapshotEvery int
	// Metrics receives the engine's instrumentation (fsync latency,
	// bytes appended, snapshot counts, replay counters). nil is a valid
	// no-op sink.
	Metrics *metrics.Registry
}

// FsyncPolicy dictates when the WAL is fsynced.
type FsyncPolicy int

const (
	// SyncAlways fsyncs after every appended record: a record
	// acknowledged to the caller survives an OS crash. The default.
	SyncAlways FsyncPolicy = iota
	// SyncNone leaves flushing to the OS page cache: a process crash
	// loses nothing (the kernel has the bytes), an OS crash may lose the
	// unflushed tail. An order of magnitude faster on spinning media.
	SyncNone
)

// DefaultSnapshotEvery is the record interval between snapshots when
// Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 4096

// Mem returns the no-op in-memory store: nothing is logged, nothing is
// snapshotted, recovery has nothing to find. It is the engine behind
// every dataset not published durably.
func Mem() Store { return memStore{} }

type memStore struct{}

func (memStore) Append(Op, [][]byte) error            { return nil }
func (memStore) ShouldSnapshot() bool                 { return false }
func (memStore) WriteSnapshot([][]byte, []byte) error { return nil }
func (memStore) Close() error                         { return nil }
