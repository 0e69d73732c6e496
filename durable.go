package robustset

import (
	"fmt"
	"net/url"
	"path/filepath"
	"time"

	"robustset/internal/core"
	"robustset/internal/points"
	"robustset/internal/store"
)

// FsyncPolicy dictates when a durable dataset's write-ahead log is
// fsynced; see the store package constants for the trade-off.
type FsyncPolicy = store.FsyncPolicy

const (
	// SyncAlways fsyncs the log after every mutation batch (default).
	SyncAlways = store.SyncAlways
	// SyncNone leaves log flushing to the OS page cache.
	SyncNone = store.SyncNone
)

// WithServerDataDir roots the server's durable storage at dir: each
// dataset published with PublishDurable (or shard of
// PublishShardedDurable) keeps its WAL and snapshots in its own
// subdirectory. The directory is created on first use.
func WithServerDataDir(dir string) ServerOption {
	return func(s *Server) { s.dataDir = dir }
}

// WithServerFsync sets the WAL fsync policy for durable datasets.
// Default SyncAlways.
func WithServerFsync(p FsyncPolicy) ServerOption {
	return func(s *Server) { s.fsync = p }
}

// WithServerSnapshotEvery sets how many WAL records accumulate before a
// durable dataset snapshots its full state and drops the log. Smaller
// intervals mean faster recovery and more write amplification. 0 means
// the store default (4096); negative disables interval snapshots.
func WithServerSnapshotEvery(n int) ServerOption {
	return func(s *Server) { s.snapshotEvery = n }
}

// WithServerRecoveryVerify makes every recovery cross-check the adopted
// sketch against a fresh build of the recovered points — the byte-
// identity oracle the churn tests pin, at the cost of a full O(n·levels)
// build per recovered dataset. Off by default; recovery still trusts
// nothing unchecksummed either way.
func WithServerRecoveryVerify() ServerOption {
	return func(s *Server) { s.recoveryVerify = true }
}

// datasetDir maps a dataset name to its storage directory. Names may
// contain separators ("sensors/a") and shard suffixes; path-escaping
// keeps one flat, collision-free directory per dataset.
func (s *Server) datasetDir(name string) string {
	return filepath.Join(s.dataDir, url.PathEscape(name))
}

// PublishDurable is Publish backed by the WAL+snapshot storage engine
// under the server's data directory (WithServerDataDir, required).
//
// On a fresh directory the dataset starts from pts and immediately
// persists a first snapshot. If the directory already holds state — the
// server restarted — pts is IGNORED and the dataset is recovered from
// disk: snapshot loaded, its serialized sketch adopted without a
// rebuild, log tail replayed. The recovered replica then catches up on
// whatever it missed while down through ordinary reconciliation
// sessions (e.g. rejoining a Replicator), in cost proportional to the
// missed mutations.
func (s *Server) PublishDurable(name string, p Params, pts []Point) (*Dataset, error) {
	if s.dataDir == "" {
		return nil, fmt.Errorf("robustset: publish durable %q: no data directory (use WithServerDataDir)", name)
	}
	return s.publish(name, p, pts, s.openDurableDataset)
}

// PublishShardedDurable is PublishSharded with one WAL+snapshot pair per
// shard, each in its own directory under the server's data directory
// (e.g. "name~0.4/", "name~1.4/"). Shards recover independently on
// restart; pts seeds only shards whose directories are fresh.
func (s *Server) PublishShardedDurable(name string, p Params, pts []Point, nshards int) (*ShardedDataset, error) {
	if s.dataDir == "" {
		return nil, fmt.Errorf("robustset: publish durable %q: no data directory (use WithServerDataDir)", name)
	}
	return s.publishSharded(name, p, pts, nshards, s.openDurableDataset)
}

// openDurableDataset opens (or recovers) one dataset's storage engine
// and builds the live Dataset around it.
func (s *Server) openDurableDataset(name string, p Params, pts []Point) (*Dataset, error) {
	pointSize := points.EncodedSize(p.Universe.Dim)
	eng, rec, err := store.Open(s.datasetDir(name), pointSize, store.Options{
		Fsync:         s.fsync,
		SnapshotEvery: s.snapshotEvery,
		Metrics:       s.metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("robustset: publish durable %q: %w", name, err)
	}
	fresh := rec.Snapshot == nil && len(rec.Tail) == 0 && eng.Seq() == 0
	var d *Dataset
	if fresh {
		d, err = newDataset(name, p, pts)
	} else {
		d, err = s.recoverDataset(name, p, rec)
	}
	if err != nil {
		eng.Close()
		return nil, err
	}
	d.store = eng
	// A fresh publish (or a recovery that replayed a log tail) persists a
	// snapshot now: initial points never pass through the WAL, so without
	// this a crash before the first interval would lose them.
	if fresh || len(rec.Tail) > 0 {
		d.mu.Lock()
		err := d.writeSnapshotLocked()
		d.mu.Unlock()
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("robustset: publish durable %q: initial snapshot: %w", name, err)
		}
	}
	return d, nil
}

// recoverDataset rebuilds the live dataset from recovered disk state:
// decode the snapshot's points, adopt its serialized sketch (rebuilding
// only the maintainer's index of the points; all of it if the sketch does
// not parse), then replay the log tail through the ordinary maintainer
// updates.
func (s *Server) recoverDataset(name string, p Params, rec *store.Recovered) (*Dataset, error) {
	start := time.Now()
	dim := p.Universe.Dim
	var pts []Point
	var m *Maintainer
	var err error
	if rec.Snapshot != nil {
		pts = make([]Point, 0, len(rec.Snapshot.Points))
		for _, enc := range rec.Snapshot.Points {
			pt, derr := points.Decode(enc, dim)
			if derr != nil {
				return nil, fmt.Errorf("robustset: recover %q: snapshot point: %w", name, derr)
			}
			pts = append(pts, pt)
		}
	}
	var sk *Sketch
	if rec.Snapshot != nil && len(rec.Snapshot.Sketch) > 0 {
		sk = new(Sketch)
		// The sketch is a cache of the CRC-covered points beside it: one
		// this build cannot read — an earlier wire format's, say — costs a
		// rebuild, not the data directory. The next snapshot rewrites it.
		if err := sk.UnmarshalBinary(rec.Snapshot.Sketch); err != nil {
			s.logf("robustset: server: recover %q: rebuilding the sketch from %d snapshot points: %v", name, len(pts), err)
			sk = nil
		}
	}
	if sk != nil {
		m, err = core.NewMaintainerFromSketch(p, pts, sk)
	} else {
		m, err = NewMaintainer(p, pts)
	}
	if err != nil {
		return nil, fmt.Errorf("robustset: recover %q: %w", name, err)
	}
	d := datasetOver(name, m, pts)
	// Replay the tail through the live apply path. Nothing shares d yet,
	// and its store is still the inert Mem engine, so nothing is re-logged.
	for _, r := range rec.Tail {
		for _, enc := range r.Points {
			pt, err := points.Decode(enc, dim)
			if err == nil {
				err = d.applyLocked(r.Op, pt, string(enc))
			}
			if err != nil {
				return nil, fmt.Errorf("robustset: recover %q: replaying log record %d: %w", name, r.Seq, err)
			}
		}
	}
	if s.recoveryVerify {
		d.mu.Lock()
		cur := d.snapshotLocked()
		d.mu.Unlock()
		if err := d.maintainer.VerifyFreshBuild(cur); err != nil {
			return nil, fmt.Errorf("robustset: recover %q: %w", name, err)
		}
	}
	s.metrics.Counter("server_recovered_datasets_total").Inc()
	s.logf("robustset: server: recovered %q: %d points from snapshot, %d log records replayed, %d torn bytes truncated, %s",
		name, len(pts), len(rec.Tail), rec.TornBytes, time.Since(start).Round(time.Microsecond))
	return d, nil
}
