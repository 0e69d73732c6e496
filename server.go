package robustset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"robustset/internal/cluster"
	"robustset/internal/hashutil"
	"robustset/internal/metrics"
	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/store"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// ErrServerClosed is returned by Server.Serve after Shutdown or Close.
var ErrServerClosed = errors.New("robustset: server closed")

// ErrUnknownDataset is relayed to clients that request a dataset the
// server does not publish.
var ErrUnknownDataset = errors.New("robustset: unknown dataset")

// Dataset is one named point multiset a Server publishes. Its Maintainer
// holds the multiset, once, beside the incrementally maintained sketch:
// robust one-shot sessions are served from it in O(sketch) time
// regardless of dataset size — adaptive ones a level at a time, rateless
// ones from state a session of theirs leaves behind (DESIGN.md, "Served
// state") — while Naive snapshots the points, decoded from the
// Maintainer's sorted index. A point's multiplicity is read there too, so
// Add and Remove cost O(levels) maintainer updates — no linear scans on
// high-churn datasets. Beside it the dataset keeps the root of the
// multiset — its size and a 64-bit sum of point hashes, one hash per
// point mutated (points.Print) — which is all that two datasets need to
// exchange to learn they are equal: a ClientSession.FetchDataset against
// a server whose dataset has the same root ends at the handshake,
// whatever the strategy. All methods are safe for concurrent use with
// each other and with serving sessions.
//
// Every mutation writes through the dataset's storage engine before it
// applies ("append before apply"): a batch is validated up front, logged
// as one WAL record, then applied — so mutations are all-or-nothing and
// the log never holds a batch that fails to apply. Datasets published
// with Publish use the no-op in-memory engine (zero overhead); see
// Server.PublishDurable for the WAL+snapshot engine.
type Dataset struct {
	name string

	mu         sync.Mutex
	maintainer *Maintainer // the multiset and its sketch
	retired    bool        // set by Server.Unpublish; mutations and serving reject
	store      store.Store // write-ahead engine; store.Mem() unless durable
	// blobCache is the marshaled form of the maintained sketch, built
	// lazily and invalidated by every mutation. Concurrent sessions
	// serving an unchanged dataset share one immutable blob instead of
	// each re-marshaling the whole sketch under d.mu — the snapshot-free
	// concurrent read path. Callers must treat the blob as read-only.
	blobCache []byte
	// exact is the rateless strategy's cell-stream prefix over the
	// multiset's occurrence keys. It is built lazily by the
	// first rateless session and from then on maintained incrementally
	// through applyLocked: a rateless session copies O(cells) under d.mu
	// and reads no points. nil until a rateless session has run.
	exact *protocol.RatelessState
	// adaptive is what adaptive sessions are served from between
	// mutations; mutations and retire() drop it.
	adaptive adaptiveServed
	// root is the fingerprint of the multiset under rootKey, which is
	// derived from Params.Seed: datasets of different seeds have
	// unrelated roots.
	root    points.Print
	rootKey points.PrintKey
	// pointsGauge, rootGauge and coldSessions export size, root fingerprint
	// and the rateless sessions that read the points; they are the
	// registry's from the moment a Server registers the dataset.
	pointsGauge, rootGauge *metrics.Gauge
	coldSessions           *metrics.Counter
}

// Name returns the dataset's published name.
func (d *Dataset) Name() string { return d.name }

// Params returns the dataset's normalized reconciliation parameters —
// the ones the server dictates to fetching clients.
func (d *Dataset) Params() Params {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maintainer.Params()
}

// Size returns the current multiset size.
func (d *Dataset) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maintainer.Count()
}

// errRetired builds the rejection mutations and sessions see after
// Server.Unpublish retired the dataset.
func (d *Dataset) errRetired() error {
	return fmt.Errorf("%w: %q retired", ErrUnknownDataset, d.name)
}

// retire marks the dataset unpublished: every later mutation and serving
// session is rejected with ErrUnknownDataset.
func (d *Dataset) retire() {
	d.mu.Lock()
	d.retired = true
	d.exact, d.adaptive = nil, adaptiveServed{} // free the served state; no future session can use it
	d.pointsGauge.Set(0)
	d.rootGauge.Set(0)
	d.mu.Unlock()
}

// exportLocked publishes size and root fingerprint to the dataset's
// gauges, with d.mu held.
func (d *Dataset) exportLocked() {
	d.pointsGauge.Set(int64(d.maintainer.Count()))
	d.rootGauge.Set(int64(d.root.Sum))
}

// rootPrint returns the current root.
func (d *Dataset) rootPrint() points.Print {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.root
}

// openSession is the serving side of a handshake or of a roots exchange:
// the parameters to dictate, and the root at this instant — a client's
// root equal to it holds the same multiset, up to a 2⁻⁶⁴ fingerprint
// collision. A retired dataset is never the same as anything: it is
// rejected here.
func (d *Dataset) openSession() (Params, points.Print, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.retired {
		return Params{}, points.Print{}, d.errRetired()
	}
	return d.maintainer.Params(), d.root, nil
}

// ratelessOpening captures, under one hold of d.mu and in O(cells), what
// one rateless session is served from, building the state on first use.
// Rest snapshots the points for a session that outruns the prefix and
// says whether the root is still the captured one. *cold is set when the
// session reads the points, here or there.
func (d *Dataset) ratelessOpening(cfg protocol.RatelessConfig, cold *bool) (o *protocol.RatelessOpening, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.retired {
		return nil, d.errRetired()
	}
	if d.exact == nil {
		*cold = true
		if d.exact, err = protocol.NewRatelessState(cfg, d.snapshotLocked()); err != nil {
			return nil, err
		}
	}
	o = d.exact.Opening()
	version := d.root
	o.Rest = func() ([][]byte, bool, error) {
		*cold = true
		d.mu.Lock()
		if d.retired {
			d.mu.Unlock()
			return nil, false, d.errRetired()
		}
		pts, same := d.snapshotLocked(), d.root == version
		d.mu.Unlock()
		return points.OccurrenceKeys(pts, cfg.Universe.Dim), same, nil
	}
	return o, nil
}

// adaptiveServed is a dataset's served state for adaptive sessions: its
// estimators of size k by level, marshaled, each built on its first
// request (one of another size replaces them), and by level the last
// table reply, of the capacity caps holds, marshaled: about half the
// memory of the table. The zero value holds nothing.
type adaptiveServed struct {
	k          int
	estimators map[int][]byte
	replies    map[int][]byte
	caps       map[int]int
}

// maxCachedCapacity bounds what a dataset's cached replies pin: a reply is
// cached only when its capacity is at most this multiple of the dataset's
// TableCapacity. A default-options client's first request asks for at most
// 1.5 × its budget, 4·DiffBudget = 2·TableCapacity, plus 16 keys: about
// 3·TableCapacity + 16. A larger request is built, sent and dropped.
const maxCachedCapacity = 4

// levelEstimator returns one level's estimator of size k, marshaled, for
// an adaptive session, building it from the Maintainer on a cache miss.
// Callers must treat the bytes as read-only. It rejects retired datasets
// like servePoints.
func (d *Dataset) levelEstimator(level, k int) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.retired {
		return nil, d.errRetired()
	}
	a := &d.adaptive
	if a.estimators == nil || a.k != k {
		a.estimators, a.k = make(map[int][]byte), k
	}
	if blob := a.estimators[level]; blob != nil {
		return blob, nil
	}
	e, err := d.maintainer.LevelEstimator(level, k) // refuses a level outside the range
	if err != nil {
		return nil, err
	}
	blob, _ := e.MarshalBinary() // a bottom-k sketch always marshals
	a.estimators[level] = blob
	return blob, nil
}

// levelTable answers an adaptive session's request for one level's table:
// with the reply cached for the level if it was of the same capacity, else
// with one built from the Maintainer's cell counts, cached if
// maxCachedCapacity admits it. It rejects retired datasets like servePoints.
func (d *Dataset) levelTable(level, capacity int) (reply []byte, cached bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.retired {
		return nil, false, d.errRetired()
	}
	a := &d.adaptive
	if a.replies[level] != nil && a.caps[level] == capacity {
		return a.replies[level], true, nil
	}
	t, err := d.maintainer.BuildLevelTable(level, capacity)
	if err != nil {
		return nil, false, err
	}
	if reply, err = t.MarshalBinary(); err != nil {
		return nil, false, err
	}
	if capacity <= maxCachedCapacity*d.maintainer.Params().TableCapacity {
		if a.replies == nil {
			a.replies, a.caps = make(map[int][]byte), make(map[int]int)
		}
		a.replies[level], a.caps[level] = reply, capacity
	}
	return reply, false, nil
}

// recordServed says on the session's trace and the cold-session counter
// whether the dataset's served state answered the session or it had to
// read the points.
func (d *Dataset) recordServed(ctx context.Context, cold bool) {
	served := int64(1)
	if cold {
		served = 0
		d.coldSessions.Inc()
	}
	trace.FromContext(ctx).Stat(trace.StatServedState, served)
}

// mutateLocked is the single write path behind Add/Remove/AddBatch/
// RemoveBatch, with d.mu held: validate the whole batch, append it to
// the storage engine as one record, then apply. Validation precedes the
// append so the WAL never holds a batch that fails to apply, which makes
// every mutation all-or-nothing: on error nothing was applied.
func (d *Dataset) mutateLocked(op store.Op, pts []Point) error {
	if d.retired {
		return d.errRetired()
	}
	u := d.maintainer.Params().Universe
	// Every point's encoding is carved out of one array per batch.
	encs, buf := make([][]byte, len(pts)), make([]byte, 0, len(pts)*points.EncodedSize(u.Dim))
	for i, pt := range pts {
		at := len(buf)
		buf = points.Encode(buf, pt)
		encs[i] = buf[at:len(buf):len(buf)]
	}
	if op == store.OpAdd {
		for i, pt := range pts {
			if !u.Contains(pt) {
				return fmt.Errorf("robustset: add batch to %q: point %d of %d: %v outside universe (nothing applied)",
					d.name, i, len(pts), pt)
			}
		}
	} else {
		// Multiset-aware tally: the batch may remove several occurrences
		// of one point, but never more than the dataset holds. Indices
		// sorted by encoding form runs of equal points: no key per point.
		order := make([]int, len(pts))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(encs[a], encs[b]) })
		first, run := len(pts), 0
		for i, j := range order {
			if i > 0 && !bytes.Equal(encs[j], encs[order[i-1]]) {
				run = i
			}
			if i-run == d.maintainer.Multiplicity(pts[j]) {
				first = min(first, j)
			}
		}
		if first < len(pts) {
			return fmt.Errorf("robustset: remove batch from %q: point %d of %d: %w: %v not in dataset (nothing applied)",
				d.name, first, len(pts), ErrNotPresent, pts[first])
		}
	}
	if err := d.store.Append(op, encs); err != nil {
		return fmt.Errorf("robustset: %q: log append: %w (nothing applied)", d.name, err)
	}
	// The batch validated and is on disk; application cannot fail short
	// of internal state corruption, which must not pass silently.
	for i, pt := range pts {
		if err := d.applyLocked(op, pt, string(encs[i])); err != nil {
			panic("robustset: validated mutation failed: " + err.Error())
		}
	}
	d.blobCache, d.adaptive = nil, adaptiveServed{} // the serialized sketch and adaptive state are stale now
	d.exportLocked()
	d.maybeSnapshotLocked()
	return nil
}

// applyLocked applies one point mutation to every in-memory index — the
// maintained sketch and multiset, the root, the rateless state if it
// exists — with d.mu held. enc is pt's canonical encoding. Live mutations
// arrive validated; recovery replays log records through here too and
// reports what a corrupt log makes fail.
func (d *Dataset) applyLocked(op store.Op, pt Point, enc string) error {
	switch op {
	case store.OpAdd:
		held, err := d.maintainer.Update(pt, +1)
		if err != nil {
			return err
		}
		d.root.Add(d.rootKey.Hash(pt))
		// A new occurrence takes the next free occurrence index, so the
		// key multiset stays dense per point.
		if d.exact != nil {
			d.exact.Add(enc, uint32(held))
		}
	case store.OpRemove:
		held, err := d.maintainer.Update(pt, -1)
		if err != nil {
			return err
		}
		d.root.Remove(d.rootKey.Hash(pt))
		// Removing the highest occurrence index keeps indexes dense.
		if d.exact != nil {
			d.exact.Remove(enc, uint32(held-1))
		}
	default:
		return fmt.Errorf("unknown op %d", op)
	}
	return nil
}

// encodedStateLocked encodes the Maintainer's points into the flat list
// a snapshot stores, all carved out of one array, with d.mu held.
func (d *Dataset) encodedStateLocked() [][]byte {
	n, size := d.maintainer.Count(), points.EncodedSize(d.maintainer.Params().Universe.Dim)
	out, buf := make([][]byte, 0, n), make([]byte, 0, n*size)
	d.maintainer.EachPoint(func(pt Point) {
		buf = points.Encode(buf, pt)
		out = append(out, buf[len(buf)-size:])
	})
	return out
}

// writeSnapshotLocked offers the engine the full state: every encoded
// point occurrence plus the serialized sketch, with d.mu held.
func (d *Dataset) writeSnapshotLocked() error {
	blob, err := d.sketchBlobLocked()
	if err != nil {
		return err
	}
	return d.store.WriteSnapshot(d.encodedStateLocked(), blob)
}

// maybeSnapshotLocked snapshots when the engine's log has grown past its
// interval. A failed snapshot is not fatal — the log still holds every
// record, and the next mutation retries; the engine counts the failure.
func (d *Dataset) maybeSnapshotLocked() {
	if d.store.ShouldSnapshot() {
		_ = d.writeSnapshotLocked()
	}
}

// closeStore flushes and closes the dataset's storage engine. Later
// mutations on a durable dataset fail; the in-memory engine is inert.
func (d *Dataset) closeStore() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.Close()
}

// Add inserts one point into the dataset, updating the maintained sketch
// in O(levels) time.
func (d *Dataset) Add(pt Point) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mutateLocked(store.OpAdd, []Point{pt})
}

// Remove deletes one occurrence of pt from the dataset. It returns
// ErrNotPresent if the dataset does not hold the point.
func (d *Dataset) Remove(pt Point) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mutateLocked(store.OpRemove, []Point{pt})
}

// AddBatch inserts every point in pts, taking the dataset lock once for
// the whole batch — the bulk-apply path replication rounds use, where a
// per-point lock round-trip would dominate the O(levels) sketch update.
// The batch is all-or-nothing: on error (any point outside the universe)
// nothing was applied.
func (d *Dataset) AddBatch(pts []Point) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mutateLocked(store.OpAdd, pts)
}

// RemoveBatch deletes one occurrence of every point in pts under a single
// acquisition of the dataset lock. The batch is all-or-nothing: on error
// (any point, counting batch-internal repeats, not present) nothing was
// applied.
func (d *Dataset) RemoveBatch(pts []Point) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mutateLocked(store.OpRemove, pts)
}

// snapshotLocked copies the current points with d.mu held.
func (d *Dataset) snapshotLocked() []Point {
	n, dim := d.maintainer.Count(), d.maintainer.Params().Universe.Dim
	out := make([]Point, 0, n)
	// Every point is carved out of one array: two allocations a snapshot,
	// not one per point.
	coords := make([]int64, n*dim)
	d.maintainer.EachPoint(func(pt Point) {
		p := Point(coords[:dim:dim])
		coords = coords[dim:]
		copy(p, pt)
		out = append(out, p)
	})
	return out
}

// Snapshot returns a copy of the current points. Order is unspecified:
// the protocols treat inputs as multisets.
func (d *Dataset) Snapshot() []Point {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// servePoints is Snapshot for serving sessions: it rejects retired
// datasets, so a session that resolved the dataset just before an
// Unpublish fails with ErrUnknownDataset instead of serving stale data.
func (d *Dataset) servePoints() ([]Point, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.retired {
		return nil, d.errRetired()
	}
	return d.snapshotLocked(), nil
}

// sketchBlob returns the marshaled maintained sketch, so a session can
// serve a consistent snapshot without holding the lock for the network
// round-trip. The blob comes from the dataset's cache: the first
// session after a mutation pays the marshal, every concurrent and later
// session on the unchanged dataset shares the same immutable bytes.
// Retired datasets are rejected like servePoints.
func (d *Dataset) sketchBlob() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.retired {
		return nil, d.errRetired()
	}
	return d.sketchBlobLocked()
}

// sketchBlobLocked returns the cached serialized sketch, rebuilding it
// if a mutation invalidated it. Caller holds d.mu; the returned blob is
// shared and must not be modified.
func (d *Dataset) sketchBlobLocked() ([]byte, error) {
	if d.blobCache == nil {
		blob, err := d.maintainer.Sketch().MarshalBinary()
		if err != nil {
			return nil, err
		}
		d.blobCache = blob
	}
	return d.blobCache, nil
}

// ShardedDataset is one logical point multiset published as K
// independent shard datasets (see Server.PublishSharded). Points route
// to shards by a deterministic hash of their canonical encoding, so two
// nodes publishing the same name under the same parameters agree on
// every point's shard and reconcile shard-by-shard. Mutations route to
// the owning shard; batch mutations group points per shard and take each
// shard lock once. All methods are safe for concurrent use.
type ShardedDataset struct {
	name   string
	m      *cluster.ShardMap
	shards []*Dataset
}

// Name returns the base name the sharded dataset was published under.
func (sd *ShardedDataset) Name() string { return sd.name }

// NumShards returns K.
func (sd *ShardedDataset) NumShards() int { return len(sd.shards) }

// Shards returns the per-shard datasets in shard order. The slice is a
// copy; the datasets are the live shards.
func (sd *ShardedDataset) Shards() []*Dataset {
	return slices.Clone(sd.shards)
}

// Shard returns the dataset that owns pt.
func (sd *ShardedDataset) Shard(pt Point) *Dataset {
	return sd.shards[sd.m.ShardOf(pt)]
}

// Params returns the shared reconciliation parameters of the shards.
func (sd *ShardedDataset) Params() Params { return sd.shards[0].Params() }

// Size returns the total multiset size across shards.
func (sd *ShardedDataset) Size() int {
	n := 0
	for _, d := range sd.shards {
		n += d.Size()
	}
	return n
}

// Add inserts one point into its owning shard.
func (sd *ShardedDataset) Add(pt Point) error { return sd.Shard(pt).Add(pt) }

// Remove deletes one occurrence of pt from its owning shard.
func (sd *ShardedDataset) Remove(pt Point) error { return sd.Shard(pt).Remove(pt) }

// partition groups pts by owning shard, preserving order within a shard.
func (sd *ShardedDataset) partition(pts []Point) [][]Point {
	return sd.m.Partition(pts)
}

// AddBatch inserts every point, grouped so each owning shard's lock is
// taken once. Shards are independent, so a failure in one shard's batch
// does not undo the others; the returned error names the failing shard.
func (sd *ShardedDataset) AddBatch(pts []Point) error {
	for i, part := range sd.partition(pts) {
		if len(part) == 0 {
			continue
		}
		if err := sd.shards[i].AddBatch(part); err != nil {
			return err
		}
	}
	return nil
}

// RemoveBatch deletes one occurrence of every point, grouped per shard
// like AddBatch.
func (sd *ShardedDataset) RemoveBatch(pts []Point) error {
	for i, part := range sd.partition(pts) {
		if len(part) == 0 {
			continue
		}
		if err := sd.shards[i].RemoveBatch(part); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a copy of the full multiset across all shards. Order
// is unspecified.
func (sd *ShardedDataset) Snapshot() []Point {
	var out []Point
	for _, d := range sd.shards {
		out = append(out, d.Snapshot()...)
	}
	return out
}

// Server reconciles many named datasets with many concurrent clients.
// Each accepted connection is one multiplexed (MUX1) connection carrying
// any number of sessions as streams: on a stream the client opens with a
// handshake naming a dataset and a strategy (Client.Session does this),
// the server replies with the dataset's parameters, and the chosen
// protocol runs. A connection that opens with anything but the MUX1 hello
// is refused. Sessions run in their own goroutines; Shutdown stops
// accepting and drains them.
//
//	srv := robustset.NewServer()
//	srv.Publish("sensors/a", paramsA, ptsA)
//	srv.Publish("sensors/b", paramsB, ptsB)
//	go srv.Serve(ln)
//	...
//	srv.Shutdown(ctx)
type Server struct {
	logf           func(format string, args ...any)
	maxMsg         int
	sessionTimeout time.Duration
	maxStreams     int
	metrics        *metrics.Registry // nil-safe no-op when unset
	traces         *TraceLog         // nil-safe no-op when unset
	debugLn        net.Listener      // metrics debug endpoint; closed on Shutdown/Close
	debugDone      chan struct{}     // closed when the debug endpoint goroutine exits
	dataDir        string            // root of durable dataset storage ("" = none)
	fsync          FsyncPolicy
	snapshotEvery  int
	recoveryVerify bool

	mu         sync.Mutex
	datasets   map[string]*Dataset
	sharded    map[string]*ShardedDataset
	claimed    map[string]bool // names a publish in progress holds
	listeners  map[net.Listener]struct{}
	conns      map[net.Conn]struct{}
	inShutdown atomic.Bool
	wg         sync.WaitGroup

	// baseCtx is cancelled when sessions must abort (Close, or Shutdown
	// whose context expired). drainCtx is cancelled earlier, when
	// Shutdown begins: multiplexed connections stop accepting new
	// streams but in-flight sessions keep their baseCtx lifetime.
	baseCtx     context.Context
	cancelBase  context.CancelFunc
	drainCtx    context.Context
	cancelDrain context.CancelFunc
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerLogger directs per-session error reporting (a printf-style
// function, e.g. log.Printf). Default: discard.
func WithServerLogger(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithServerMaxMessageSize caps a single protocol message on every
// session, exactly like the Session option WithMaxMessageSize.
func WithServerMaxMessageSize(n int) ServerOption {
	return func(s *Server) { s.maxMsg = n }
}

// DefaultSessionTimeout bounds one server session (handshake through
// final message) unless overridden with WithServerSessionTimeout. It
// exists so a client that connects and goes silent cannot pin a session
// goroutine and connection forever.
const DefaultSessionTimeout = 2 * time.Minute

// WithServerSessionTimeout overrides the per-session deadline
// (DefaultSessionTimeout). d <= 0 disables the timeout entirely; only do
// that behind infrastructure that bounds connection lifetimes itself.
// The timeout bounds the connection's opening handshake and then each
// stream's session, not the connection: a pipelining client legitimately
// holds one connection open across many rounds.
func WithServerSessionTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.sessionTimeout = d }
}

// WithServerMaxStreamsPerConn bounds the sessions concurrently in
// flight on one multiplexed connection; streams opened beyond the bound
// are reset, which a well-behaved client surfaces as backpressure.
// Default: transport.DefaultMuxMaxStreams (64).
func WithServerMaxStreamsPerConn(n int) ServerOption {
	return func(s *Server) { s.maxStreams = n }
}

// WithServerMetrics directs the server's instrumentation — per-dataset
// session counts, connection bytes, mux stream counts, decode failures,
// session latency histograms — into m (see Metrics for the names).
func WithServerMetrics(m *Metrics) ServerOption {
	return func(s *Server) { s.metrics = m.registry() }
}

// WithServerMetricsListener serves the observability endpoints on ln for
// the server's lifetime: /metrics in Prometheus text exposition format
// and — when the server also has WithServerTracing — /debug/traces as the
// trace log's JSON.
// Unlike a hand-rolled `go m.Serve(ln)`, the listener is owned by the
// server: Shutdown and Close close it and reap its handler goroutines,
// so a server torn down cleanly leaks neither the listener nor the
// endpoint's connections. Combine with WithServerMetrics (in any order)
// to expose the same registry the server instruments.
func WithServerMetricsListener(ln net.Listener) ServerOption {
	return func(s *Server) { s.debugLn = ln }
}

// WithServerTracing records a SessionTrace for every served session into
// tl: phase spans, estimated-vs-actual difference, per-frame-type wire
// bytes. Completed traces also feed the registry's per-strategy session
// families (session_*_total), so /metrics exposes difference and round
// distributions without retaining individual traces. Tracing allocates
// per session; leave it unset on latency-critical deployments and attach
// it when diagnosing.
func WithServerTracing(tl *TraceLog) ServerOption {
	return func(s *Server) { s.traces = tl }
}

// NewServer builds an empty server; Publish datasets, then Serve.
func NewServer(opts ...ServerOption) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	drainCtx, cancelDrain := context.WithCancel(ctx)
	s := &Server{
		logf:           func(string, ...any) {},
		sessionTimeout: DefaultSessionTimeout,
		datasets:       make(map[string]*Dataset),
		sharded:        make(map[string]*ShardedDataset),
		claimed:        make(map[string]bool),
		listeners:      make(map[net.Listener]struct{}),
		conns:          make(map[net.Conn]struct{}),
		baseCtx:        ctx,
		cancelBase:     cancel,
		drainCtx:       drainCtx,
		cancelDrain:    cancelDrain,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.debugLn != nil {
		// The serve helper reaps its handler connections when the
		// listener closes, so closeDebugListener is a complete teardown.
		s.debugDone = make(chan struct{})
		go func(ln net.Listener, h http.Handler) {
			defer close(s.debugDone)
			_ = metrics.ServeHandler(ln, h)
		}(s.debugLn, s.debugHandler())
	}
	return s
}

// debugHandler composes the debug listener's endpoints: /debug/traces
// from the trace log (when tracing is on), everything else — /metrics, or
// a 404 — from the metrics registry.
func (s *Server) debugHandler() http.Handler {
	reg := s.metrics.Handler()
	if s.traces == nil {
		return reg
	}
	tr := s.traces.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/debug/traces" {
			tr.ServeHTTP(w, req)
			return
		}
		reg.ServeHTTP(w, req)
	})
}

// closeDebugListener stops the metrics debug endpoint, waiting for its
// serving goroutine (and handler connections) to wind down.
func (s *Server) closeDebugListener() {
	if s.debugLn == nil {
		return
	}
	s.debugLn.Close()
	<-s.debugDone
}

// newDataset builds an unregistered Dataset with its maintained sketch.
func newDataset(name string, p Params, pts []Point) (*Dataset, error) {
	m, err := NewMaintainer(p, pts)
	if err != nil {
		return nil, fmt.Errorf("robustset: publish %q: %w", name, err)
	}
	return datasetOver(name, m, pts), nil
}

// datasetOver wraps a maintainer and the points it summarizes as an
// unregistered in-memory Dataset with their root.
func datasetOver(name string, m *Maintainer, pts []Point) *Dataset {
	key := points.PrintKey(hashutil.DeriveSeed(m.Params().Seed, "dataset/root"))
	return &Dataset{name: name, maintainer: m, store: store.Mem(), root: key.Of(pts), rootKey: key}
}

// registerLocked enters d in the catalog and binds its gauges to the
// server's registry. Caller holds s.mu and has claimed the name.
func (s *Server) registerLocked(d *Dataset) {
	s.datasets[d.name] = d
	d.mu.Lock()
	defer d.mu.Unlock()
	// The label is a published name, never a client's bytes.
	d.pointsGauge = s.metrics.Gauge("dataset_points:" + d.name)
	d.rootGauge = s.metrics.Gauge("dataset_root_fingerprint:" + d.name)
	d.coldSessions = s.metrics.Counter("server_sessions_cold_total")
	d.exportLocked()
}

// validDatasetName rejects names the wire handshake cannot carry.
func validDatasetName(name string) error {
	if name == "" || len(name) > protocol.MaxDatasetName {
		return fmt.Errorf("robustset: dataset name %q invalid (1..%d bytes)", name, protocol.MaxDatasetName)
	}
	return nil
}

// openFunc builds one unregistered dataset: newDataset in memory, or a
// Server's openDurableDataset on its own storage.
type openFunc func(name string, p Params, pts []Point) (*Dataset, error)

// validPublish refuses what no publish of name can hold, before any name
// is claimed.
func validPublish(name string, p Params, pts []Point) error {
	if err := validDatasetName(name); err != nil {
		return err
	}
	if _, err := p.Normalized(); err != nil {
		return fmt.Errorf("robustset: publish %q: %w", name, err)
	}
	if err := p.Universe.CheckSet(pts); err != nil {
		return fmt.Errorf("robustset: publish %q: %w", name, err)
	}
	return nil
}

// claim reserves names for one publish. It refuses them all if any is
// published, as a dataset or a sharded base name, or claimed by another
// publish in progress. The caller gives the claims back under s.mu.
func (s *Server) claim(names ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		_, plain := s.datasets[name]
		_, sharded := s.sharded[name]
		if plain || sharded || s.claimed[name] {
			return fmt.Errorf("robustset: dataset %q already published", name)
		}
	}
	for _, name := range names {
		s.claimed[name] = true
	}
	return nil
}

// Publish registers a named dataset and builds its maintained sketch.
// The points are copied. Publishing a name that is published, or that
// another publish in progress holds, is an error.
func (s *Server) Publish(name string, p Params, pts []Point) (*Dataset, error) {
	return s.publish(name, p, pts, newDataset)
}

// publish validates, claims name, and only then opens the dataset and
// registers it: a refused publish builds nothing and writes nothing.
func (s *Server) publish(name string, p Params, pts []Point, open openFunc) (*Dataset, error) {
	if err := validPublish(name, p, pts); err != nil {
		return nil, err
	}
	if err := s.claim(name); err != nil {
		return nil, err
	}
	d, err := open(name, p, pts)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.claimed, name)
	if err != nil {
		return nil, err
	}
	s.registerLocked(d)
	return d, nil
}

// PublishSharded registers a dataset split across nshards shard datasets,
// each backed by its own Maintainer. Points hash into shards by their
// canonical encoding under a map derived from p.Seed, so every node that
// publishes the same name with the same parameters and shard count
// partitions identically and the shards reconcile independently — a
// replication round's cost then scales with the delta per shard, and the
// shards of one dataset reconcile concurrently. Each shard is published
// under ShardName(name, i, nshards) ("name~i.k") and is fetchable like
// any other dataset; the base name itself is reserved and not fetchable.
func (s *Server) PublishSharded(name string, p Params, pts []Point, nshards int) (*ShardedDataset, error) {
	return s.publishSharded(name, p, pts, nshards, newDataset)
}

// publishSharded is publish for the base name and every shard name at
// once: all are claimed before the first shard is opened.
func (s *Server) publishSharded(name string, p Params, pts []Point, nshards int, open openFunc) (*ShardedDataset, error) {
	if err := validPublish(name, p, pts); err != nil {
		return nil, err
	}
	if err := validDatasetName(cluster.ShardName(name, nshards-1, nshards)); err != nil {
		return nil, fmt.Errorf("robustset: sharded dataset %q: shard names too long: %w", name, err)
	}
	sm, err := cluster.NewShardMap(nshards, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("robustset: publish sharded %q: %w", name, err)
	}
	names := []string{name}
	for i := 0; i < nshards; i++ {
		names = append(names, cluster.ShardName(name, i, nshards))
	}
	if err := s.claim(names...); err != nil {
		return nil, err
	}
	sd := &ShardedDataset{name: name, m: sm, shards: make([]*Dataset, nshards)}
	for i, part := range sm.Partition(pts) {
		if sd.shards[i], err = open(names[i+1], p, part); err != nil {
			for _, d := range sd.shards[:i] {
				d.closeStore()
			}
			err = fmt.Errorf("robustset: publish sharded %q: shard %d: %w", name, i, err)
			break
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range names {
		delete(s.claimed, n)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range sd.shards {
		s.registerLocked(d)
	}
	s.sharded[name] = sd
	return sd, nil
}

// Unpublish retires a dataset (or a sharded dataset by its base name) at
// runtime: the name disappears from the catalog immediately, later
// handshakes are rejected, and in-flight sessions that already resolved
// the dataset fail with ErrUnknownDataset instead of serving retired
// data. Mutations through retained Dataset handles are rejected the same
// way. Unpublishing an unknown name returns ErrUnknownDataset.
func (s *Server) Unpublish(name string) error {
	s.mu.Lock()
	var retire []*Dataset
	if sd, ok := s.sharded[name]; ok {
		delete(s.sharded, name)
		for _, d := range sd.shards {
			delete(s.datasets, d.name)
			retire = append(retire, d)
		}
	} else if d, ok := s.datasets[name]; ok {
		// A single shard of a sharded dataset cannot be retired on its
		// own: it would leave the ShardedDataset half-dead — mutations to
		// ~1/K of points failing, replicators silently diverging on that
		// shard. Retire the base name instead.
		if base, i, k, isShard := cluster.ParseShardName(name); isShard {
			if sd := s.sharded[base]; sd != nil && k == len(sd.shards) && sd.shards[i] == d {
				s.mu.Unlock()
				return fmt.Errorf("robustset: %q is shard %d of sharded dataset %q; unpublish the base name", name, i, base)
			}
		}
		delete(s.datasets, name)
		retire = append(retire, d)
	}
	s.mu.Unlock()
	if len(retire) == 0 {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	for _, d := range retire {
		d.retire()
		if err := d.closeStore(); err != nil {
			s.logf("robustset: server: unpublish %q: closing store: %v", d.Name(), err)
		}
	}
	return nil
}

// ShardedDataset returns a sharded dataset by its base name, or nil.
func (s *Server) ShardedDataset(name string) *ShardedDataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharded[name]
}

// shardedDatasets returns the published sharded datasets in name order.
func (s *Server) shardedDatasets() []*ShardedDataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.SortedFunc(maps.Values(s.sharded), func(a, b *ShardedDataset) int { return strings.Compare(a.name, b.name) })
}

// Dataset returns a published dataset, or nil.
func (s *Server) Dataset(name string) *Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasets[name]
}

// Datasets returns the published dataset names in sorted order.
func (s *Server) Datasets() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Serve accepts connections on ln and serves each one's sessions until
// Shutdown or Close. It always returns a non-nil error; after a
// clean shutdown the error is ErrServerClosed. Serve may be called on
// multiple listeners concurrently.
func (s *Server) Serve(ln net.Listener) error {
	if !s.trackListener(ln) {
		ln.Close()
		return ErrServerClosed
	}
	defer s.untrackListener(ln)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		if !s.trackConn(conn) {
			conn.Close()
			return ErrServerClosed
		}
		go func() {
			defer s.untrackConn(conn)
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

// ListenAndServe listens on the TCP address addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// handle runs one connection: the MUX1 negotiation, then the multiplexed
// serving loop (one connection, many concurrent sessions).
func (s *Server) handle(conn net.Conn) {
	s.metrics.Counter("server_conns_total").Inc()
	// The mux variant of the limit: the transport becomes the frame
	// carrier, and a maximal legal protocol message must still fit with
	// its mux header.
	t := transport.NewMuxConnLimit(conn, s.maxMsg)
	defer func() {
		st := t.Stats()
		s.metrics.Counter("server_bytes_in_total").Add(st.BytesRecv)
		s.metrics.Counter("server_bytes_out_total").Add(st.BytesSent)
	}()
	ctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	if s.sessionTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.sessionTimeout)
	}
	defer cancel()
	op, err := protocol.RecvOpening(ctx, t)
	if err != nil {
		// RecvOpening already relayed the refusal to the peer.
		s.logf("robustset: server: %v: bad handshake: %v", conn.RemoteAddr(), err)
		return
	}
	if err := protocol.SendMuxAccept(ctx, t, transport.DefaultMuxWindow); err != nil {
		s.logf("robustset: server: %v: mux accept: %v", conn.RemoteAddr(), err)
		return
	}
	// The handshake deadline must not outlive the negotiation: a
	// multiplexed connection is long-lived by design.
	cancel()
	s.serveMux(conn, t, op.MuxHello)
}

// serveMux drives one multiplexed connection: accept streams until the
// server drains or the connection dies, one session per stream, each
// with its own timeout.
func (s *Server) serveMux(conn net.Conn, t transport.Transport, mh protocol.MuxHello) {
	s.metrics.Counter("server_mux_conns_total").Inc()
	m := transport.NewMux(t, false, transport.MuxConfig{
		RecvWindow: transport.DefaultMuxWindow,
		SendWindow: int(mh.Window),
		MaxStreams: s.maxStreams,
		OnDecodeFailure: func(error) {
			s.metrics.Counter("mux_decode_failures_total").Inc()
		},
	})
	defer m.Close()
	var wg sync.WaitGroup
	streams := int64(0)
	for {
		// drainCtx (not baseCtx): Shutdown stops new streams immediately
		// while in-flight sessions drain on their own contexts.
		st, err := m.Accept(s.drainCtx)
		if err != nil {
			break
		}
		streams++
		s.metrics.Counter("server_mux_streams_total").Inc()
		s.metrics.Gauge("server_mux_streams_per_conn_max").SetMax(streams)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			ctx := s.baseCtx
			cancel := context.CancelFunc(func() {})
			if s.sessionTimeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, s.sessionTimeout)
			}
			defer cancel()
			hello, err := protocol.RecvHello(ctx, st)
			if err != nil {
				s.logf("robustset: server: %v: stream %d: bad handshake: %v", conn.RemoteAddr(), st.ID(), err)
				return
			}
			s.serveSession(ctx, st, hello, conn.RemoteAddr())
		}()
	}
	wg.Wait()
}

// serveSession answers one already-opened session hello over its mux
// stream t.
func (s *Server) serveSession(ctx context.Context, t transport.Transport, hello protocol.Hello, remote net.Addr) {
	start := time.Now()
	s.metrics.Counter("server_sessions_total").Inc()
	var tr *trace.Trace
	if s.traces != nil {
		// Tracing is wired per session, not per server: the nil-trace path
		// costs nothing, so untraced deployments keep their hot path.
		tr = trace.New("server")
		tr.Label(hello.Dataset, "", remote.String())
		ctx = trace.NewContext(ctx, tr)
	}
	err := s.runSession(ctx, t, hello)
	// The peer has all it will get. Close this end now — a client's Fetch
	// reads its stream to this close — and keep the books afterwards, off
	// the peer's clock.
	t.Close()
	if err != nil {
		s.metrics.Counter("server_session_errors_total").Inc()
		s.logf("robustset: server: %v: dataset %q (strategy 0x%02x): %v", remote, hello.Dataset, hello.Strategy, err)
	}
	s.metrics.Histogram("server_session_seconds").Observe(time.Since(start))
	if tr != nil {
		tr.Finish(err)
		snap := tr.Snapshot()
		s.traces.add(snap)
		s.recordSessionMetrics(snap)
	}
}

// recordSessionMetrics folds one completed trace into the registry's
// per-strategy session families, so /metrics carries difference sizes,
// round counts and wire attribution in aggregate even though individual
// traces age out of the ring. Label values come from the negotiated
// strategy and the protocol's registered frame names — both closed sets —
// never from untrusted client input.
func (s *Server) recordSessionMetrics(snap *SessionTrace) {
	strat := snap.Strategy
	if strat == "" {
		return // the session failed before a strategy was negotiated
	}
	for _, st := range []string{"estimated_diff", "actual_diff", "rounds", "decode_retries"} {
		if v, ok := snap.Stat(st); ok {
			s.metrics.Counter("session_" + st + "_total:strategy=" + strat).Add(v)
		}
	}
	for _, f := range snap.Frames {
		s.metrics.Counter("session_wire_bytes_total:frame=" + f.Type + ",dir=" + f.Dir).Add(f.Bytes)
	}
}

// runSession performs the dataset/strategy dispatch and the protocol run
// and returns the first failure — relayed to the peer where the protocol
// allows — for serveSession to log.
func (s *Server) runSession(ctx context.Context, t transport.Transport, hello protocol.Hello) error {
	if hello.Shards != 0 {
		return s.runRoots(ctx, t, hello)
	}
	d := s.Dataset(hello.Dataset)
	if d == nil {
		return protocol.RejectHello(ctx, t, fmt.Errorf("%w: %q", ErrUnknownDataset, hello.Dataset))
	}
	// The per-dataset counter is keyed only after the name resolved:
	// registry labels must come from the published catalog, never from
	// an untrusted hello (which could otherwise grow the registry
	// without bound).
	if s.metrics != nil { // no counter name is built while metrics are off
		s.metrics.Counter("server_sessions_total:" + d.Name()).Inc()
	}
	strat, err := strategyFromCode(hello.Strategy, hello.Config)
	if err != nil {
		return protocol.RejectHello(ctx, t, err)
	}
	// Labels come from the negotiated strategy, a closed set — never from
	// raw hello bytes.
	tr := trace.FromContext(ctx)
	tr.Label("", strat.Name(), "")
	params, root, err := d.openSession()
	if err != nil {
		return protocol.RejectHello(ctx, t, err)
	}
	accept := protocol.SendAccept
	same := hello.Root != nil && *hello.Root == root
	if same {
		// The client holds what this dataset holds: the accept says so and
		// the session ends here, whatever the strategy would have sent.
		accept = protocol.SendAcceptSame
		s.metrics.Counter("server_sessions_unchanged_total").Inc()
		tr.Stat(trace.StatUnchanged, 1)
	}
	if err := accept(ctx, t, params); err != nil || same {
		return err
	}
	return strat.serveDataset(ctx, t, params, d)
}

// runRoots answers a roots hello: "same" when the client's shard count
// and parent root are the named sharded dataset's, else every shard's
// root, each read at its own instant as a per-shard handshake reads it.
func (s *Server) runRoots(ctx context.Context, t transport.Transport, hello protocol.Hello) error {
	sd := s.ShardedDataset(hello.Dataset)
	if sd == nil {
		return protocol.RejectHello(ctx, t, fmt.Errorf("%w: %q", ErrUnknownDataset, hello.Dataset))
	}
	if s.metrics != nil { // no counter name is built while metrics are off
		s.metrics.Counter("server_sessions_total:" + sd.Name()).Inc()
	}
	var (
		params Params
		parent points.Print
		err    error
		roots  = make([]points.Print, len(sd.shards))
	)
	for i, d := range sd.shards {
		if params, roots[i], err = d.openSession(); err != nil {
			return protocol.RejectHello(ctx, t, err)
		}
		parent.Merge(roots[i])
	}
	if hello.Shards == len(roots) && *hello.Root == parent {
		s.metrics.Counter("server_sessions_unchanged_total").Inc()
		trace.FromContext(ctx).Stat(trace.StatUnchanged, 1)
		return protocol.SendAcceptSame(ctx, t, params)
	}
	return protocol.SendAcceptRoots(ctx, t, params, roots)
}

func (s *Server) trackListener(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inShutdown.Load() {
		return false
	}
	s.listeners[ln] = struct{}{}
	return true
}

func (s *Server) untrackListener(ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, ln)
}

func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inShutdown.Load() {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// closeListeners stops accepting; safe to call repeatedly.
func (s *Server) closeListeners() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ln := range s.listeners {
		ln.Close()
	}
}

// closeConns force-closes every in-flight session connection.
func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close()
	}
}

// closeStores flushes and closes every published dataset's storage
// engine — the final fsync of a durable server's life. Mutations on
// durable datasets fail afterwards; in-memory datasets are unaffected.
func (s *Server) closeStores() {
	s.mu.Lock()
	ds := make([]*Dataset, 0, len(s.datasets))
	for _, d := range s.datasets {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		if err := d.closeStore(); err != nil {
			s.logf("robustset: server: closing store of %q: %v", d.Name(), err)
		}
	}
}

// Shutdown gracefully stops the server: it closes the listeners, waits
// for in-flight sessions to finish, then closes the dataset storage
// engines. If ctx expires first, the remaining sessions are aborted
// (their context is cancelled and their connections closed) and ctx's
// error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.closeListeners()
	// Stop multiplexed connections from accepting new streams; their
	// in-flight sessions drain below like any other.
	s.cancelDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeStores()
		s.closeDebugListener()
		return nil
	case <-ctx.Done():
		s.cancelBase()
		s.closeConns()
		<-done
		s.closeStores()
		s.closeDebugListener()
		return ctx.Err()
	}
}

// Close immediately stops the server, aborting in-flight sessions and
// closing the dataset storage engines.
func (s *Server) Close() error {
	s.inShutdown.Store(true)
	s.closeListeners()
	s.cancelDrain()
	s.cancelBase()
	s.closeConns()
	s.wg.Wait()
	s.closeStores()
	s.closeDebugListener()
	return nil
}
