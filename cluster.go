package robustset

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"robustset/internal/cluster"
	"robustset/internal/metrics"
	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// This file is the public face of the anti-entropy replication
// subsystem: a Replicator wraps a Server and continuously pulls every
// shared dataset from a rotating selection of peers, applying the
// reconciled diffs locally. N replicators pointed at each other converge
// the cluster — the gossip-style generalization of the repo's two-party
// sessions. The selection, backoff and sharding policies live in
// internal/cluster; the wire protocol is the unchanged Rateless strategy,
// so a Replicator interoperates with any robustset Server.

// Peer identifies one remote Server a Replicator reconciles with.
type Peer struct {
	// Name is the peer's stable identifier, used for selection, backoff
	// and stats. Empty defaults to Addr.
	Name string
	// Addr is the TCP address of the peer's Server.
	Addr string
}

func (p Peer) name() string {
	if p.Name != "" {
		return p.Name
	}
	return p.Addr
}

// PeerSelector picks which of the eligible (not backed-off) peers an
// anti-entropy round contacts. Implementations are provided by
// SelectRoundRobin and SelectRandomK; the interface is exported so tests
// can inject deterministic policies. Selectors are called with the round
// number under the replicator's round lock and need not be safe for
// concurrent use.
type PeerSelector interface {
	Select(eligible []string, round int) []string
}

// SelectRoundRobin returns a selector that cycles through the peer list
// k peers per round in sorted order, sweeping every peer once per
// ceil(n/k) rounds. k <= 0 means one peer per round.
func SelectRoundRobin(k int) PeerSelector { return cluster.RoundRobin{K: k} }

// SelectRandomK returns the classic gossip selector: k distinct peers
// uniformly at random each round, deterministically seeded.
func SelectRandomK(k int, seed uint64) PeerSelector { return cluster.NewRandomK(k, seed) }

// RoundStats records one anti-entropy round.
type RoundStats struct {
	// Round is the 0-based round number.
	Round int
	// Peers are the names of the peers the round contacted.
	Peers []string
	// Sessions counts the (peer, dataset) pairs the round reconciled,
	// failed and skipped ones included, and shards settled by their
	// parent's root.
	Sessions int
	// Added and Removed count the diff points applied to local datasets.
	Added, Removed int
	// Bytes is the total wire traffic of the round, both directions.
	Bytes int64
	// Skipped counts sessions dropped because the peer does not publish
	// the dataset — expected in mixed catalogs, not an error — and the
	// shards of a sharded dataset the peer refused to settle by roots or
	// shards under another seed or shard count.
	Skipped int
	// Errors counts failed sessions (unreachable peer, protocol error).
	Errors int
	// Converged reports a clean round that applied no diffs: at least
	// one dataset actually reconciled, every contacted peer answered,
	// and nothing changed locally.
	Converged bool
	// Duration is the round's wall time.
	Duration time.Duration
}

// ReplicatorStats aggregates a replicator's lifetime counters.
type ReplicatorStats struct {
	Rounds         int
	Added, Removed int
	Bytes          int64
	Errors         int
	// ConvergedStreak is the number of consecutive most-recent rounds
	// that were converged — the cluster-quiescence signal dashboards
	// watch.
	ConvergedStreak int
}

// Replicator runs continuous anti-entropy over a Server's datasets: each
// round selects peers, reconciles every published dataset (including
// every shard of a sharded dataset) against them with the Rateless
// strategy, and applies the resulting diffs through the dataset's batch
// mutations. Replication needs the peer's actual points, which only an
// exact strategy returns, and Rateless streams cells until it decodes, so
// no difference is too large for a round: any two replicas converge.
// (Robust and Adaptive answer a fetch with a multiset close to the peer's
// in EMD, for a Client that wants that.) A session opens with the
// dataset's root (ClientSession.FetchDataset): a peer that holds
// the same multiset says so in its accept and the session is over — a
// converged dataset costs one handshake and no snapshot. A sharded
// dataset is first settled as a whole: one roots exchange per peer
// carries the sum of its shard roots, and a peer that holds the same
// shards says so, or answers with its own shard roots, so that only the
// shards that differ open sessions. A peer that refuses the exchange, or
// shards under another seed or count, reconciles no shard of that dataset:
// its shards hold other points than the local ones. From the second fetch
// of a dataset that differed, its session opens warm.
// Datasets reconcile concurrently on a bounded worker pool; within one
// dataset the selected peers are visited sequentially, each against the
// dataset as it then stands (a fresh snapshot whenever the peer
// differs), so concurrent peers cannot double-apply the same missing
// points. Unreachable peers back off exponentially.
//
// By default diffs apply union-style — points the peer has and the local
// dataset lacks are added, local-only points are kept — which is
// monotone and converges N mutually replicating nodes to the identical
// multiset. WithMirror instead makes the local dataset track the peer
// exactly (removals applied too); that mode is for single-upstream
// follower replicas, not mutual gossip.
type Replicator struct {
	srv      *Server
	interval time.Duration
	timeout  time.Duration
	workers  int
	selector PeerSelector
	backoff  cluster.Backoff
	logf     func(format string, args ...any)
	maxMsg   int
	mirror   bool
	metrics  *metrics.Registry // nil-safe no-op when unset
	traces   *TraceLog         // nil-safe no-op when unset

	// roundMu serializes rounds; mu guards the fields below.
	roundMu sync.Mutex
	mu      sync.Mutex
	peers   map[string]*peerEntry
	round   int
	totals  ReplicatorStats
	last    RoundStats
	closed  bool
}

type peerEntry struct {
	peer  Peer
	state cluster.PeerState
	// client is the peer's Client, built with the entry: every dataset
	// session of every round is a pipelined stream of its one connection,
	// which the first session dials.
	client *Client
}

// ReplicatorOption configures a Replicator.
type ReplicatorOption func(*Replicator) error

// WithRoundInterval sets the pause between rounds in Replicator.Run.
// Default: 1s.
func WithRoundInterval(d time.Duration) ReplicatorOption {
	return func(r *Replicator) error {
		if d <= 0 {
			return fmt.Errorf("robustset: round interval %v not positive", d)
		}
		r.interval = d
		return nil
	}
}

// WithRoundTimeout bounds one whole round — every peer session it runs —
// with a context deadline. Default: 30s; 0 disables.
func WithRoundTimeout(d time.Duration) ReplicatorOption {
	return func(r *Replicator) error {
		if d < 0 {
			return fmt.Errorf("robustset: round timeout %v negative", d)
		}
		r.timeout = d
		return nil
	}
}

// WithReplicatorWorkers bounds the number of datasets reconciling
// concurrently within a round. Default: 4.
func WithReplicatorWorkers(n int) ReplicatorOption {
	return func(r *Replicator) error {
		if n < 1 {
			return fmt.Errorf("robustset: worker count %d < 1", n)
		}
		r.workers = n
		return nil
	}
}

// WithPeerSelector sets the per-round peer selection policy. Default:
// SelectRoundRobin(1).
func WithPeerSelector(sel PeerSelector) ReplicatorOption {
	return func(r *Replicator) error {
		if sel == nil {
			return errors.New("robustset: nil peer selector")
		}
		r.selector = sel
		return nil
	}
}

// WithPeerBackoff tunes the exponential backoff for unreachable peers:
// first retry after base, doubling to at most max. Default: 1s → 2min.
func WithPeerBackoff(base, max time.Duration) ReplicatorOption {
	return func(r *Replicator) error {
		if base <= 0 || max < base {
			return fmt.Errorf("robustset: backoff base %v / max %v invalid", base, max)
		}
		r.backoff = cluster.Backoff{Base: base, Max: max}
		return nil
	}
}

// WithReplicatorLogger directs per-session error reporting. Default:
// discard.
func WithReplicatorLogger(logf func(format string, args ...any)) ReplicatorOption {
	return func(r *Replicator) error {
		r.logf = logf
		return nil
	}
}

// WithReplicatorMaxMessageSize caps a single protocol message on every
// peer session, like the Session option WithMaxMessageSize.
func WithReplicatorMaxMessageSize(n int) ReplicatorOption {
	return func(r *Replicator) error {
		if n < 0 || n > transport.MaxFrameSize {
			return fmt.Errorf("robustset: max message size %d outside [0,%d]", n, transport.MaxFrameSize)
		}
		r.maxMsg = n
		return nil
	}
}

// WithMirror switches diff application from union to mirror: the local
// dataset is made identical to the fetched reconciliation result,
// removals included. Use only with a single upstream peer — mirroring
// against multiple mutually replicating peers thrashes instead of
// converging.
func WithMirror() ReplicatorOption {
	return func(r *Replicator) error {
		r.mirror = true
		return nil
	}
}

// WithReplicatorMux does nothing: every replicator dials each peer once
// and reconciles every dataset of every round as a pipelined stream of
// that connection.
//
// Deprecated: the option predates multiplexing being the only transport
// and is kept because benchmark/ passes it; drop it from call sites.
func WithReplicatorMux() ReplicatorOption {
	return func(*Replicator) error { return nil }
}

// WithReplicatorMetrics directs the replicator's instrumentation —
// round counts, session errors, wire bytes, round latency histograms —
// into m (see Metrics for the names).
func WithReplicatorMetrics(m *Metrics) ReplicatorOption {
	return func(r *Replicator) error {
		r.metrics = m.registry()
		return nil
	}
}

// WithReplicatorTracing records a trace tree for every round into tl:
// one root per round, one child per (peer, dataset) session and per
// (peer, sharded dataset) roots exchange carrying its phase spans and
// wire-byte attribution. Round traces are
// judged against the log's slow/expensive thresholds like any session.
func WithReplicatorTracing(tl *TraceLog) ReplicatorOption {
	return func(r *Replicator) error {
		r.traces = tl
		return nil
	}
}

// NewReplicator builds a replicator for srv's datasets against the given
// peers. Peers can also be added and removed later.
func NewReplicator(srv *Server, peers []Peer, opts ...ReplicatorOption) (*Replicator, error) {
	if srv == nil {
		return nil, errors.New("robustset: nil server")
	}
	r := &Replicator{
		srv:      srv,
		interval: time.Second,
		timeout:  30 * time.Second,
		workers:  4,
		selector: cluster.RoundRobin{K: 1},
		backoff:  cluster.Backoff{Base: time.Second, Max: 2 * time.Minute},
		logf:     func(string, ...any) {},
		peers:    make(map[string]*peerEntry),
	}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	for _, p := range peers {
		if err := r.AddPeer(p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// AddPeer registers a peer. Adding a name twice is an error, and so is
// a name with a comma: it labels the peer's metrics, whose label list
// is comma-separated.
func (r *Replicator) AddPeer(p Peer) error {
	if p.Addr == "" {
		return errors.New("robustset: peer with empty address")
	}
	if strings.Contains(p.name(), ",") {
		return fmt.Errorf("robustset: peer name %q holds a comma", p.name())
	}
	cl, err := newClient(p.Addr, WithClientMaxMessageSize(r.maxMsg), WithClientLogger(r.logf))
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	name := p.name()
	if _, dup := r.peers[name]; dup {
		return fmt.Errorf("robustset: peer %q already registered", name)
	}
	r.peers[name] = &peerEntry{peer: p, client: cl}
	return nil
}

// RemovePeer drops a peer by name (or address, for unnamed peers) and
// closes its Client: a session still running on it fails.
func (r *Replicator) RemovePeer(name string) error {
	r.mu.Lock()
	e, ok := r.peers[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("robustset: unknown peer %q", name)
	}
	delete(r.peers, name)
	r.mu.Unlock()
	return e.client.Close()
}

// Peers returns the registered peers in unspecified order.
func (r *Replicator) Peers() []Peer {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Peer, 0, len(r.peers))
	for _, e := range r.peers {
		out = append(out, e.peer)
	}
	return out
}

// Stats returns the lifetime counters.
func (r *Replicator) Stats() ReplicatorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals
}

// LastRound returns the most recent round's stats (zero before the
// first round).
func (r *Replicator) LastRound() RoundStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := r.last
	last.Peers = append([]string(nil), last.Peers...)
	return last
}

// Run drives rounds until ctx is done, pausing the configured interval
// between them, and returns ctx.Err(). Round failures (unreachable
// peers, protocol errors) are absorbed into stats and backoff — a
// replicator is a background process that outlives individual faults.
func (r *Replicator) Run(ctx context.Context) error {
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	for {
		if _, err := r.RunRound(ctx); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// RunRound executes one anti-entropy round: select peers, reconcile
// every local dataset with each, apply the diffs, update backoff state.
// Rounds serialize; concurrent calls queue. The returned error is
// non-nil only when ctx ended the round early — per-session failures are
// reported through RoundStats.Errors and the logger.
func (r *Replicator) RunRound(ctx context.Context) (RoundStats, error) {
	r.roundMu.Lock()
	defer r.roundMu.Unlock()
	start := time.Now()
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	var roundTr *trace.Trace
	if r.traces != nil {
		// One root per round; settleShards and syncDataset attach a child
		// per roots exchange and per session, so the log renders round →
		// peer/dataset → phase spans as one tree.
		roundTr = trace.New("round")
		ctx = trace.NewContext(ctx, roundTr)
	}

	r.mu.Lock()
	round := r.round
	r.round++
	eligible := make([]string, 0, len(r.peers))
	for name, e := range r.peers {
		if e.state.Eligible(start) {
			eligible = append(eligible, name)
		}
	}
	selected := r.selector.Select(eligible, round)
	targets := make([]Peer, 0, len(selected))
	for _, name := range selected {
		if e, ok := r.peers[name]; ok {
			targets = append(targets, e.peer)
		}
	}
	r.mu.Unlock()

	stats := RoundStats{Round: round, Peers: selected}
	datasets := r.srv.Datasets()
	sharded := r.srv.shardedDatasets()

	var (
		resMu    sync.Mutex
		peerFail = make(map[string]bool, len(targets))
		peerOK   = make(map[string]bool, len(targets))
		diverged = make(map[string]int64, len(targets))   // per peer: shards a roots exchange left open
		peersOf  = make(map[string][]Peer, len(datasets)) // per dataset: the peers it reconciles with
	)
	// A shard reconciles only with the peers its roots exchange reports it
	// different with, a plain dataset with every selected peer.
	for _, sd := range sharded {
		for _, d := range sd.shards {
			peersOf[d.name] = nil
		}
	}
	for _, name := range datasets {
		if _, isShard := peersOf[name]; !isShard {
			peersOf[name] = targets
		}
	}
	failedFast := func(peer string) bool {
		resMu.Lock()
		defer resMu.Unlock()
		return peerFail[peer]
	}
	// record books the outcome of n sessions; resMu is held.
	record := func(peer, name string, n int, err error) {
		stats.Sessions += n
		outcome := "ok"
		switch {
		case err == nil:
			peerOK[peer] = true
		case isSkip(err):
			stats.Skipped += n
			peerOK[peer] = true
			outcome = "skip"
		default:
			stats.Errors++
			peerFail[peer] = true
			outcome = "error"
			r.logf("robustset: replicator: peer %s: dataset %q: %v", peer, name, err)
		}
		if r.metrics != nil { // no counter name is built while metrics are off
			r.metrics.Counter("replicator_sessions_total:peer=" + peer + ",outcome=" + outcome).Add(int64(n))
		}
	}

	// Roots first: one exchange per (sharded dataset, peer) settles every
	// shard whose root the peer holds and names the others. A peer that
	// refuses the exchange, or shards under another seed or count, routes
	// points to other shards than this node does: none of its shards is
	// reconciled this round, and all K count as skipped.
	r.fanOut(len(sharded), func(i int) {
		sd := sharded[i]
		for _, peer := range targets {
			if failedFast(peer.name()) {
				continue
			}
			open, bytes, err := r.settleShards(ctx, peer, sd)
			resMu.Lock()
			stats.Bytes += bytes
			n := len(sd.shards) - len(open)
			switch {
			case err == nil:
				for _, d := range open {
					peersOf[d.name] = append(peersOf[d.name], peer)
				}
				diverged[peer.name()] += int64(len(open))
			case !isSkip(err):
				n = 1 // one failed exchange
			}
			record(peer.name(), sd.name, n, err)
			resMu.Unlock()
		}
	})

	// Then one task per dataset with peers to reconcile with, over the
	// pool; within a task the peers are visited sequentially, each session
	// reading the dataset afresh, so a point learned from one peer is not
	// re-added from the next.
	open := slices.DeleteFunc(datasets, func(name string) bool { return len(peersOf[name]) == 0 })
	r.fanOut(len(open), func(i int) {
		name := open[i]
		for _, peer := range peersOf[name] {
			// A peer that already failed this round is skipped for the
			// remaining datasets; backoff handles the retry.
			if failedFast(peer.name()) {
				continue
			}
			added, removed, bytes, err := r.syncDataset(ctx, peer, name)
			resMu.Lock()
			stats.Bytes += bytes
			stats.Added += added
			stats.Removed += removed
			record(peer.name(), name, 1, err)
			resMu.Unlock()
		}
	})

	now := time.Now()
	r.mu.Lock()
	for name, e := range r.peers {
		switch {
		case peerFail[name]:
			e.state.Fail(now, r.backoff)
		case peerOK[name]:
			e.state.Succeed()
		}
	}
	// Converged requires at least one session that actually reconciled:
	// a round with no peers, no datasets, or nothing but unknown-dataset
	// skips proves nothing about quiescence.
	stats.Converged = len(targets) > 0 && stats.Errors == 0 &&
		stats.Sessions > stats.Skipped &&
		stats.Added == 0 && stats.Removed == 0
	stats.Duration = time.Since(start)
	r.totals.Rounds++
	r.totals.Added += stats.Added
	r.totals.Removed += stats.Removed
	r.totals.Bytes += stats.Bytes
	r.totals.Errors += stats.Errors
	if stats.Converged {
		r.totals.ConvergedStreak++
	} else {
		r.totals.ConvergedStreak = 0
	}
	r.last = stats
	r.mu.Unlock()

	if r.metrics != nil { // no gauge name is built while metrics are off
		for name := range diverged {
			r.metrics.Gauge("replicator_peer_divergence:peer=" + name).Set(diverged[name])
		}
	}
	r.metrics.Counter("replicator_rounds_total").Inc()
	r.metrics.Counter("replicator_session_errors_total").Add(int64(stats.Errors))
	r.metrics.Counter("replicator_bytes_total").Add(stats.Bytes)
	r.metrics.Histogram("replicator_round_seconds").Observe(stats.Duration)

	if roundTr != nil {
		roundTr.Stat("sessions", int64(stats.Sessions))
		roundTr.Stat("added", int64(stats.Added))
		roundTr.Stat("removed", int64(stats.Removed))
		roundTr.Stat("skipped", int64(stats.Skipped))
		roundTr.Stat("errors", int64(stats.Errors))
		// Per-session failures are absorbed into stats, not the round's
		// outcome; only a context-ended round finishes with an error.
		roundTr.Finish(ctx.Err())
		r.traces.add(roundTr.Snapshot())
	}
	return stats, ctx.Err()
}

// fanOut runs task(i) for every i in [0, n) on at most r.workers
// goroutines, on this one when one is all it needs.
func (r *Replicator) fanOut(n int, task func(int)) {
	workers := min(r.workers, n)
	if workers <= 1 {
		for i := range n {
			task(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				task(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// rootsHook runs between a roots exchange's answer and the comparison;
// tests mutate a shard there.
var rootsHook = func() {}

// errOtherSharding is a roots exchange answered under another seed or
// shard count than the local one.
var errOtherSharding = errors.New("sharded under another seed or shard count")

// settleShards runs the roots exchange of sd with peer: the hello carries
// the sum of the local shard roots, and the peer answers "same" or with
// its shard roots. It returns the shards whose root, read again after the
// answer, is not the peer's — after "same", not the one summed — or
// errOtherSharding when the peer shards under another count or seed.
func (r *Replicator) settleShards(ctx context.Context, peer Peer, sd *ShardedDataset) (open []*Dataset, bytes int64, err error) {
	if parent := trace.FromContext(ctx); parent != nil {
		child := parent.Child("peer-session")
		child.Label(sd.name, coldRateless.Name(), peer.name())
		ctx = trace.NewContext(ctx, child)
		defer func() { child.Finish(err) }()
	}
	cl, err := r.clientFor(peer)
	if err != nil {
		return nil, 0, err
	}
	roots := make([]points.Print, len(sd.shards))
	var sum points.Print
	for i, d := range sd.shards {
		roots[i] = d.rootPrint()
		sum.Merge(roots[i])
	}
	tr := trace.FromContext(ctx)
	var acc protocol.Accept
	st, err := cl.exchange(ctx, func(t transport.Transport) (err error) {
		sp := tr.Begin("hello")
		defer sp.End()
		acc, err = protocol.RunHello(ctx, t, protocol.Hello{
			Strategy: coldRateless.code(), Dataset: sd.name, Root: &sum, Shards: len(roots),
		})
		return err
	})
	if err != nil {
		return nil, st.Total(), err
	}
	if seed := sd.Params().Seed; acc.Params.Seed != seed || !acc.Same && len(acc.Roots) != len(roots) {
		err = fmt.Errorf("%w: seed %d and %d shards here, the peer answered under seed %d with %d shard roots",
			errOtherSharding, seed, len(roots), acc.Params.Seed, len(acc.Roots))
		r.logf("robustset: replicator: peer %s: dataset %q: %v", peer.name(), sd.name, err)
		return nil, st.Total(), err
	}
	rootsHook()
	if acc.Same {
		tr.Stat(trace.StatUnchanged, 1)
		acc.Roots = roots
	}
	for i, d := range sd.shards {
		if d.rootPrint() != acc.Roots[i] {
			open = append(open, d)
		}
	}
	return open, st.Total(), nil
}

// syncDataset reconciles one local dataset against one peer and applies
// the diff — the peer's points the fetch's snapshot lacks, and in mirror
// mode the snapshot's points the peer lacks — if the peer did not answer
// "same" at the handshake. Returns the applied add/remove counts and the
// session's wire bytes. The session runs as one pipelined stream of the
// peer's Client, whose first session dials; concurrent dataset workers
// hitting the same peer share its connection, so a 64-shard round is one
// dial and 64 parallel streams.
func (r *Replicator) syncDataset(ctx context.Context, peer Peer, name string) (added, removed int, bytes int64, err error) {
	d := r.srv.Dataset(name)
	if d == nil {
		return 0, 0, 0, nil // unpublished mid-round
	}
	if parent := trace.FromContext(ctx); parent != nil {
		child := parent.Child("peer-session")
		child.Label(name, coldRateless.Name(), peer.name())
		ctx = trace.NewContext(ctx, child)
		defer func() { child.Finish(err) }()
	}
	cl, err := r.clientFor(peer)
	if err != nil {
		return 0, 0, 0, err
	}
	cs, err := cl.Session(name, coldRateless)
	if err != nil {
		return 0, 0, 0, err
	}
	res, st, err := cs.FetchDataset(ctx, d)
	if err != nil || res.Unchanged {
		return 0, 0, st.Total(), err // converged at the handshake, or failed
	}
	add, rem := points.MultisetDiff(res.SPrime, res.local)
	if len(add) > 0 {
		if err := d.AddBatch(add); err != nil {
			return 0, 0, st.Total(), err
		}
	}
	if r.mirror && len(rem) > 0 {
		if err := d.RemoveBatch(rem); err != nil {
			return len(add), 0, st.Total(), err
		}
		removed = len(rem)
	}
	return len(add), removed, st.Total(), nil
}

// clientFor returns the peer's Client. A lost connection is not handled
// here — the Client redials itself — so the handle stays valid for the
// peer's lifetime.
func (r *Replicator) clientFor(peer Peer) (*Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClientClosed
	}
	e, ok := r.peers[peer.name()]
	if !ok {
		return nil, fmt.Errorf("robustset: unknown peer %q", peer.name())
	}
	return e.client, nil
}

// Close closes the replicator's peer connections. Further sessions fail
// with ErrClientClosed; connectionless state (stats, peers) remains
// readable.
func (r *Replicator) Close() error {
	r.mu.Lock()
	r.closed = true
	clients := make([]*Client, 0, len(r.peers))
	for _, e := range r.peers {
		clients = append(clients, e.client)
	}
	r.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
	return nil
}

// isSkip reports whether err is the peer's rejection of a dataset it does
// not publish — an expected condition in mixed catalogs — or a roots
// answer under another sharding: a skip rather than a peer failure.
func isSkip(err error) bool {
	var re *protocol.RemoteError
	return errors.Is(err, errOtherSharding) ||
		errors.As(err, &re) && strings.Contains(re.Reason, ErrUnknownDataset.Error())
}
