package robustset

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"

	"robustset/internal/emd"
	"robustset/internal/protocol"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// Strategy selects which reconciliation protocol a Session runs. The
// seven implementations — Robust, Adaptive, ExactIBLT, Rateless, Ranged,
// CPI and Naive
// — wrap the module's wire protocols behind one interface, so serving and
// fetching code is written once and the protocol is a configuration
// choice. The interface is closed (its lower-case methods cannot be
// implemented outside this package) because both endpoints must agree on
// the wire semantics of every strategy code.
type Strategy interface {
	// Name returns the strategy's stable identifier, matching the names
	// used in bench reports.
	Name() string
	// code is the wire code carried in a server handshake.
	code() byte
	// helloConfig encodes the strategy knobs the serving side must adopt
	// for the two parties' sketches to be compatible.
	helloConfig() []byte
	// serve runs Alice's side: answer one fetching peer over t.
	serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error
	// fetch runs Bob's side and returns his reconciled multiset.
	fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error)
}

// datasetStrategy is implemented by strategies that serve a published
// dataset from state it maintains instead of a snapshot of its points.
// Like serve, serveDataset relays to the peer whatever keeps it from
// starting.
type datasetStrategy interface {
	serveDataset(ctx context.Context, t transport.Transport, p Params, d *Dataset) error
}

// serveDataset answers one session of strat against d, which has accepted
// it: from d's served state if the strategy keeps one there, else from a
// snapshot of its points.
func serveDataset(ctx context.Context, t transport.Transport, strat Strategy, p Params, d *Dataset) error {
	if ds, ok := strat.(datasetStrategy); ok {
		return ds.serveDataset(ctx, t, p, d)
	}
	pts, err := d.servePoints()
	if err != nil {
		// The dataset was retired between the handshake and here; relay the
		// rejection so the client fails with a RemoteError.
		return protocol.SendError(ctx, t, err)
	}
	return strat.serve(ctx, t, p, pts)
}

// twoWayStrategy is implemented by strategies that support the symmetric
// Session.Sync mode.
type twoWayStrategy interface {
	sync(ctx context.Context, t transport.Transport, p Params, pts []Point) (*SyncResult, error)
}

// validatingStrategy is implemented by strategies with knobs that can be
// out of range; NewSession rejects invalid values up front instead of
// letting them desynchronize the endpoints mid-protocol.
type validatingStrategy interface {
	validate() error
}

// maxCPICapacity bounds the CPI sketch size, matching the 1<<24 ceiling
// every other wire-supplied capacity in the protocols enforces — a
// handshake can never drive a pathological allocation.
const maxCPICapacity = 1 << 24

// TransferStats reports the bytes and messages an endpoint exchanged
// during a connection-oriented reconciliation.
type TransferStats = transport.Stats

// SyncResult is the outcome of a Session.Fetch or Session.Sync: the
// local party's updated multiset, plus the robust protocol's per-level
// diagnostics when the strategy is robust.
type SyncResult struct {
	// SPrime is the reconciled multiset (S'_B). For exact strategies it
	// equals the remote set exactly on success; for robust strategies it
	// is close to the remote set in Earth Mover's Distance.
	SPrime []Point
	// Robust carries the robust protocol's detailed result (chosen level,
	// added/removed points, per-level outcomes); nil for ExactIBLT,
	// Rateless, CPI and Naive.
	Robust *Result
	// Params are the parameters the exchange actually ran under. When
	// fetching a named dataset these are the server's (adopted through
	// the handshake), so callers can interpret SPrime — e.g. write it
	// under the right universe — without out-of-band agreement.
	Params Params
	// Unchanged reports that a ClientSession.FetchDataset ended at the
	// handshake: the server's dataset has the root aggregate of the local
	// one, so the two hold the same multiset and nothing was exchanged or
	// copied. SPrime is nil — the reconciled multiset is the local dataset
	// as it stands.
	Unchanged bool

	metric Metric
	// local is the multiset the exchange ran against: the caller's points,
	// or the snapshot FetchDataset took once the server had not said
	// "same". The replicator diffs exact results against it.
	local []Point
}

// EMD returns the exact Earth Mover's Distance between the result and
// other under the session's metric (WithMetric, default L1). It solves an
// assignment problem in O(n³); intended for diagnostics and tests, not
// hot paths.
func (r *SyncResult) EMD(other []Point) (float64, error) {
	m := r.metric
	if m == nil {
		m = L1
	}
	return emd.Exact(r.SPrime, other, m)
}

// ---------------------------------------------------------------------
// Strategy implementations

// Robust is the paper's one-shot robust protocol: the serving side pushes
// one message carrying the full multiresolution sketch; the fetching side
// reconciles at the finest decodable level. It is the only strategy that
// also supports the symmetric Session.Sync mode.
type Robust struct{}

// Name implements Strategy.
func (Robust) Name() string { return "robust-oneshot" }

func (Robust) code() byte          { return protocol.StrategyRobust }
func (Robust) helloConfig() []byte { return nil }

func (Robust) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	return protocol.RunPushAlice(ctx, t, p, pts)
}

// serveDataset pushes the maintained sketch — O(sketch size) per session
// instead of O(n·levels).
func (Robust) serveDataset(ctx context.Context, t transport.Transport, _ Params, d *Dataset) error {
	blob, err := d.sketchBlob()
	if err != nil {
		return protocol.SendError(ctx, t, err)
	}
	return protocol.RunPushBlobAlice(ctx, t, blob)
}

func (Robust) fetch(ctx context.Context, t transport.Transport, _ Params, local []Point) (*SyncResult, error) {
	res, err := protocol.RunPushBob(ctx, t, local)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: res.SPrime, Robust: res}, nil
}

func (Robust) sync(ctx context.Context, t transport.Transport, p Params, pts []Point) (*SyncResult, error) {
	res, err := protocol.RunTwoWay(ctx, t, p, pts)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: res.SPrime, Robust: res}, nil
}

// AdaptiveOptions tunes the fetching side of the Adaptive strategy.
type AdaptiveOptions = protocol.EstimateOpts

// Adaptive is the estimate-first robust protocol: tiny per-level
// difference estimators first, then exactly one level table sized to the
// estimated difference (plus retries if the fetching side asks).
type Adaptive struct {
	// Options tunes the fetching side; the zero value uses the defaults
	// documented on AdaptiveOptions.
	Options AdaptiveOptions
}

// Name implements Strategy.
func (Adaptive) Name() string { return "robust-adaptive" }

func (a Adaptive) validate() error {
	if err := a.Options.Validate(); err != nil {
		return fmt.Errorf("robustset: adaptive options: %w", err)
	}
	return nil
}

func (Adaptive) code() byte          { return protocol.StrategyAdaptive }
func (Adaptive) helloConfig() []byte { return nil }

func (Adaptive) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	return protocol.RunEstimateAlice(ctx, t, p, pts)
}

// serveDataset sends the dataset's cached estimator body and fills level
// tables from its Maintainer's cell counts; the first session after a
// mutation, with no body to send, is the stateless one over a snapshot
// and leaves its body behind. Trace and cold-session counter say which.
func (Adaptive) serveDataset(ctx context.Context, t transport.Transport, p Params, d *Dataset) error {
	cold := false
	err := protocol.RunEstimateServed(ctx, t, func(k int) (*protocol.EstimateOpening, error) {
		return d.estimateOpening(p, k, &cold)
	})
	d.recordServed(ctx, cold)
	return err
}

func (a Adaptive) fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error) {
	res, err := protocol.RunEstimateBob(ctx, t, p, local, a.Options)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: res.SPrime, Robust: res}, nil
}

// ExactConfig parameterizes the exact IBLT synchronization comparator.
type ExactConfig = protocol.ExactConfig

// ExactIBLT is classic exact set synchronization (difference digest:
// strata estimator plus exactly-sized IBLTs). It remains the right tool
// when values match bit-for-bit; under value noise its cost degenerates
// to Θ(n).
type ExactIBLT struct {
	// HashCount is the IBLT q; both endpoints must agree (a server
	// session adopts it from the hello). 0 means 4.
	HashCount int
	// Slack multiplies the estimated difference when sizing the IBLT
	// (fetch side only; 0 means 2.0).
	Slack float64
	// MaxRetries bounds decode-failure retries (fetch side only; 0
	// means 4).
	MaxRetries int
}

// Name implements Strategy.
func (ExactIBLT) Name() string { return "exact-iblt" }

func (e ExactIBLT) validate() error {
	if e.HashCount != 0 && (e.HashCount < 2 || e.HashCount > 16) {
		return fmt.Errorf("robustset: exact-IBLT hash count %d outside [2,16]", e.HashCount)
	}
	if e.Slack < 0 {
		return fmt.Errorf("robustset: exact-IBLT slack %v negative", e.Slack)
	}
	if e.MaxRetries < 0 {
		return fmt.Errorf("robustset: exact-IBLT max retries %d negative", e.MaxRetries)
	}
	return nil
}

func (e ExactIBLT) code() byte { return protocol.StrategyExactIBLT }

func (e ExactIBLT) helloConfig() []byte { return []byte{byte(e.HashCount)} }

func (e ExactIBLT) config(p Params) ExactConfig {
	return ExactConfig{
		Universe:   p.Universe,
		Seed:       p.Seed,
		HashCount:  e.HashCount,
		Slack:      e.Slack,
		MaxRetries: e.MaxRetries,
	}
}

func (e ExactIBLT) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	return protocol.RunExactIBLTAlice(ctx, t, e.config(p), pts)
}

func (e ExactIBLT) fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error) {
	sp, err := protocol.RunExactIBLTBob(ctx, t, e.config(p), local)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: sp}, nil
}

// Rateless is rateless incremental exact synchronization: after the same
// strata-estimator opening as ExactIBLT, the fetching side streams
// fixed-increment ranges of extendable-IBLT cells until its decoder
// certifies completion. Where ExactIBLT answers a mis-estimated
// difference by discarding the table and retrying with a doubled one,
// Rateless pays only the incremental cells it was short — wire cost
// tracks the actual difference, not the estimate.
type Rateless struct {
	// InitialFactor scales the strata estimate into the first requested
	// cell increment (fetch side only; 0 means 1.4, the stream's
	// empirical decode overhead).
	InitialFactor float64
	// MaxBytes caps the total streamed cell bytes before the fetching
	// side gives up (fetch side only; 0 means 64 MiB).
	MaxBytes int64
}

// Name implements Strategy.
func (Rateless) Name() string { return "rateless" }

func (r Rateless) validate() error {
	if r.InitialFactor < 0 || math.IsNaN(r.InitialFactor) || math.IsInf(r.InitialFactor, 0) {
		return fmt.Errorf("robustset: rateless initial factor %v not a finite non-negative number", r.InitialFactor)
	}
	if r.MaxBytes < 0 {
		return fmt.Errorf("robustset: rateless max bytes %d negative", r.MaxBytes)
	}
	return nil
}

func (Rateless) code() byte          { return protocol.StrategyRateless }
func (Rateless) helloConfig() []byte { return nil }

func (r Rateless) config(p Params) protocol.RatelessConfig {
	return protocol.RatelessConfig{
		Universe:      p.Universe,
		Seed:          p.Seed,
		InitialFactor: r.InitialFactor,
		MaxBytes:      r.MaxBytes,
	}
}

func (r Rateless) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	return protocol.RunRatelessAlice(ctx, t, r.config(p), pts)
}

// serveDataset answers from the dataset's maintained estimator and cell
// prefix, and says on the trace and the cold-session counter whether that
// was enough or the session had to read the points: to build the state,
// or to stream past the prefix.
func (r Rateless) serveDataset(ctx context.Context, t transport.Transport, p Params, d *Dataset) error {
	cfg, cold := r.config(p), false
	err := protocol.RunRatelessServed(ctx, t, cfg, func() (*protocol.RatelessOpening, error) {
		return d.ratelessOpening(cfg, &cold)
	})
	d.recordServed(ctx, cold)
	return err
}

func (r Rateless) fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error) {
	sp, err := protocol.RunRatelessBob(ctx, t, r.config(p), local)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: sp}, nil
}

// Ranged is divide-and-conquer exact synchronization over the Morton
// key order: the fetching side probes key ranges with (count,
// fingerprint) aggregates, mismatched ranges split k ways, and ranges of
// at most ItemLimit keys terminate by exact item transfer. Wire cost
// scales with the difference (times log of the set size), not with the
// set size itself — the strategy of choice for huge sets with tiny
// differences, where every sized sketch pays its estimator up front.
//
// When fetching through a Client, Streams > 1 reconciles that many
// disjoint subranges as parallel pipelined streams of its connection,
// cutting wall-clock round depth without changing the result.
type Ranged struct {
	// Branch is the split fan-out k for mismatched ranges; both endpoints
	// must agree (a server session adopts it from the hello). 0 means 8.
	Branch int
	// ItemLimit is the serving-side range size at which splitting stops
	// and exact keys are transferred. 0 means 16.
	ItemLimit int
	// Serial probes one range per round trip instead of batching each
	// recursion level into one frame — the classic recursive ping-pong,
	// kept for latency comparisons (fetch side only).
	Serial bool
	// Streams is the number of parallel sibling-range streams a
	// ClientSession.Fetch fans out to. 0 or 1 means a single stream;
	// peer-to-peer Session connections always use one stream.
	Streams int
}

// Name implements Strategy.
func (Ranged) Name() string { return "ranged" }

func (r Ranged) validate() error {
	if r.Branch != 0 && (r.Branch < 2 || r.Branch > protocol.MaxRangedBranch) {
		return fmt.Errorf("robustset: ranged branch %d outside [2,%d]", r.Branch, protocol.MaxRangedBranch)
	}
	if r.ItemLimit < 0 || r.ItemLimit > protocol.MaxRangedItemLimit {
		return fmt.Errorf("robustset: ranged item limit %d outside [0,%d]", r.ItemLimit, protocol.MaxRangedItemLimit)
	}
	if r.Streams < 0 || r.Streams > 64 {
		return fmt.Errorf("robustset: ranged streams %d outside [0,64]", r.Streams)
	}
	return nil
}

func (Ranged) code() byte { return protocol.StrategyRanged }

func (r Ranged) helloConfig() []byte {
	return []byte{byte(r.Branch), byte(r.ItemLimit), byte(r.ItemLimit >> 8)}
}

func (r Ranged) config(p Params) protocol.RangedConfig {
	return protocol.RangedConfig{
		Universe:  p.Universe,
		Seed:      p.Seed,
		Branch:    r.Branch,
		ItemLimit: r.ItemLimit,
		Serial:    r.Serial,
	}
}

func (r Ranged) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	return protocol.RunRangedAlice(ctx, t, r.config(p), pts)
}

// serveDataset probes the dataset's incrementally maintained fingerprint
// tree — no O(n) snapshot, and concurrent mutations only re-open ranges
// in later probe rounds.
func (r Ranged) serveDataset(ctx context.Context, t transport.Transport, p Params, d *Dataset) error {
	view, err := d.rangeView()
	if err != nil {
		return protocol.SendError(ctx, t, err)
	}
	return protocol.RunRangedAliceView(ctx, t, r.config(p), view)
}

func (r Ranged) fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error) {
	sp, rounds, err := protocol.RunRangedBob(ctx, t, r.config(p), local)
	if err != nil {
		return nil, err
	}
	// wall_rounds is the sequential round-trip depth of the exchange; the
	// pipelined client overwrites it with the per-stream maximum.
	trace.FromContext(ctx).Stat("wall_rounds", int64(rounds))
	return &SyncResult{SPrime: sp}, nil
}

// CPIConfig parameterizes the characteristic-polynomial comparator.
type CPIConfig = protocol.CPIConfig

// CPI is characteristic-polynomial exact synchronization
// (minisketch-class: optimal O(capacity) communication for exact
// differences, no cheap retry path).
type CPI struct {
	// Capacity is the maximum recoverable difference |AΔB|. 0 derives
	// 2·DiffBudget+8 from the session parameters.
	Capacity int
}

// Name implements Strategy.
func (CPI) Name() string { return "cpi" }

func (c CPI) validate() error {
	if c.Capacity < 0 || c.Capacity > maxCPICapacity {
		return fmt.Errorf("robustset: CPI capacity %d outside [0,%d]", c.Capacity, maxCPICapacity)
	}
	return nil
}

func (c CPI) code() byte { return protocol.StrategyCPI }

func (c CPI) helloConfig() []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(c.Capacity))
}

func (c CPI) config(p Params) (CPIConfig, error) {
	capacity := c.Capacity
	if capacity == 0 {
		if p.DiffBudget < 1 {
			return CPIConfig{}, errors.New("robustset: CPI strategy needs Capacity or Params.DiffBudget")
		}
		capacity = 2*p.DiffBudget + 8
	}
	// Re-validated here (not only in NewSession) because a server derives
	// the capacity from an untrusted hello blob.
	if capacity < 1 || capacity > maxCPICapacity {
		return CPIConfig{}, fmt.Errorf("robustset: CPI capacity %d outside [1,%d]", capacity, maxCPICapacity)
	}
	return CPIConfig{Universe: p.Universe, Seed: p.Seed, Capacity: capacity}, nil
}

func (c CPI) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	cfg, err := c.config(p)
	if err != nil {
		// Relay the configuration error so the peer fails fast with a
		// RemoteError instead of blocking until the connection drops.
		return protocol.SendError(ctx, t, err)
	}
	return protocol.RunCPIAlice(ctx, t, cfg, pts)
}

func (c CPI) fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error) {
	cfg, err := c.config(p)
	if err != nil {
		return nil, protocol.SendError(ctx, t, err)
	}
	sp, err := protocol.RunCPIBob(ctx, t, cfg, local)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: sp}, nil
}

// Naive transfers the serving side's entire point set — the trivial
// comparator every sublinear protocol must beat, and occasionally the
// right answer for tiny sets.
type Naive struct{}

// Name implements Strategy.
func (Naive) Name() string { return "naive" }

func (Naive) code() byte          { return protocol.StrategyNaive }
func (Naive) helloConfig() []byte { return nil }

func (Naive) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	return protocol.RunNaiveAlice(ctx, t, p.Universe, pts)
}

func (Naive) fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error) {
	sp, err := protocol.RunNaiveBob(ctx, t, p.Universe)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: sp}, nil
}

// strategyFromCode reconstructs the serving side of a strategy from its
// handshake code and config blob. Every code carries a config of one
// exact length — what the strategy's helloConfig writes — and any other
// length is refused: a blob with bytes this build would ignore comes from
// a peer that means something else by the code.
func strategyFromCode(code byte, cfg []byte) (Strategy, error) {
	exact := func(n int) error {
		if len(cfg) != n {
			return fmt.Errorf("robustset: strategy code 0x%02x carries a %d-byte config, want %d", code, len(cfg), n)
		}
		return nil
	}
	var (
		s   Strategy
		err error
	)
	switch code {
	case protocol.StrategyRobust:
		s, err = Robust{}, exact(0)
	case protocol.StrategyAdaptive:
		s, err = Adaptive{}, exact(0)
	case protocol.StrategyNaive:
		s, err = Naive{}, exact(0)
	case protocol.StrategyRateless:
		s, err = Rateless{}, exact(0)
	case protocol.StrategyExactIBLT:
		if err = exact(1); err == nil {
			s = ExactIBLT{HashCount: int(cfg[0])}
		}
	case protocol.StrategyRanged:
		if err = exact(3); err == nil {
			s = Ranged{Branch: int(cfg[0]), ItemLimit: int(cfg[1]) | int(cfg[2])<<8}
		}
	case protocol.StrategyCPI:
		if err = exact(4); err == nil {
			s = CPI{Capacity: int(binary.LittleEndian.Uint32(cfg))}
		}
	default:
		err = fmt.Errorf("robustset: unknown strategy code 0x%02x", code)
	}
	if err != nil {
		return nil, err
	}
	// The knobs came off the wire; hold them to the bounds NewSession does.
	if v, ok := s.(validatingStrategy); ok {
		if err := v.validate(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ---------------------------------------------------------------------
// Session

// Session binds a Strategy to a set of options and runs reconciliations
// over connections. A Session is stateless between calls and safe for
// concurrent use; a service typically builds one Session per
// (strategy, parameters) pair and reuses it for every connection.
//
//	sess, _ := robustset.NewSession(robustset.Robust{}, robustset.WithParams(p))
//	go sess.Serve(ctx, aliceConn, alicePts)   // serving side
//	res, stats, _ := sess.Fetch(ctx, bobConn, bobPts) // fetching side
//
// Cancelling the context aborts a session mid-round: blocked reads and
// writes return promptly with the context's error, and a context deadline
// is propagated onto the connection.
type Session struct {
	strategy  Strategy
	params    Params
	metric    Metric
	statsSink func(TransferStats)
	traceSink func(*SessionTrace)
	maxMsg    int
	// dataset is set on the sessions a Client builds: their fetch opens
	// with the hello naming it. Empty on peer-to-peer sessions.
	dataset string
}

// Option configures a Session.
type Option func(*Session) error

// WithParams sets the shared reconciliation parameters. Both endpoints
// of a peer-to-peer session must agree on them (a ClientSession.Fetch
// against a Server dataset instead adopts the server's parameters).
func WithParams(p Params) Option {
	return func(s *Session) error {
		s.params = p
		return nil
	}
}

// WithMetric sets the ground metric used by SyncResult.EMD diagnostics.
// Default: L1, the paper's primary metric.
func WithMetric(m Metric) Option {
	return func(s *Session) error {
		if m == nil {
			return errors.New("robustset: nil metric")
		}
		s.metric = m
		return nil
	}
}

// WithStatsSink registers a callback that receives the connection's
// transfer accounting after every Serve, Fetch or Sync — including failed
// ones — for metrics pipelines.
func WithStatsSink(sink func(TransferStats)) Option {
	return func(s *Session) error {
		s.statsSink = sink
		return nil
	}
}

// WithSessionTrace enables session tracing on the fetching side: every
// Fetch records phase spans and per-frame-type wire-byte attribution and
// hands the completed SessionTrace to sink — including failed fetches,
// whose trace carries the error. The sink runs synchronously at the end
// of the fetch; tracing costs nothing on sessions without the option.
func WithSessionTrace(sink func(*SessionTrace)) Option {
	return func(s *Session) error {
		if sink == nil {
			return errors.New("robustset: nil trace sink")
		}
		s.traceSink = sink
		return nil
	}
}

// WithMaxMessageSize caps a single protocol message in bytes, in both
// directions: larger local sends fail, and a peer announcing a larger
// frame is treated as corrupt rather than trusted with the allocation.
// 0 (the default) means the transport-wide limit (256 MiB).
func WithMaxMessageSize(n int) Option {
	return func(s *Session) error {
		if n < 0 || n > transport.MaxFrameSize {
			return fmt.Errorf("robustset: max message size %d outside [0,%d]", n, transport.MaxFrameSize)
		}
		s.maxMsg = n
		return nil
	}
}

// NewSession builds a Session running the given strategy.
func NewSession(strategy Strategy, opts ...Option) (*Session, error) {
	if strategy == nil {
		return nil, errors.New("robustset: nil strategy")
	}
	if v, ok := strategy.(validatingStrategy); ok {
		if err := v.validate(); err != nil {
			return nil, err
		}
	}
	s := &Session{strategy: strategy, metric: L1}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Strategy returns the session's strategy.
func (s *Session) Strategy() Strategy { return s.strategy }

// Params returns the session's configured parameters.
func (s *Session) Params() Params { return s.params }

func (s *Session) newTransport(conn net.Conn) transport.Transport {
	return transport.NewConnLimit(conn, s.maxMsg)
}

func (s *Session) emit(st TransferStats) {
	if s.statsSink != nil {
		s.statsSink(st)
	}
}

// Serve runs the serving (Alice) side of the session's strategy over
// conn: it answers exactly one fetching peer and returns the wire
// accounting. The caller owns conn and closes it afterwards.
func (s *Session) Serve(ctx context.Context, conn net.Conn, pts []Point) (TransferStats, error) {
	t := s.newTransport(conn)
	err := s.strategy.serve(ctx, t, s.params, pts)
	st := t.Stats()
	s.emit(st)
	return st, err
}

// ServeSketch is Serve for the Robust strategy with an already-built
// sketch — the path used by servers that maintain a sketch incrementally
// (Maintainer) instead of re-encoding per session.
func (s *Session) ServeSketch(ctx context.Context, conn net.Conn, sk *Sketch) (TransferStats, error) {
	if _, ok := s.strategy.(Robust); !ok {
		return TransferStats{}, fmt.Errorf("robustset: ServeSketch requires the Robust strategy, session uses %s", s.strategy.Name())
	}
	t := s.newTransport(conn)
	err := protocol.RunPushSketchAlice(ctx, t, sk)
	st := t.Stats()
	s.emit(st)
	return st, err
}

// Fetch runs the fetching (Bob) side over conn: it reconciles local
// against the serving peer's data and returns the result with the wire
// accounting.
func (s *Session) Fetch(ctx context.Context, conn net.Conn, local []Point) (*SyncResult, TransferStats, error) {
	t := s.newTransport(conn)
	res, err := s.fetchOver(ctx, t, nil, local)
	st := t.Stats()
	s.emit(st)
	return res, st, err
}

// hello is the handshake opening a Client's session sends on its stream;
// with a local dataset it carries that dataset's root as of now.
func (s *Session) hello(local *Dataset) protocol.Hello {
	h := protocol.Hello{
		Strategy: s.strategy.code(),
		Dataset:  s.dataset,
		Config:   s.strategy.helloConfig(),
	}
	if local != nil {
		root := local.rootAgg()
		h.Root = &root
	}
	return h
}

// fetchOver runs one fetch over t. With d set — a Client's session only —
// the hello carries d's root, an accept marked "same" ends the fetch with
// an Unchanged result, and d's snapshot is taken as local only after the
// server has not said so; the session then goes on on the same stream.
func (s *Session) fetchOver(ctx context.Context, t transport.Transport, d *Dataset, local []Point) (res *SyncResult, err error) {
	p := s.params
	var tr *trace.Trace
	if s.traceSink != nil {
		tr = trace.New("client")
		tr.Label(s.dataset, s.strategy.Name(), "")
		ctx = trace.NewContext(ctx, tr)
		defer func() {
			tr.Finish(err)
			s.traceSink(tr.Snapshot())
		}()
	} else {
		// An ambient trace (e.g. a replicator round's per-session child)
		// still gets the handshake span.
		tr = trace.FromContext(ctx)
	}
	if s.dataset != "" {
		// A Client's session on one stream of its connection: name the
		// dataset and adopt the parameters the server dictates.
		sp := tr.Begin("hello")
		acc, err := protocol.RunHello(ctx, t, s.hello(d))
		if err != nil {
			return nil, err
		}
		sp.End()
		if acc.Same {
			tr.Stat(trace.StatUnchanged, 1)
			return &SyncResult{Params: acc.Params, Unchanged: true, metric: s.metric}, nil
		}
		p = acc.Params
		if d != nil {
			local = d.Snapshot()
		}
	}
	res, err = s.strategy.fetch(ctx, t, p, local)
	if err != nil {
		return nil, err
	}
	if res.Robust != nil {
		// The robust one-shot path learns its parameters from the sketch
		// itself, which is authoritative even peer-to-peer.
		res.Params = res.Robust.Params
	} else {
		res.Params = p
	}
	res.metric, res.local = s.metric, local
	return res, nil
}

// ErrTwoWayUnsupported is returned by Session.Sync for strategies without
// a symmetric mode.
var ErrTwoWayUnsupported = errors.New("robustset: strategy does not support two-way sync")

// Sync runs the symmetric two-way mode: both peers call Sync on the same
// strategy, each pushing its own summary and reconciling against the
// other's. Only the Robust strategy supports it; as the paper notes,
// two-way robust reconciliation leaves each party close (in EMD) to the
// other's original data rather than converging the sets to equality.
func (s *Session) Sync(ctx context.Context, conn net.Conn, pts []Point) (*SyncResult, TransferStats, error) {
	tw, ok := s.strategy.(twoWayStrategy)
	if !ok {
		return nil, TransferStats{}, fmt.Errorf("%w: %s", ErrTwoWayUnsupported, s.strategy.Name())
	}
	t := s.newTransport(conn)
	res, err := tw.sync(ctx, t, s.params, pts)
	st := t.Stats()
	s.emit(st)
	if err != nil {
		return nil, st, err
	}
	res.Params = res.Robust.Params
	res.metric = s.metric
	return res, st, nil
}

// Strategies returns one value of every built-in strategy, in a stable
// order — handy for tools and tests that iterate over all protocols.
func Strategies() []Strategy {
	return []Strategy{Robust{}, Adaptive{}, ExactIBLT{}, Rateless{}, Ranged{}, CPI{}, Naive{}}
}
