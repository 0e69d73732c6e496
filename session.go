package robustset

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"

	"robustset/internal/core"
	"robustset/internal/protocol"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// Strategy selects which reconciliation protocol a Session runs. The four
// implementations — Robust, Adaptive, Rateless and Naive — wrap the
// module's wire protocols behind one interface, so serving and
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
	// serveDataset runs Alice's side against a published dataset that has
	// accepted the session, from the state the dataset maintains for the
	// strategy or a snapshot of its points. Like serve, it relays to the
	// peer whatever keeps it from starting.
	serveDataset(ctx context.Context, t transport.Transport, p Params, d *Dataset) error
}

// warmStrategy is implemented by the strategies a Client's session opens
// warm, from a hint that the last fetch of the same dataset left.
type warmStrategy interface {
	Strategy
	// warm returns the strategy opening warm from h, what the last fetch
	// of the dataset left, or cold when it does not qualify.
	warm(h hint) Strategy
	// hintFrom returns what a fetch's result leaves the next fetch, and
	// false when that should open cold.
	hintFrom(res *SyncResult) (hint, bool)
}

// validatingStrategy is implemented by strategies with knobs that can be
// out of range; NewSession rejects invalid values up front instead of
// letting them desynchronize the endpoints mid-protocol.
type validatingStrategy interface {
	validate() error
}

// TransferStats reports the bytes and messages an endpoint exchanged
// during a connection-oriented reconciliation.
type TransferStats = transport.Stats

// SyncResult is the outcome of a fetch: the local party's updated
// multiset, plus the robust protocol's per-level diagnostics when the
// strategy is robust.
type SyncResult struct {
	// SPrime is the reconciled multiset (S'_B). For exact strategies it
	// equals the remote set exactly on success; for robust strategies it
	// is close to the remote set in Earth Mover's Distance, which
	// EMD(SPrime, remote, metric) measures. Robust, Adaptive and Rateless
	// order it as copies of the local points the difference kept, in the
	// local slice's order, then the points it added; Naive returns the
	// remote snapshot in the order it was sent.
	SPrime []Point
	// Robust carries the robust protocol's detailed result (chosen level,
	// added/removed points, per-level outcomes); nil for Rateless and
	// Naive.
	Robust *Result
	// Params are the parameters the exchange actually ran under. When
	// fetching a named dataset these are the server's (adopted through
	// the handshake), so callers can interpret SPrime — e.g. write it
	// under the right universe — without out-of-band agreement.
	Params Params
	// Unchanged reports that a ClientSession.FetchDataset ended at the
	// handshake: the server's dataset has the root of the local
	// one, so the two hold the same multiset and nothing was exchanged or
	// copied. SPrime is nil — the reconciled multiset is the local dataset
	// as it stands.
	Unchanged bool

	// local is the multiset the exchange ran against: the caller's points,
	// or the snapshot FetchDataset took once the server had not said
	// "same". The replicator diffs results against it.
	local []Point
	// next is what a warm strategy's fetch leaves a Client's next fetch of
	// the dataset, as far as the fetch knows it: a rateless fetch's
	// difference size, which the next warm opening is sized from, and the
	// cells it kept of the multiset it returned; a robust or adaptive
	// fetch's kept state of local (hintFrom adds a robust window).
	next *hint
}

// ---------------------------------------------------------------------
// Strategy implementations

// Robust is the paper's one-shot robust protocol: the serving side pushes
// one message carrying the full multiresolution sketch; the fetching side
// reconciles at the finest decodable level.
//
// A Client that has fetched a dataset robust before opens warm, on the
// levels around its last choice (core.WarmWindow; [L−1, L+1] nearly
// always), cut from the server's cached sketch. A window no level of which
// decodes, or that the server refuses, makes the fetch rerun cold; one
// whose finest level, below MaxLevel, is not overloaded, rerun from that
// level through MaxLevel. The result is the full sketch's, Outcomes from
// the window on, unless that finest level is overloaded while a finer one
// decodes (DESIGN.md "Warm robust window"). Peer-to-peer sessions, first
// fetches, and fetches after a choice of MinLevel open cold.
//
// A Client also keeps, per dataset, its own tables of the next window's
// levels, built by its last robust fetch over its local points. A fetch
// whose local points are that multiset again — by the order-free
// fingerprint rateless's kept cells use, in any order — under the same
// seed, universe, capacity and hash count subtracts those tables instead
// of keying and presorting its points, and builds only the levels they
// lack. The result, element order included, is a fresh fetch's; nothing
// changes on the wire.
type Robust struct {
	// window is a warm opening's window of levels [lo, hi], carried by the
	// hello, as lo<<8 | hi; 0 opens cold.
	window int
	// kept is a Client's fetch's kept tables of the dataset: the ones the
	// last fetch left, or a new state once the session is past the accept
	// (nil elsewhere).
	kept *protocol.RobustKept
}

// Name implements Strategy.
func (Robust) Name() string { return "robust-oneshot" }

func (Robust) code() byte { return protocol.StrategyRobust }

func (r Robust) helloConfig() []byte {
	if r.window == 0 {
		return nil
	}
	return []byte{byte(r.window >> 8), byte(r.window)}
}

// robustWindow returns Robust opening warm on the window [lo, hi].
func robustWindow(lo, hi int) Robust { return Robust{window: lo<<8 | hi} }

// warm returns Robust opening on the window hintFrom packed into h, with
// h's kept tables.
func (Robust) warm(h hint) Strategy { return Robust{window: h.n, kept: h.tables} }

// hintFrom packs the next window, core.WarmWindow of res's result, with
// the tables res kept of its levels; there is none when it would reach
// below MinLevel or be the whole range.
func (Robust) hintFrom(res *SyncResult) (hint, bool) {
	lo, hi, ok := core.WarmWindow(res.Robust)
	h := hint{n: robustWindow(lo, hi).window}
	if res.next != nil {
		h.tables = res.next.tables
	}
	return h, ok
}

func (Robust) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	return protocol.RunPushAlice(ctx, t, p, pts)
}

// serveDataset pushes the maintained sketch — O(sketch size) per session
// instead of O(n·levels) — or on a warm opening the window of it asked for.
func (r Robust) serveDataset(ctx context.Context, t transport.Transport, p Params, d *Dataset) error {
	blob, err := d.sketchBlob()
	if err != nil {
		return protocol.SendError(ctx, t, err)
	}
	if r.window == 0 {
		return protocol.RunPushBlobAlice(ctx, t, blob)
	}
	return protocol.RunPushWindowAlice(ctx, t, p, blob, r.window>>8, r.window&0xff)
}

func (r Robust) fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error) {
	var res *Result
	var err error
	if r.window == 0 {
		res, err = r.kept.RunPushBob(ctx, t, local)
	} else {
		res, err = r.kept.RunPushWindowBob(ctx, t, p, r.window>>8, r.window&0xff, local)
	}
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: res.SPrime, Robust: res, next: &hint{tables: r.kept}}, nil
}

// AdaptiveOptions tunes the fetching side of the Adaptive strategy.
type AdaptiveOptions = protocol.EstimateOpts

// Adaptive is the estimate-first robust protocol: tiny per-level
// difference estimators first, then exactly one level table sized to the
// estimated difference (plus retries if the fetching side asks). A server
// keeps its estimators, and per level its last table reply, until the
// dataset changes. A Client keeps, per dataset, the estimators of its own
// that its last fetch's level choice read and its table of the level that
// decoded; a fetch whose local points are that multiset again (by Robust's
// order-free fingerprint) takes them instead of building them, returns a
// fresh fetch's result, element order included, and changes nothing on
// the wire.
type Adaptive struct {
	// Options tunes the fetching side; the zero value uses the defaults
	// documented on AdaptiveOptions.
	Options AdaptiveOptions
	// kept is a Client's fetch's kept estimators and table, as Robust's
	// kept tables are.
	kept *protocol.RobustKept
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

// warm returns a with h's kept estimators and table, and nothing else.
func (a Adaptive) warm(h hint) Strategy {
	a.kept = h.tables
	return a
}

// hintFrom leaves the next fetch what res kept of its local points.
func (Adaptive) hintFrom(res *SyncResult) (hint, bool) { return *res.next, true }

func (Adaptive) serve(ctx context.Context, t transport.Transport, p Params, pts []Point) error {
	return protocol.RunEstimateAlice(ctx, t, p, pts)
}

// serveDataset answers each estimator and level-table request from the
// dataset's Maintainer, one level at a time, and never reads the points.
func (Adaptive) serveDataset(ctx context.Context, t transport.Transport, p Params, d *Dataset) error {
	err := protocol.RunEstimateServed(ctx, t, func(k int) (*protocol.EstimateOpening, error) {
		est := func(level int) ([]byte, error) { return d.levelEstimator(level, k) }
		return &protocol.EstimateOpening{Estimator: est, Params: p, LevelTable: d.levelTable}, nil
	})
	d.recordServed(ctx, false)
	return err
}

func (a Adaptive) fetch(ctx context.Context, t transport.Transport, p Params, local []Point) (*SyncResult, error) {
	res, err := a.kept.RunEstimateBob(ctx, t, p, local, a.Options)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: res.SPrime, Robust: res, next: &hint{tables: a.kept}}, nil
}

// Rateless is exact set synchronization over a rateless cell stream (an
// extendable IBLT): the fetching side streams ranges of cells until its
// decoder certifies completion, so a mis-estimated difference costs only
// the cells it was short — wire cost tracks the actual difference, not
// the estimate. It is the right tool when values match bit-for-bit; under
// value noise its cost degenerates to Θ(n).
//
// There is no separate estimator: the stream's head is its own. A cold
// session — peer to peer, or a Client's first fetch of a dataset — opens
// with the serving side sending the first 32 cells unasked; they decode a
// difference of up to about 10 points outright, and the fetching side
// sizes its next request from the cells of their residual the difference
// left empty. A Client that has fetched a dataset rateless before opens
// warm: its hello asks for a first block sized from the difference the
// last fetch decoded, and the server answers it with the accept.
//
// A Client also keeps, per dataset, the first cells (up to 1 024) of the
// multiset its last rateless fetch returned: the cells that fetch
// received. A fetch whose local points are that multiset — by an
// order-free fingerprint, as when the caller hands back the last SPrime —
// subtracts those cells instead of keying its points, and keys them only
// for cells past the kept ones. Nothing changes on the wire.
type Rateless struct {
	// InitialFactor scales the difference the cells are sized from — on a
	// cold opening the estimate read off the head, for all cells streamed,
	// on a warm one the last fetch's difference, for the first block —
	// (fetch side only; 0 means 1.4, the stream's empirical decode
	// overhead).
	InitialFactor float64
	// MaxBytes caps the total streamed cell bytes before the fetching
	// side gives up (fetch side only; 0 means 64 MiB).
	MaxBytes int64

	// first is a warm opening's first request, in cells, carried by the
	// hello; 0 opens cold. hint is the difference it was sized from.
	first, hint int
	// kept is a Client's fetch's kept state of the dataset: the one the
	// last fetch left, or a new one once the session is past the accept
	// (nil elsewhere).
	kept *protocol.RatelessKept
}

// coldRateless is Rateless{} as a Strategy, boxed once: every replicator
// session runs it, and a server reads it off every cold rateless hello.
var coldRateless Strategy = Rateless{}

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

func (Rateless) code() byte { return protocol.StrategyRateless }

func (r Rateless) helloConfig() []byte {
	if r.first == 0 {
		return nil
	}
	return binary.LittleEndian.AppendUint32(nil, uint32(r.first))
}

// warm returns r with h's kept state, opening warm from h.n, the size of
// the difference the last fetch of the dataset decoded — or cold, when
// the first block sized from it would be above protocol's 512-cell bound.
func (r Rateless) warm(h hint) Strategy {
	r.kept = h.kept
	if r.first = (protocol.RatelessConfig{InitialFactor: r.InitialFactor}).WarmFirst(h.n); r.first != 0 {
		r.hint = h.n
	}
	return r
}

// hintFrom is the size of the difference res decoded, with the state res
// kept of the multiset it returned.
func (Rateless) hintFrom(res *SyncResult) (hint, bool) { return *res.next, true }

func (r Rateless) config(p Params) protocol.RatelessConfig {
	return protocol.RatelessConfig{
		Universe:      p.Universe,
		Seed:          p.Seed,
		InitialFactor: r.InitialFactor,
		MaxBytes:      r.MaxBytes,
		First:         r.first,
		Kept:          r.kept,
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
	if r.first != 0 {
		trace.FromContext(ctx).Stat("estimated_diff", int64(r.hint))
	}
	res, err := protocol.RunRatelessBob(ctx, t, r.config(p), local)
	if err != nil {
		return nil, err
	}
	return &SyncResult{SPrime: res.SPrime, next: &hint{n: res.Diff, kept: res.Kept}}, nil
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

// serveDataset sends a snapshot of the dataset's points: Naive keeps no
// state of its own.
func (Naive) serveDataset(ctx context.Context, t transport.Transport, p Params, d *Dataset) error {
	pts, err := d.servePoints()
	if err != nil {
		// The dataset was retired between the handshake and here.
		return protocol.SendError(ctx, t, err)
	}
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
// handshake code and config blob. A config is empty — what a strategy's
// helloConfig writes when it opens cold — unless it is a warm opening's:
// Robust's is two bytes, a window's levels lo ≤ hi, where hi is above
// MinLevel and so never 0 (serving holds the window to the dataset's
// range); Rateless's is a u32 first request, never 0. Any other blob is
// refused: bytes this build would ignore come from a peer that means
// something else by the code.
func strategyFromCode(code byte, cfg []byte) (Strategy, error) {
	var s Strategy
	switch code {
	case protocol.StrategyRobust:
		if len(cfg) == 2 && cfg[0] <= cfg[1] && cfg[1] != 0 {
			return robustWindow(int(cfg[0]), int(cfg[1])), nil
		}
		s = Robust{}
	case protocol.StrategyAdaptive:
		s = Adaptive{}
	case protocol.StrategyNaive:
		s = Naive{}
	case protocol.StrategyRateless:
		if len(cfg) == 4 && binary.LittleEndian.Uint32(cfg) != 0 {
			return Rateless{first: int(binary.LittleEndian.Uint32(cfg))}, nil
		}
		s = coldRateless
	default:
		return nil, fmt.Errorf("robustset: unknown strategy code 0x%02x", code)
	}
	if len(cfg) != 0 {
		return nil, fmt.Errorf("robustset: strategy code 0x%02x carries a %d-byte config, want 0", code, len(cfg))
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
	s := &Session{strategy: strategy}
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

// Serve runs the serving (Alice) side of the session's strategy over
// conn: it answers exactly one fetching peer and returns the wire
// accounting. The caller owns conn and closes it afterwards.
func (s *Session) Serve(ctx context.Context, conn net.Conn, pts []Point) (TransferStats, error) {
	t := s.newTransport(conn)
	err := s.strategy.serve(ctx, t, s.params, pts)
	return t.Stats(), err
}

// Fetch runs the fetching (Bob) side over conn: it reconciles local
// against the serving peer's data and returns the result with the wire
// accounting.
func (s *Session) Fetch(ctx context.Context, conn net.Conn, local []Point) (*SyncResult, TransferStats, error) {
	t := s.newTransport(conn)
	res, err := s.fetchOver(ctx, t, s.strategy, nil, local)
	return res, t.Stats(), err
}

// hello is the handshake opening a Client's session of strat sends on its
// stream; with a local dataset it carries that dataset's root as of now.
func (s *Session) hello(strat Strategy, local *Dataset) protocol.Hello {
	h := protocol.Hello{
		Strategy: strat.code(),
		Dataset:  s.dataset,
		Config:   strat.helloConfig(),
	}
	if local != nil {
		root := local.rootPrint()
		h.Root = &root
	}
	return h
}

// fetchOver runs one fetch of strat — the session's strategy, or a Client's
// warm one — over t. With d set — a Client's session only — the hello
// carries d's root, an accept marked "same" ends the fetch with an
// Unchanged result, and d's snapshot is taken as local only after the
// server has not said so; the session then goes on on the same stream.
// A Client's Rateless, Robust or Adaptive session that goes on without a
// kept state starts a new one there, so a fetch that ends at the accept
// allocates none.
func (s *Session) fetchOver(ctx context.Context, t transport.Transport, strat Strategy, d *Dataset, local []Point) (res *SyncResult, err error) {
	p := s.params
	var tr *trace.Trace
	if s.traceSink != nil {
		tr = trace.New("client")
		tr.Label(s.dataset, strat.Name(), "")
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
		acc, err := protocol.RunHello(ctx, t, s.hello(strat, d))
		if err != nil {
			return nil, err
		}
		sp.End()
		if acc.Same {
			tr.Stat(trace.StatUnchanged, 1)
			return &SyncResult{Params: acc.Params, Unchanged: true}, nil
		}
		p = acc.Params
		if d != nil {
			local = d.Snapshot()
		}
		switch r := strat.(type) {
		case Rateless:
			if r.kept == nil {
				r.kept = protocol.NewRatelessKept()
				strat = r
			}
		case Robust:
			if r.kept == nil {
				r.kept = protocol.NewRobustKept()
				strat = r
			}
		case Adaptive:
			if r.kept == nil {
				r.kept = protocol.NewRobustKept()
				strat = r
			}
		}
	}
	res, err = strat.fetch(ctx, t, p, local)
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
	res.local = local
	return res, nil
}

// Strategies returns one value of every built-in strategy, in a stable
// order — handy for tools and tests that iterate over all protocols.
func Strategies() []Strategy {
	return []Strategy{Robust{}, Adaptive{}, Rateless{}, Naive{}}
}
