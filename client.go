package robustset

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"robustset/internal/protocol"
	"robustset/internal/transport"
)

// ErrClientClosed is returned for operations on a closed Client.
var ErrClientClosed = errors.New("robustset: client closed")

// Client is the way to reach a Server: it holds one multiplexed (MUX1)
// connection and runs every reconciliation session as a pipelined stream
// of it. Dial once, then open sessions against any of the server's
// datasets; sessions run concurrently, with a bounded number in flight —
// the cost-tracks-the-delta principle applied to transport:
// per-connection setup is paid once per peer, not once per dataset. A
// one-shot fetch is a Client with one stream.
//
//	cl, _ := robustset.DialClient(ctx, addr)
//	defer cl.Close()
//	sess, _ := cl.Session("sensors/a", robustset.Robust{})
//	res, stats, err := sess.Fetch(ctx, localPts)
//
// If the connection dies mid-life the next Fetch redials and
// renegotiates once before reporting the failure.
//
// A Client is safe for concurrent use.
type Client struct {
	addr       string
	maxStreams int
	maxMsg     int
	logf       func(format string, args ...any)
	dial       func(ctx context.Context, network, addr string) (net.Conn, error)

	sem chan struct{}

	mu       sync.Mutex
	mux      *transport.Mux
	closed   bool
	prev     TransferStats // accounting of connections already torn down
	redials  int64
	sessions int64
	// hints holds, per dataset name and warm strategy, what the last fetch
	// of the dataset with the strategy left the next one to open warm from.
	hints map[hintKey]hint
}

// hintKey names one of a Client's warm-start hints.
type hintKey struct {
	dataset string
	code    byte // the strategy's wire code
}

// hint is what a fetch leaves the next fetch of the dataset with the same
// strategy.
type hint struct {
	// n is the size of the difference a rateless fetch decoded, or the
	// next robust fetch's window.
	n int
	// kept is what a rateless fetch keeps of the multiset it returned, and
	// tables what a robust fetch keeps of the local multiset it reconciled
	// — its tables of the levels of the window n — or an adaptive fetch:
	// its estimators and the table that decoded. One fetch at a time holds
	// them, its reruns included, and the entry has none meanwhile: a
	// concurrent fetch keys its points and starts a kept state of its own.
	kept   *protocol.RatelessKept
	tables *protocol.RobustKept
}

// taken returns the kept state h holds, and whether there is any.
func (h hint) taken() (hint, bool) {
	return hint{kept: h.kept, tables: h.tables}, h.kept != nil || h.tables != nil
}

// ClientOption configures a Client.
type ClientOption func(*Client) error

// WithClientMaxStreams bounds the sessions concurrently in flight on
// the client (backpressure: the next Fetch blocks until a slot frees; a
// slot frees when the server has closed its half of the stream too).
// Default: 16. Servers additionally bound streams per connection
// (WithServerMaxStreamsPerConn), so keep the client bound at or below
// the server's.
func WithClientMaxStreams(n int) ClientOption {
	return func(c *Client) error {
		if n < 1 {
			return fmt.Errorf("robustset: client max streams %d < 1", n)
		}
		c.maxStreams = n
		return nil
	}
}

// WithClientMaxMessageSize caps a single protocol message on every
// session, like the Session option WithMaxMessageSize.
func WithClientMaxMessageSize(n int) ClientOption {
	return func(c *Client) error {
		if n < 0 || n > transport.MaxFrameSize {
			return fmt.Errorf("robustset: max message size %d outside [0,%d]", n, transport.MaxFrameSize)
		}
		c.maxMsg = n
		return nil
	}
}

// WithClientLogger directs connection-lifecycle reporting (redials).
// Default: discard.
func WithClientLogger(logf func(format string, args ...any)) ClientOption {
	return func(c *Client) error {
		c.logf = logf
		return nil
	}
}

// DialClient connects to a robustset Server and opens the multiplexed
// connection. A failed dial or a refused handshake is returned
// immediately, with the connection closed.
func DialClient(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	c, err := newClient(addr, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := c.ensure(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// newClient builds a Client of addr that has not dialed yet: its first
// session does.
func newClient(addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{
		addr:       addr,
		maxStreams: 16,
		logf:       func(string, ...any) {},
		dial:       (&net.Dialer{}).DialContext,
		hints:      make(map[hintKey]hint),
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	c.sem = make(chan struct{}, c.maxStreams)
	return c, nil
}

// connectLocked dials and negotiates the multiplexed connection. Caller
// holds c.mu.
func (c *Client) connectLocked(ctx context.Context) error {
	conn, err := c.dial(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	// Mux-sized frame limit: a maximal legal protocol message must fit
	// in one mux frame, header included.
	t := transport.NewMuxConnLimit(conn, c.maxMsg)
	serverWindow, err := protocol.RunMuxHelloClient(ctx, t, transport.DefaultMuxWindow)
	if err != nil {
		conn.Close()
		return err
	}
	c.mux = transport.NewMux(t, true, transport.MuxConfig{
		RecvWindow: transport.DefaultMuxWindow,
		SendWindow: int(serverWindow),
	})
	return nil
}

// ensure returns a live mux: it dials one if there is none and redials a
// dead one, once per call. Holding c.mu through the dial, it makes
// concurrent sessions share one connection.
func (c *Client) ensure(ctx context.Context) (*transport.Mux, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	if c.mux != nil && c.mux.Err() == nil {
		return c.mux, nil
	}
	if c.mux != nil {
		c.prev.Add(c.mux.Stats())
		c.mux.Close()
		c.mux = nil
		c.redials++
		c.logf("robustset: client: %s: connection lost, reconnecting", c.addr)
	}
	if err := c.connectLocked(ctx); err != nil {
		return nil, err
	}
	return c.mux, nil
}

// Muxed reports whether the client currently holds a live connection
// (false between a connection's death and the next Fetch's redial).
func (c *Client) Muxed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mux != nil && c.mux.Err() == nil
}

// Addr returns the server address the client dials.
func (c *Client) Addr() string { return c.addr }

// Stats returns the client's connection-level accounting across every
// connection it has held, mux framing included.
func (c *Client) Stats() TransferStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.prev
	if c.mux != nil {
		out.Add(c.mux.Stats())
	}
	return out
}

// Sessions returns the lifetime count of sessions the client ran.
func (c *Client) Sessions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions
}

// Close tears down the connection; in-flight sessions fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.mux != nil {
		c.mux.Close()
		c.mux = nil
	}
	return nil
}

// ClientSession binds one (dataset, strategy) pair to the client; its
// Fetch may be called repeatedly and concurrently, each call one
// pipelined session.
type ClientSession struct {
	c    *Client
	sess *Session
}

// Session builds a session against a named server dataset. Of the
// Session options it takes WithSessionTrace; WithParams and
// WithMaxMessageSize are refused, because the parameters are the
// server's Params for the dataset and the message cap is the
// connection's (WithClientMaxMessageSize).
func (c *Client) Session(dataset string, strategy Strategy, opts ...Option) (*ClientSession, error) {
	if err := validDatasetName(dataset); err != nil {
		return nil, err
	}
	sess, err := NewSession(strategy, opts...)
	if err != nil {
		return nil, err
	}
	if sess.params != (Params{}) {
		return nil, errors.New("robustset: Client.Session: WithParams does not apply; the server's Params for the dataset do")
	}
	if sess.maxMsg != 0 {
		return nil, errors.New("robustset: Client.Session: WithMaxMessageSize does not apply; set the cap with WithClientMaxMessageSize")
	}
	sess.dataset = dataset
	return &ClientSession{c: c, sess: sess}, nil
}

// Fetch reconciles local against the session's dataset and returns the
// result plus this session's wire accounting (its stream's share of the
// multiplexed connection).
// Concurrent Fetches beyond the client's stream bound block — that is
// the backpressure, not an error.
func (cs *ClientSession) Fetch(ctx context.Context, local []Point) (*SyncResult, TransferStats, error) {
	return cs.fetch(ctx, nil, local)
}

// FetchDataset is Fetch for a caller whose local multiset is a Dataset:
// the hello carries the dataset's root fingerprint, and a server whose
// dataset has the same root — the two hold the same multiset — says so
// in its accept. The result is then marked Unchanged and the fetch has
// cost one hello and one accept, whatever the strategy: no snapshot of
// local is taken and nothing is built or copied. Otherwise the session
// goes on on the same stream, with no extra round trip, against a
// snapshot of local taken at that moment. A mutation of local during the
// fetch is not seen by it, as with a Snapshot handed to Fetch.
func (cs *ClientSession) FetchDataset(ctx context.Context, local *Dataset) (*SyncResult, TransferStats, error) {
	if local == nil {
		return nil, TransferStats{}, errors.New("robustset: FetchDataset: nil dataset")
	}
	return cs.fetch(ctx, local, nil)
}

// warm returns w for the next fetch of dataset: warm from the hint the
// last fetch of it with w's strategy left, or w itself, cold, if there is
// none. The fetch takes the hint's kept state with it, and warm returns
// that too.
func (c *Client) warm(dataset string, w warmStrategy) (Strategy, hint) {
	key := hintKey{dataset, w.code()}
	c.mu.Lock()
	h, ok := c.hints[key]
	taken, has := h.taken()
	if has {
		c.hints[key] = hint{n: h.n}
	}
	c.mu.Unlock()
	if !ok {
		return w, hint{}
	}
	return w.warm(h), taken
}

// learn keeps the hint a fetch of dataset with w's strategy leaves for the
// next one, read from res, and forgets it after a failed fetch or a result
// that leaves none. A fetch that ended at the handshake decoded nothing and
// leaves the hint as it was, with taken, the kept state it took, back in it.
func (c *Client) learn(dataset string, w warmStrategy, taken hint, res *SyncResult, err error) {
	key := hintKey{dataset, w.code()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && res.Unchanged {
		if h, ok := c.hints[key]; ok {
			if _, has := h.taken(); !has {
				h.kept, h.tables = taken.kept, taken.tables
				c.hints[key] = h
			}
		}
		return
	}
	if err == nil {
		if h, ok := w.hintFrom(res); ok {
			c.hints[key] = h
			return
		}
	}
	delete(c.hints, key)
}

// fetch runs one fetch: against d when it is set, else against local.
// Rateless, Robust and Adaptive sessions open warm when an earlier fetch
// of the dataset left a hint. A warm robust session that misses upward is
// run again from its window's finest level through MaxLevel, one that
// chooses no level, cold; a session whose kept state turns out not to be
// local's — rateless cells, robust or adaptive tables — with its points
// keyed. Each rerun is
// on a new stream and holds what the session before it held but for a
// stale kept state, and the stats count every session. The reruns end:
// an upward one's window ends at MaxLevel, a cold session misses neither
// way, and a keyed one keeps nothing to find stale.
func (cs *ClientSession) fetch(ctx context.Context, d *Dataset, local []Point) (res *SyncResult, stats TransferStats, err error) {
	c, strat := cs.c, cs.sess.strategy
	if w, ok := strat.(warmStrategy); ok {
		var taken hint
		strat, taken = c.warm(cs.sess.dataset, w)
		defer func() { c.learn(cs.sess.dataset, w, taken, res, err) }()
	}
	for {
		more, err := c.exchange(ctx, func(t transport.Transport) (err error) {
			res, err = cs.sess.fetchOver(ctx, t, strat, d, local)
			return err
		})
		stats.Add(more)
		if err == nil {
			return res, stats, nil
		}
		var up *protocol.WindowUpError
		switch {
		case errors.As(err, &up):
			r := strat.(Robust)
			r.window = robustWindow(up.Lo, up.Hi).window
			strat = r
		case errors.Is(err, protocol.ErrWindowMiss):
			r := strat.(Robust)
			r.window = 0
			strat = r
		case errors.Is(err, protocol.ErrKeptStale), errors.Is(err, protocol.ErrKeptTablesStale):
			// The session forgot its stale kept state: the rerun keys.
		default:
			return nil, stats, err
		}
	}
}

// exchange runs fn on one stream of the connection — one session, or one
// roots exchange — and returns the stream's share of the wire. It waits
// for a free stream slot first. A connection found dead before fn began is
// dialed again, once.
func (c *Client) exchange(ctx context.Context, fn func(transport.Transport) error) (TransferStats, error) {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return TransferStats{}, ctx.Err()
	}
	defer func() { <-c.sem }()
	c.mu.Lock()
	c.sessions++
	c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		m, err := c.ensure(ctx)
		if err != nil {
			return TransferStats{}, err
		}
		st, err := m.Open(ctx)
		if err != nil {
			// A dead mux surfaces here; redial and retry exactly once.
			if attempt == 0 && ctx.Err() == nil {
				continue
			}
			return TransferStats{}, err
		}
		ferr := fn(st)
		stats := st.Stats()
		if ferr != nil {
			// Tear this stream down on both ends without disturbing its
			// siblings; the server's session aborts promptly instead of
			// waiting out its timeout.
			st.Reset(ferr)
			// A connection that died while idle may be found out only by
			// the first write after the OPEN went through. Nothing came
			// back on the stream, so no session ran: redial and retry
			// once, as for a mux found dead at Open.
			if attempt == 0 && stats.BytesRecv == 0 && m.Err() != nil && ctx.Err() == nil {
				continue
			}
			return stats, ferr
		}
		// The server counts the stream against its per-connection bound
		// until its own half closes, which is after this side has its
		// result. The exchange waits for that close before it frees the slot —
		// the server sends it as soon as its session function returns, so
		// there is rarely anything to wait for — and a client whose bound
		// equals the server's never has an OPEN refused while the server
		// tears the last stream down. Nothing of a fetch outlives it but
		// its CLOSE, held for the mux's next write.
		for {
			if _, err := st.Recv(ctx); err != nil {
				break // io.EOF, a reset, ctx ended, or the connection died
			}
		}
		_ = st.Close()
		return stats, nil
	}
}
