// MUX1: stream multiplexing over one Transport. A Mux carries many
// independent message streams — each implementing the Transport interface,
// so every protocol in this module runs over a mux stream unchanged —
// across a single underlying link, with per-stream flow control so one
// slow consumer cannot absorb the connection's memory, and per-stream
// close/reset so a failed session tears down without disturbing its
// siblings.
//
// Each mux frame is one underlying transport message:
//
//	uvarint streamID | u8 frameType | payload
//
// Frame types: OPEN announces a new initiator stream (payload empty),
// DATA carries exactly one sub-stream message, CLOSE half-closes the
// sender's direction (the peer's Recv drains queued messages then returns
// io.EOF), RESET aborts the stream in both directions with a reason, and
// WINDOW returns flow-control credit (u32 bytes).
//
// Flow control is credit-based: each endpoint announces its per-stream
// receive window during negotiation (see protocol.RunMuxHelloClient), a
// sender debits its copy of the peer's window by the payload size of
// every DATA frame, and the receiver returns credit as the application
// consumes messages — batched, flushing only once at least half the
// window has been consumed, so a session whose traffic fits in half a
// window exchanges no WINDOW frames at all. A sender blocks until the
// window holds min(len(msg), window/2): full reservation for ordinary
// messages, a half-window floor for oversized ones, which keeps
// progress guaranteed for any message the underlying frame limit
// admits (a blocked sender implies more than half the window is
// unacknowledged, which is exactly when the receiver will flush) while
// buffering stays bounded by 1.5 windows + one maximal message per
// stream.
//
// Frames known together share one conn write, the same bytes as ever: a
// last message and its CLOSE (SendClose); an initiator's CLOSE after the
// peer's, held — nothing waits for it — for the mux's next write, or
// until a stream's Send or Recv is about to block, or a stream's end
// leaves the mux empty (an idle mux holds at most one). OPEN is never
// deferred: a caller may wait for the peer to Accept before sending. The
// acceptor's CLOSE is never held: a Client's Fetch reads its stream to
// it, so holding it deadlocks the replicator's converged rounds. One
// buffered read takes every frame already sent.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Mux frame types.
const (
	MuxFrameOpen   byte = 0x01
	MuxFrameData   byte = 0x02
	MuxFrameClose  byte = 0x03
	MuxFrameReset  byte = 0x04
	MuxFrameWindow byte = 0x05
)

// DefaultMuxWindow is the per-stream receive window an endpoint grants
// unless configured otherwise: large enough that an entire typical
// protocol message (sketch, IBLT, cell block) streams without a credit
// round-trip, small enough that a stalled stream pins a bounded buffer.
const DefaultMuxWindow = 1 << 20

// DefaultMuxMaxStreams bounds the peer-initiated streams concurrently
// open on one mux before new opens are reset — the accept-side
// backpressure that protects a server from a client opening streams
// faster than sessions complete.
const DefaultMuxMaxStreams = 64

// muxWriteTimeout bounds how long one frame write on the underlying
// link may stall before the connection is declared wedged. Mux frame
// writes run under the connection's write lock without per-caller
// cancellation (a caller's context must not poke deadlines into the
// shared connection mid-frame, and a per-write watcher would cost a
// goroutine per frame); instead a single per-mux watchdog closes the
// link when a write has been blocked this long — a peer that stops
// reading takes down its own connection, never its siblings'.
const muxWriteTimeout = time.Minute

// muxWatchdogInterval is how often the stalled-write watchdog looks.
const muxWatchdogInterval = 10 * time.Second

// MuxFrame is the parsed form of one mux frame.
type MuxFrame struct {
	StreamID uint64
	Type     byte
	Payload  []byte
}

// AppendMuxFrame appends the wire encoding of a frame to dst.
func AppendMuxFrame(dst []byte, f MuxFrame) []byte {
	dst = binary.AppendUvarint(dst, f.StreamID)
	dst = append(dst, f.Type)
	return append(dst, f.Payload...)
}

// ParseMuxFrame decodes one mux frame. The payload aliases b.
func ParseMuxFrame(b []byte) (MuxFrame, error) {
	var f MuxFrame
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return f, errors.New("transport: mux frame: truncated stream id")
	}
	b = b[n:]
	if len(b) < 1 {
		return f, errors.New("transport: mux frame: missing type")
	}
	f.StreamID = id
	f.Type = b[0]
	f.Payload = b[1:]
	switch f.Type {
	case MuxFrameOpen:
		if len(f.Payload) != 0 {
			return f, errors.New("transport: mux frame: OPEN carries a payload")
		}
	case MuxFrameData:
	case MuxFrameClose:
		if len(f.Payload) != 0 {
			return f, errors.New("transport: mux frame: CLOSE carries a payload")
		}
	case MuxFrameReset:
	case MuxFrameWindow:
		if len(f.Payload) != 4 {
			return f, fmt.Errorf("transport: mux frame: WINDOW payload is %d bytes, want 4", len(f.Payload))
		}
	default:
		return f, fmt.Errorf("transport: mux frame: unknown type 0x%02x", f.Type)
	}
	if f.StreamID == 0 {
		return f, errors.New("transport: mux frame: stream id 0 is reserved")
	}
	return f, nil
}

// StreamResetError reports a stream aborted by RESET, carrying the
// peer's (or the local resetter's) reason.
type StreamResetError struct{ Reason string }

func (e *StreamResetError) Error() string { return "transport: stream reset: " + e.Reason }

// ErrMuxClosed is returned for operations on a mux whose underlying
// link is gone.
var ErrMuxClosed = errors.New("transport: mux closed")

// ErrTooManyStreams is the reset reason an accept-side mux sends when a
// peer opens more concurrent streams than MuxConfig.MaxStreams allows.
var ErrTooManyStreams = errors.New("transport: too many concurrent streams")

// MuxConfig tunes one endpoint of a mux.
type MuxConfig struct {
	// RecvWindow is the per-stream receive window this endpoint granted
	// the peer during negotiation. <= 0 means DefaultMuxWindow.
	RecvWindow int
	// SendWindow is the per-stream window the peer granted this
	// endpoint. <= 0 means DefaultMuxWindow.
	SendWindow int
	// MaxStreams bounds concurrently open peer-initiated streams;
	// excess opens are reset with ErrTooManyStreams. <= 0 means
	// DefaultMuxMaxStreams.
	MaxStreams int
	// OnDecodeFailure, when non-nil, observes every malformed mux frame
	// before the connection is torn down — the hook the server metrics
	// registry counts.
	OnDecodeFailure func(error)
}

func (c MuxConfig) withDefaults() MuxConfig {
	if c.RecvWindow <= 0 {
		c.RecvWindow = DefaultMuxWindow
	}
	if c.SendWindow <= 0 {
		c.SendWindow = DefaultMuxWindow
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = DefaultMuxMaxStreams
	}
	return c
}

// Mux multiplexes message streams over one Transport. Both endpoints
// build one after negotiating (initiator true on the side that sent the
// mux hello); the initiator Opens streams, the other side Accepts them.
// All methods are safe for concurrent use.
type Mux struct {
	t         Transport
	cfg       MuxConfig
	initiator bool

	ctx    context.Context
	cancel context.CancelFunc
	// epoch anchors the monotonic elapsed-time readings the stalled-write
	// watchdog compares (time.Since keeps the monotonic clock; raw
	// time.Now().UnixNano() would not survive a wall-clock step).
	epoch time.Time

	wmu sync.Mutex // serializes all frame writes on t
	// wbuf holds the next write's wn frames, each length-prefixed: held
	// CLOSEs, then the write's own. Reused; guarded by wmu.
	wbuf []byte
	wn   int
	held atomic.Bool    // wbuf holds CLOSEs; tested without wmu
	conn *connTransport // t if it frames a net.Conn: one conn write per flush

	mu        sync.Mutex
	streams   map[uint64]*Stream
	nextID    uint64 // next id this endpoint assigns
	lastPeer  uint64 // highest peer-opened id seen
	acceptQ   []*Stream
	acceptCh  chan struct{} // signaled when acceptQ grows
	peerOpen  int           // peer-initiated streams currently open
	dead      chan struct{} // closed when the demux loop exits
	deadErr   error
	deadOnce  sync.Once
	opened    atomic.Int64 // lifetime streams, both directions
	decodeErr atomic.Int64
	// writeStart is the monotonic elapsed time (relative to epoch) a
	// frame write began, 0 when no write is in flight — the
	// stalled-write watchdog's only input.
	writeStart atomic.Int64
}

// NewMux starts multiplexing over t. The caller must not use t directly
// afterwards; Close tears down the mux and the underlying transport.
func NewMux(t Transport, initiator bool, cfg MuxConfig) *Mux {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Mux{
		t:         t,
		cfg:       cfg.withDefaults(),
		initiator: initiator,
		ctx:       ctx,
		epoch:     time.Now(),
		cancel:    cancel,
		streams:   make(map[uint64]*Stream),
		acceptCh:  make(chan struct{}, 1),
		dead:      make(chan struct{}),
	}
	if m.conn, _ = t.(*connTransport); m.conn != nil {
		_ = m.conn.conn.SetWriteDeadline(time.Time{}) // mux writes carry none
	}
	// Initiator streams are odd, acceptor streams would be even; only
	// initiator-opened streams exist today but the parity rule keeps the
	// id spaces disjoint if that ever changes.
	if initiator {
		m.nextID = 1
	} else {
		m.nextID = 2
	}
	go m.demux()
	go m.watchdog()
	return m
}

// Stats returns the underlying link's accounting — the whole
// connection's traffic, mux framing included.
func (m *Mux) Stats() Stats { return m.t.Stats() }

// StreamsOpened returns the lifetime count of streams this mux carried.
func (m *Mux) StreamsOpened() int64 { return m.opened.Load() }

// DecodeFailures returns the number of malformed mux frames received.
func (m *Mux) DecodeFailures() int64 { return m.decodeErr.Load() }

// Close tears down the mux: every stream fails, Accept returns
// ErrMuxClosed, and the underlying transport is closed.
func (m *Mux) Close() error {
	m.shutdown(ErrMuxClosed)
	return nil
}

// Err returns the terminal error once the mux is dead, nil while alive.
func (m *Mux) Err() error {
	select {
	case <-m.dead:
		return m.deadErr
	default:
		return nil
	}
}

// shutdown marks the mux dead with err, fails every stream and closes
// the underlying transport. Idempotent.
func (m *Mux) shutdown(err error) {
	m.deadOnce.Do(func() {
		m.deadErr = err
		m.cancel()
		m.t.Close()
		m.mu.Lock()
		for _, s := range m.streams {
			s.fail(err)
		}
		close(m.dead)
		m.mu.Unlock()
	})
}

// watchdog closes the link when a frame write has been blocked past
// muxWriteTimeout — the stalled-peer protection per-write contexts
// would otherwise provide, at one goroutine per connection instead of
// one per frame.
func (m *Mux) watchdog() {
	ticker := time.NewTicker(muxWatchdogInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.dead:
			return
		case <-ticker.C:
			if start := m.writeStart.Load(); start != 0 && time.Since(m.epoch)-time.Duration(start) > muxWriteTimeout {
				m.shutdown(fmt.Errorf("transport: mux write stalled over %v", muxWriteTimeout))
			}
		}
	}
}

// demux is the single reader: it dispatches every incoming frame to its
// stream until the link fails. The blocking Recv carries no deadline —
// an idle multiplexed connection is legitimate — and is unblocked by
// Close (which closes the underlying transport).
func (m *Mux) demux() {
	for {
		msg, err := m.t.Recv(context.Background())
		if err != nil {
			m.shutdown(err)
			return
		}
		f, err := ParseMuxFrame(msg)
		if err != nil {
			m.decodeErr.Add(1)
			if m.cfg.OnDecodeFailure != nil {
				m.cfg.OnDecodeFailure(err)
			}
			// A malformed frame means the endpoints disagree about the
			// framing itself; no per-stream recovery is possible.
			m.shutdown(err)
			return
		}
		m.dispatch(f)
	}
}

// dispatch routes one parsed frame. Frames for unknown streams other
// than OPEN are ignored: they are the legitimate tail of a stream the
// local side already reset.
func (m *Mux) dispatch(f MuxFrame) {
	m.mu.Lock()
	s := m.streams[f.StreamID]
	if s == nil {
		if f.Type != MuxFrameOpen {
			m.mu.Unlock()
			return
		}
		// Peer-initiated stream: ids must come from the peer's parity
		// space and grow monotonically, or the peer is confused enough
		// that the connection cannot be trusted.
		peerParity := uint64(0)
		if !m.initiator {
			peerParity = 1
		}
		if f.StreamID%2 != peerParity || f.StreamID <= m.lastPeer {
			m.mu.Unlock()
			m.shutdown(fmt.Errorf("transport: mux: peer opened invalid stream id %d", f.StreamID))
			return
		}
		m.lastPeer = f.StreamID
		if m.peerOpen >= m.cfg.MaxStreams {
			m.mu.Unlock()
			_ = m.writeFrames(MuxFrame{StreamID: f.StreamID, Type: MuxFrameReset,
				Payload: []byte(ErrTooManyStreams.Error())})
			return
		}
		s = m.newStream(f.StreamID, true)
		m.streams[f.StreamID] = s
		m.peerOpen++
		m.opened.Add(1)
		m.acceptQ = append(m.acceptQ, s)
		select {
		case m.acceptCh <- struct{}{}:
		default:
		}
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()

	switch f.Type {
	case MuxFrameOpen:
		m.shutdown(fmt.Errorf("transport: mux: duplicate OPEN for stream %d", f.StreamID))
	case MuxFrameData:
		s.deliver(f.Payload)
	case MuxFrameClose:
		s.peerClosed()
	case MuxFrameReset:
		s.peerReset(string(f.Payload))
		m.drop(s)
	case MuxFrameWindow:
		s.credit(int(binary.LittleEndian.Uint32(f.Payload)))
	}
}

// drop forgets a stream (after reset or full close), releasing its
// accept-side concurrency slot, and reports whether no stream is left.
func (m *Mux) drop(s *Stream) (last bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.streams[s.id]; ok {
		delete(m.streams, s.id)
		if s.accepted {
			m.peerOpen--
		}
	}
	return len(m.streams) == 0
}

// flushHeld writes the held CLOSEs, if any; a failed write kills the mux.
func (m *Mux) flushHeld() {
	if m.held.Load() {
		_ = m.writeFrames()
	}
}

// writeFrames puts fs on the link in one write, behind any held CLOSEs.
// All writes go through here under wmu; writeFramesLocked holds it.
func (m *Mux) writeFrames(fs ...MuxFrame) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.writeFramesLocked(fs...)
}

func (m *Mux) writeFramesLocked(fs ...MuxFrame) error {
	for _, f := range fs {
		m.appendFrameLocked(f)
	}
	return m.flushLocked()
}

// appendFrameLocked adds f to the next write.
func (m *Mux) appendFrameLocked(f MuxFrame) {
	at := len(m.wbuf)
	m.wbuf = AppendMuxFrame(append(m.wbuf, 0, 0, 0, 0), f)
	binary.LittleEndian.PutUint32(m.wbuf[at:], uint32(len(m.wbuf)-at-frameOverhead))
	m.wn++
}

// flushLocked writes wbuf's frames: one conn write on a framed
// connection, one Send each on any other transport. No per-call context
// — a cancellation poke would corrupt the shared connection mid-frame —
// so the watchdog (or Close) breaks a stall. Caller holds wmu.
func (m *Mux) flushLocked() error {
	buf, n := m.wbuf, m.wn
	m.wbuf, m.wn = m.wbuf[:0], 0
	if cap(buf) > maxRetainedFrame || !BufferPoolingEnabled() {
		m.wbuf = nil // a jumbo buffer is not pinned; unpooled writes get fresh ones
	}
	if m.held.Store(false); n == 0 {
		return nil // another writer took the held CLOSEs
	}
	start := int64(time.Since(m.epoch))
	if start == 0 {
		start = 1 // 0 is the "no write in flight" sentinel
	}
	m.writeStart.Store(start)
	var err error
	if c := m.conn; c != nil { // the connection's only writer
		if _, err = c.conn.Write(buf); err == nil {
			c.ctrs.bytesSent.Add(int64(len(buf)))
			c.ctrs.msgsSent.Add(int64(n))
		}
	} else {
		for rest := buf; err == nil && len(rest) > 0; {
			size := frameOverhead + int(binary.LittleEndian.Uint32(rest))
			err = m.t.Send(context.Background(), rest[frameOverhead:size])
			rest = rest[size:]
		}
	}
	m.writeStart.Store(0)
	if err != nil {
		m.shutdown(fmt.Errorf("transport: mux write: %w", err))
		return err
	}
	return nil
}

// newStream builds a stream in the given role. Caller holds m.mu.
func (m *Mux) newStream(id uint64, accepted bool) *Stream {
	return &Stream{
		mux:      m,
		id:       id,
		accepted: accepted,
		sendWin:  m.cfg.SendWindow,
		sendCap:  m.cfg.SendWindow,
		recvCh:   make(chan struct{}, 1),
		sendCh:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
}

// Open starts a new stream. The OPEN frame is sent immediately and the
// stream is usable without waiting for the peer — opens pipeline.
func (m *Mux) Open(ctx context.Context) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Id allocation and the OPEN write stay atomic under the write lock:
	// concurrent Opens must put their OPEN frames on the wire in id
	// order, or the peer's monotonicity check would see a replay.
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.mu.Lock()
	select {
	case <-m.dead:
		m.mu.Unlock()
		return nil, m.deadErr
	default:
	}
	id := m.nextID
	m.nextID += 2
	s := m.newStream(id, false)
	m.streams[id] = s
	m.opened.Add(1)
	m.mu.Unlock()
	if err := m.writeFramesLocked(MuxFrame{StreamID: id, Type: MuxFrameOpen}); err != nil {
		m.drop(s)
		return nil, err
	}
	return s, nil
}

// Accept blocks for the next peer-initiated stream.
func (m *Mux) Accept(ctx context.Context) (*Stream, error) {
	for {
		m.mu.Lock()
		if len(m.acceptQ) > 0 {
			s := m.acceptQ[0]
			m.acceptQ = m.acceptQ[1:]
			m.mu.Unlock()
			return s, nil
		}
		m.mu.Unlock()
		select {
		case <-m.acceptCh:
		case <-m.dead:
			return nil, m.deadErr
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// ---------------------------------------------------------------------
// Stream

// Stream is one sub-stream of a Mux. It implements Transport, so every
// protocol session in this module runs over it unchanged. One concurrent
// sender plus one concurrent receiver, like every Transport.
type Stream struct {
	mux      *Mux
	id       uint64
	accepted bool

	mu        sync.Mutex
	recvQ     [][]byte
	lastRecv  []byte // buffer returned by the previous Recv, recycled on the next
	recvDone  bool   // peer sent CLOSE
	reset     string // non-empty after RESET either way
	failErr   error  // mux-level failure
	sentClose bool
	sendWin   int           // remaining credit
	sendCap   int           // the peer's full window (for the send gate)
	consumed  int           // bytes consumed since the last credit flush
	recvDebt  int           // bytes delivered and not yet returned as credit
	recvCh    chan struct{} // signaled when recvQ/recvDone/reset change
	sendCh    chan struct{} // signaled when sendWin grows or state changes
	doneOnce  sync.Once
	done      chan struct{} // closed on reset/fail (fast-fails both directions)
	ctrs      counters
}

// ID returns the stream's mux-level identifier.
func (s *Stream) ID() uint64 { return s.id }

// Stats returns this stream's accounting: sub-stream message payloads
// plus this stream's share of the mux framing.
func (s *Stream) Stats() Stats { return s.ctrs.snapshot() }

// muxStreamOverhead is the per-message accounting charge for a mux
// stream: the underlying frame prefix plus a typical mux header (stream
// id varint + type byte). The varint length varies with the id; the
// fixed charge keeps Stats comparable across streams.
const muxStreamOverhead = frameOverhead + 3

// signal pokes a capacity-1 notification channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// deliver queues one incoming message (demux goroutine). The payload
// aliases the underlying Recv's receive buffer, which is valid only
// until the demux loop's next Recv — so it is copied into a recycled
// buffer here. The stream returns the buffer to the pool once its
// consumer moves past it (see Recv), closing the recycle loop.
//
// The advertised window is enforced here, not just trusted: a
// conforming sender's un-credited debt never exceeds the full window
// (or half a window plus the message, for an oversized one — the send
// gate's bound), so a frame beyond that is a peer ignoring flow control
// and the connection is killed before it can queue unbounded memory.
func (s *Stream) deliver(msg []byte) {
	s.mu.Lock()
	if s.reset != "" || s.failErr != nil {
		s.mu.Unlock()
		return
	}
	s.recvDebt += len(msg)
	limit := s.mux.cfg.RecvWindow
	if half := limit / 2; len(msg) > half {
		limit = half + len(msg)
	}
	if s.recvDebt > limit {
		s.mu.Unlock()
		s.mux.shutdown(fmt.Errorf("transport: mux: peer overflowed stream %d's receive window", s.id))
		return
	}
	cp := GetBuf(len(msg))
	copy(cp, msg)
	s.recvQ = append(s.recvQ, cp)
	s.mu.Unlock()
	signal(s.recvCh)
}

// peerClosed records the peer's half-close. When the local side already
// closed too, the stream is complete and forgotten.
func (s *Stream) peerClosed() {
	s.mu.Lock()
	s.recvDone = true
	bothDone := s.sentClose
	s.mu.Unlock()
	signal(s.recvCh)
	if bothDone {
		s.mux.drop(s)
	}
}

// recycleQueueLocked returns undelivered queued buffers to the pool
// when a stream aborts — never the lastRecv buffer, which the consumer
// may still be reading. Caller holds s.mu.
func (s *Stream) recycleQueueLocked() {
	for i, b := range s.recvQ {
		PutBuf(b)
		s.recvQ[i] = nil
	}
	s.recvQ = nil
}

// peerReset aborts the stream from the peer's RESET.
func (s *Stream) peerReset(reason string) {
	s.mu.Lock()
	if s.reset == "" {
		s.reset = reason
	}
	s.recycleQueueLocked()
	s.mu.Unlock()
	s.doneOnce.Do(func() { close(s.done) })
	signal(s.recvCh)
	signal(s.sendCh)
}

// fail aborts the stream on mux-level failure.
func (s *Stream) fail(err error) {
	s.mu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.mu.Unlock()
	s.doneOnce.Do(func() { close(s.done) })
	signal(s.recvCh)
	signal(s.sendCh)
}

// credit returns n bytes of send window (demux goroutine).
func (s *Stream) credit(n int) {
	s.mu.Lock()
	s.sendWin += n
	if s.sendWin > s.sendCap {
		s.sendWin = s.sendCap
	}
	s.mu.Unlock()
	signal(s.sendCh)
}

// terminalErr returns the error pending sends/recvs must surface, or
// nil. Caller holds s.mu.
func (s *Stream) terminalErr() error {
	if s.reset != "" {
		return &StreamResetError{Reason: s.reset}
	}
	return s.failErr
}

// Send transmits one message on the stream, blocking for flow-control
// credit when the peer's receive window is exhausted. The gate is
// min(len(msg), window/2), matching the receiver's half-window credit
// flush, so even a message larger than the whole window makes progress.
func (s *Stream) Send(ctx context.Context, msg []byte) error { return s.send(ctx, msg, false) }

// SendClose is Send then Close, in one write; its CLOSE is never held.
func (s *Stream) SendClose(ctx context.Context, msg []byte) error { return s.send(ctx, msg, true) }

func (s *Stream) send(ctx context.Context, msg []byte, close bool) error {
	if limit := MessageLimit(s); len(msg) > limit { // refused here, the mux unharmed
		return fmt.Errorf("transport: message of %d bytes exceeds frame limit %d", len(msg), limit)
	}
	gate := len(msg)
	if half := s.sendCap / 2; gate > half {
		gate = half
	}
	bothDone := false
	for {
		s.mu.Lock()
		if err := s.terminalErr(); err != nil {
			s.mu.Unlock()
			return err
		}
		if s.sentClose {
			s.mu.Unlock()
			return ErrClosed
		}
		if s.sendWin >= gate {
			s.sendWin -= len(msg)
			s.sentClose, bothDone = close, close && s.recvDone
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
		s.mux.flushHeld()
		select {
		case <-s.sendCh:
		case <-s.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// No defensive copy: writeFrames serializes the payload into its own
	// buffer before the caller regains control of msg.
	fs := [2]MuxFrame{{StreamID: s.id, Type: MuxFrameData, Payload: msg}, {StreamID: s.id, Type: MuxFrameClose}}
	frames := fs[:1]
	if close {
		frames = fs[:]
	}
	if bothDone {
		s.mux.drop(s) // as Close does, before the peer can act on the CLOSE
	}
	if err := s.mux.writeFrames(frames...); err != nil {
		return err
	}
	s.ctrs.bytesSent.Add(int64(len(msg) + muxStreamOverhead))
	s.ctrs.msgsSent.Add(1)
	traceFrame(ctx, msg, true, len(msg)+muxStreamOverhead)
	return nil
}

// Recv blocks for the next message. After the peer half-closes, queued
// messages drain and then Recv returns io.EOF.
//
// Per the Transport contract the returned slice is valid only until the
// next Recv on this stream: the previous message's buffer is recycled
// here, which is what lets a steady-state session run allocation-free.
func (s *Stream) Recv(ctx context.Context) ([]byte, error) {
	for {
		s.mu.Lock()
		// The caller calling Recv again is the signal it is done with the
		// previously returned buffer.
		if s.lastRecv != nil {
			PutBuf(s.lastRecv)
			s.lastRecv = nil
		}
		if len(s.recvQ) > 0 {
			msg := s.recvQ[0]
			s.recvQ = s.recvQ[1:]
			s.lastRecv = msg
			s.consumed += len(msg)
			credit := 0
			if s.consumed >= s.mux.cfg.RecvWindow/2 {
				credit = s.consumed
				s.consumed = 0
				s.recvDebt -= credit
			}
			s.mu.Unlock()
			s.ctrs.bytesRecv.Add(int64(len(msg) + muxStreamOverhead))
			s.ctrs.msgsRecv.Add(1)
			traceFrame(ctx, msg, false, len(msg)+muxStreamOverhead)
			if credit > 0 {
				// Return the batch of consumed bytes so the peer can keep
				// streaming; best-effort — if the write fails the mux is
				// already dead and the next Recv reports it.
				var win [4]byte
				binary.LittleEndian.PutUint32(win[:], uint32(credit))
				_ = s.mux.writeFrames(MuxFrame{StreamID: s.id, Type: MuxFrameWindow, Payload: win[:]})
			}
			return msg, nil
		}
		if err := s.terminalErr(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if s.recvDone {
			s.mu.Unlock()
			return nil, io.EOF
		}
		s.mu.Unlock()
		s.mux.flushHeld()
		select {
		case <-s.recvCh:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Close half-closes the sending direction: the peer drains queued
// messages and then sees io.EOF. Safe to call multiple times. When both
// directions have closed the stream is forgotten by the mux.
// An initiator's CLOSE after the peer's is held (see the package comment).
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.sentClose || s.reset != "" || s.failErr != nil {
		s.mu.Unlock()
		return nil
	}
	s.sentClose = true
	bothDone := s.recvDone
	s.mu.Unlock()
	// Forget a finished stream before telling the peer: once it sees the
	// CLOSE it may open a stream into the slot this one held.
	last := bothDone && s.mux.drop(s)
	if !bothDone || s.accepted {
		return s.mux.writeFrames(MuxFrame{StreamID: s.id, Type: MuxFrameClose})
	}
	// Held, unless its end left the mux empty with CLOSEs held: all go now.
	s.mux.wmu.Lock()
	defer s.mux.wmu.Unlock()
	flush := last && s.mux.wn > 0
	if s.mux.appendFrameLocked(MuxFrame{StreamID: s.id, Type: MuxFrameClose}); flush {
		return s.mux.flushLocked()
	}
	s.mux.held.Store(true)
	return nil
}

// Reset aborts the stream in both directions, relaying reason to the
// peer. Pending and future Sends and Recvs on either side fail with a
// *StreamResetError; sibling streams are unaffected.
func (s *Stream) Reset(reason error) {
	msg := "reset"
	if reason != nil {
		msg = reason.Error()
	}
	s.mu.Lock()
	if s.reset != "" || s.failErr != nil {
		s.mu.Unlock()
		return
	}
	s.reset = msg
	s.recycleQueueLocked()
	s.mu.Unlock()
	s.doneOnce.Do(func() { close(s.done) })
	signal(s.recvCh)
	signal(s.sendCh)
	_ = s.mux.writeFrames(MuxFrame{StreamID: s.id, Type: MuxFrameReset, Payload: []byte(msg)})
	s.mux.drop(s)
}
