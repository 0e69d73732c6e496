// Package transport provides the message-oriented links the two-party
// reconciliation protocols run over, with byte-level accounting. Two
// implementations are provided: an in-process pipe (for tests — the
// "two-host protocol simulation") and a
// length-prefixed framing over any net.Conn (net.Pipe, TCP), which is what
// a real deployment uses.
//
// Every blocking operation takes a context.Context: cancelling it aborts
// an in-flight Send or Recv promptly (for the net.Conn framing, by
// poking the connection's read/write deadline), and a context deadline is
// propagated onto the connection so a stalled peer cannot hold a session
// forever.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"robustset/internal/trace"
)

// Transport is a reliable, ordered, message-preserving duplex link.
// Implementations are safe for one concurrent sender plus one concurrent
// receiver (the pattern every protocol here uses).
type Transport interface {
	// Send transmits one message. Cancelling ctx aborts a blocked send.
	// Implementations do not retain msg after Send returns, so callers
	// may immediately reuse (or recycle) the buffer.
	Send(ctx context.Context, msg []byte) error
	// Recv blocks for the next message. It returns io.EOF after the peer
	// closes cleanly; cancelling ctx aborts a blocked receive with
	// ctx.Err().
	//
	// The returned slice is valid only until the next Recv on the same
	// transport — implementations may reuse the buffer. Callers that
	// need the bytes longer must copy them first (every protocol parser
	// in this module does).
	Recv(ctx context.Context) ([]byte, error)
	// Close releases the link. Safe to call multiple times.
	Close() error
	// Stats returns a snapshot of the link's accounting.
	Stats() Stats
}

// Stats counts traffic on one endpoint. Protocol experiments read these
// to report communication costs; bytes include framing overhead so the
// numbers match what a network would carry.
type Stats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
}

// Total returns bytes sent plus received.
func (s Stats) Total() int64 { return s.BytesSent + s.BytesRecv }

// Add accumulates another endpoint's counts into s — merging the stats
// of parallel streams into one session total.
func (s *Stats) Add(o Stats) {
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.MsgsSent += o.MsgsSent
	s.MsgsRecv += o.MsgsRecv
}

func (s Stats) String() string {
	return fmt.Sprintf("sent %dB/%d msgs, recv %dB/%d msgs", s.BytesSent, s.MsgsSent, s.BytesRecv, s.MsgsRecv)
}

// counters is the shared atomic implementation of Stats tracking.
type counters struct {
	bytesSent, bytesRecv atomic.Int64
	msgsSent, msgsRecv   atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
	}
}

// ErrClosed is returned for operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// traceFrame attributes one message's wire bytes (payload plus framing
// overhead, i.e. exactly what the transport's own counters charge) to
// the session trace carried by ctx, keyed by the message's leading
// protocol tag byte. An untraced context is a zero-allocation no-op,
// so the call sits beside every counter charge unconditionally.
func traceFrame(ctx context.Context, msg []byte, out bool, n int) {
	if tr := trace.FromContext(ctx); tr != nil && len(msg) > 0 {
		tr.Frame(msg[0], out, n)
	}
}

// frameOverhead is the per-message framing cost (u32 length prefix),
// charged by both implementations so accounting is comparable.
const frameOverhead = 4

// MaxFrameSize bounds a single message; a peer announcing more is treated
// as corrupt rather than trusted with an allocation.
const MaxFrameSize = 1 << 28 // 256 MiB

// ---------------------------------------------------------------------
// In-memory pipe

type memEnd struct {
	send    chan<- []byte
	recv    <-chan []byte
	closeMu sync.Mutex
	closed  chan struct{}
	peer    *memEnd
	ctrs    counters
}

// Pair returns the two endpoints of an in-memory link. Messages are
// copied, so callers may reuse buffers.
func Pair() (alice, bob Transport) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	a := &memEnd{send: ab, recv: ba, closed: make(chan struct{})}
	b := &memEnd{send: ba, recv: ab, closed: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (m *memEnd) Send(ctx context.Context, msg []byte) error {
	// Check closure and cancellation first and separately: in a combined
	// select Go picks uniformly among ready cases, which would let a send
	// sneak through after Close whenever the buffer has room.
	select {
	case <-m.closed:
		return ErrClosed
	case <-m.peer.closed:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	cp := append([]byte(nil), msg...)
	select {
	case <-m.closed:
		return ErrClosed
	case <-m.peer.closed:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	case m.send <- cp:
		m.ctrs.bytesSent.Add(int64(len(msg) + frameOverhead))
		m.ctrs.msgsSent.Add(1)
		traceFrame(ctx, msg, true, len(msg)+frameOverhead)
		return nil
	}
}

func (m *memEnd) Recv(ctx context.Context) ([]byte, error) {
	var closed error
	select {
	case msg, ok := <-m.recv:
		return m.got(ctx, msg, ok)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-m.closed:
		closed = ErrClosed
	case <-m.peer.closed:
		closed = io.EOF
	}
	// Drain anything already queued before reporting closure.
	select {
	case msg, ok := <-m.recv:
		return m.got(ctx, msg, ok)
	default:
		return nil, closed
	}
}

func (m *memEnd) got(ctx context.Context, msg []byte, ok bool) ([]byte, error) {
	if !ok {
		return nil, io.EOF
	}
	m.ctrs.bytesRecv.Add(int64(len(msg) + frameOverhead))
	m.ctrs.msgsRecv.Add(1)
	traceFrame(ctx, msg, false, len(msg)+frameOverhead)
	return msg, nil
}

func (m *memEnd) Close() error {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	select {
	case <-m.closed:
		return nil
	default:
		close(m.closed)
	}
	return nil
}

func (m *memEnd) Stats() Stats { return m.ctrs.snapshot() }

// ---------------------------------------------------------------------
// net.Conn framing

type connTransport struct {
	conn     net.Conn
	maxFrame int
	sendMu   sync.Mutex
	recvMu   sync.Mutex
	ctrs     counters
	lenBuf   [frameOverhead]byte
	rLenBuf  [frameOverhead]byte
	// wbufs is the two-element vector handed to net.Buffers so the
	// length prefix and payload leave in one writev (one TCP segment for
	// small messages) instead of two Writes. Guarded by sendMu.
	wbufs [2][]byte
	// br reads the connection (recvMu): one read takes up to 4 KiB of the
	// frames already sent; a longer body is read straight into its message.
	br *bufio.Reader
	// rbuf is the grow-only receive buffer Recv reads frames into — the
	// reuse behind the "valid until next Recv" contract. Guarded by
	// recvMu. Frames above maxRetainedFrame are allocated fresh so a
	// one-off jumbo frame is not pinned for the connection's lifetime.
	rbuf []byte
}

// NewConn wraps a net.Conn (TCP, net.Pipe, Unix socket) with u32
// little-endian length framing.
func NewConn(c net.Conn) Transport { return NewConnLimit(c, 0) }

// NewConnLimit is NewConn with a per-message size cap: messages larger
// than maxFrame are refused locally before transmission and a peer
// announcing a larger frame is treated as corrupt. maxFrame <= 0 or
// > MaxFrameSize means the package-wide MaxFrameSize.
func NewConnLimit(c net.Conn, maxFrame int) Transport {
	if maxFrame <= 0 || maxFrame > MaxFrameSize {
		maxFrame = MaxFrameSize
	}
	return &connTransport{conn: c, maxFrame: maxFrame, br: bufio.NewReaderSize(c, 4<<10)}
}

// MessageLimit returns the largest message t sends: a framed
// connection's frame limit, that limit less the largest mux header on a
// stream, MaxFrameSize on any other transport.
func MessageLimit(t Transport) int {
	switch t := t.(type) {
	case *connTransport:
		return t.maxFrame
	case *Stream:
		return MessageLimit(t.mux.t) - MuxFrameOverhead
	}
	return MaxFrameSize
}

// MuxFrameOverhead is the largest mux frame header (uvarint stream id +
// type byte) a frame can carry on top of its payload.
const MuxFrameOverhead = binary.MaxVarintLen64 + 1

// NewMuxConnLimit is NewConnLimit for a connection that will carry MUX1
// frames: the cap is raised by MuxFrameOverhead so a protocol message
// exactly at the session's size limit still fits in one mux frame —
// without the headroom, a maximal legal message would fail the carrier's
// frame check and tear down every stream on the connection. The
// handshake that precedes the mux upgrade rides the same transport; its
// messages are tiny, so the extra headroom is immaterial there.
func NewMuxConnLimit(c net.Conn, maxFrame int) Transport {
	t := NewConnLimit(c, maxFrame).(*connTransport)
	t.maxFrame += MuxFrameOverhead
	return t
}

// aLongTimeAgo is a non-zero time in the distant past, used to force a
// blocked read or write to return immediately (the net package treats any
// past deadline as "fail pending I/O now").
var aLongTimeAgo = time.Unix(1, 0)

// watch arms cancellation for one blocking conn operation: the context's
// deadline (or none) is installed via setDeadline, and if the context is
// cancellable a watcher goroutine pokes a past deadline into the
// connection the moment it fires. The returned stop function must be
// called when the operation completes; it waits for the watcher so no
// deadline poke can leak into a later operation.
func watch(ctx context.Context, setDeadline func(time.Time) error) (stop func(), err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline, _ := ctx.Deadline()
	// Install the context's deadline — or clear any deadline a previous
	// operation left behind.
	_ = setDeadline(deadline)
	done := ctx.Done()
	if done == nil {
		return func() {}, nil
	}
	stopCh := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			_ = setDeadline(aLongTimeAgo)
		case <-stopCh:
		}
	}()
	return func() {
		close(stopCh)
		<-exited
	}, nil
}

// ctxErr substitutes ctx.Err() for I/O errors caused by a cancellation
// poke, so callers observe context.Canceled / DeadlineExceeded instead of
// an opaque "i/o timeout".
func ctxErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	// The connection deadline is installed from the context's, and the
	// net poller's timer can fire a scheduling hair before the context's
	// own timer marks it done. If the I/O failure is a timeout and the
	// context's deadline has in fact passed, report DeadlineExceeded —
	// otherwise the error taxonomy would depend on which timer won.
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			return context.DeadlineExceeded
		}
	}
	return err
}

func (t *connTransport) Send(ctx context.Context, msg []byte) error {
	if len(msg) > t.maxFrame {
		return fmt.Errorf("transport: message of %d bytes exceeds frame limit %d", len(msg), t.maxFrame)
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	stop, err := watch(ctx, t.conn.SetWriteDeadline)
	if err != nil {
		return err
	}
	defer stop()
	binary.LittleEndian.PutUint32(t.lenBuf[:], uint32(len(msg)))
	// Prefix and payload go out as one writev: a single syscall, and for
	// messages under the MSS a single TCP segment instead of two.
	// net.Buffers falls back to sequential Writes on connections without
	// writev (net.Pipe), which is no worse than writing them separately.
	t.wbufs[0] = t.lenBuf[:]
	t.wbufs[1] = msg
	bufs := net.Buffers(t.wbufs[:])
	_, err = bufs.WriteTo(t.conn)
	t.wbufs[1] = nil // do not retain the caller's buffer
	if err != nil {
		return ctxErr(ctx, err)
	}
	t.ctrs.bytesSent.Add(int64(len(msg) + frameOverhead))
	t.ctrs.msgsSent.Add(1)
	traceFrame(ctx, msg, true, len(msg)+frameOverhead)
	return nil
}

func (t *connTransport) Recv(ctx context.Context) ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	stop, err := watch(ctx, t.conn.SetReadDeadline)
	if err != nil {
		return nil, err
	}
	defer stop()
	if _, err := io.ReadFull(t.br, t.rLenBuf[:]); err != nil {
		if cerr := ctxErr(ctx, err); cerr != err {
			return nil, cerr
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("transport: torn frame header: %w", err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(t.rLenBuf[:])
	if int64(n) > int64(t.maxFrame) {
		return nil, fmt.Errorf("transport: peer announced %d-byte frame (limit %d)", n, t.maxFrame)
	}
	var msg []byte
	if n <= maxRetainedFrame && BufferPoolingEnabled() {
		if cap(t.rbuf) < int(n) {
			t.rbuf = make([]byte, n)
		}
		msg = t.rbuf[:n]
	} else {
		msg = make([]byte, n)
	}
	if _, err := io.ReadFull(t.br, msg); err != nil {
		if cerr := ctxErr(ctx, err); cerr != err {
			return nil, cerr
		}
		return nil, fmt.Errorf("transport: torn frame body: %w", err)
	}
	t.ctrs.bytesRecv.Add(int64(int(n) + frameOverhead))
	t.ctrs.msgsRecv.Add(1)
	traceFrame(ctx, msg, false, int(n)+frameOverhead)
	return msg, nil
}

func (t *connTransport) Close() error { return t.conn.Close() }

func (t *connTransport) Stats() Stats { return t.ctrs.snapshot() }
