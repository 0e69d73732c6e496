// Package protocol implements the two-party wire protocols of this
// module: the robust reconciliation protocol in its one-shot and
// estimate-first variants, and the comparators (naive transfer and
// rateless exact IBLT sync).
// Each protocol is a pair of blocking session functions — RunXxxAlice /
// RunXxxBob — that drive a transport.Transport until the exchange
// completes, so the same code runs over an in-memory pipe in tests and
// over TCP in deployments.
//
// Every message is a one-byte type tag followed by a protocol-specific
// body. A party that hits an unrecoverable error sends MsgError with a
// human-readable reason before returning, so the peer fails fast instead
// of blocking.
package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"robustset/internal/trace"
	"robustset/internal/transport"
)

// init registers the wire tags' mnemonics with the trace layer, which
// attributes bytes by leading tag byte; the mapping lives here so the
// dependency points protocol → trace only.
func init() {
	for tag, name := range map[byte]string{
		MsgSketch:       "SKETCH",
		MsgEstRequest:   "EST_REQUEST",
		MsgEstimators:   "ESTIMATORS",
		MsgLevelRequest: "LEVEL_REQUEST",
		MsgLevelTable:   "LEVEL_TABLE",
		MsgDone:         "DONE",
		MsgSet:          "SET",
		MsgError:        "ERROR",
		MsgCellsRequest: "CELLS_REQUEST",
		MsgCells:        "CELLS",
		MsgHello:        "HELLO",
		MsgAccept:       "ACCEPT",
		MsgMuxHello:     "MUX_HELLO",
		MsgMuxAccept:    "MUX_ACCEPT",
	} {
		trace.RegisterFrameName(tag, name)
	}
}

// Message type tags.
const (
	// MsgSketch carries a core.Sketch (robust one-shot push).
	MsgSketch byte = 0x01
	// MsgEstRequest asks Alice for the estimators of a window of levels:
	// u32 estimatorK, u16 finest, u16 count.
	MsgEstRequest byte = 0x02
	// MsgEstimators carries the window's bottom-k estimators, coarsest
	// first, as a u32-count list of u32-length-prefixed blobs.
	MsgEstimators byte = 0x03
	// MsgLevelRequest asks Alice for one level table: u16 level,
	// u32 capacity.
	MsgLevelRequest byte = 0x04
	// MsgLevelTable carries one IBLT blob.
	MsgLevelTable byte = 0x05
	// MsgDone signals the initiator is finished (success or give-up).
	MsgDone byte = 0x06
	// MsgSet carries a raw point set (points.EncodeSet format).
	MsgSet byte = 0x07
	// 0x08 was the rateless strategy's strata estimator, 0x09 and 0x0a
	// the retired doubling path's table request and table; no protocol
	// answers them.
	// 0x0b, 0x0c and 0x0d were the retired CPI strategy's sketch,
	// payload request and payloads; no protocol answers them.
	// 0x14 and 0x15 were the retired range-based strategy's probe and
	// item frames; no protocol answers them.
	// MsgError carries a UTF-8 reason; the sender is aborting.
	MsgError byte = 0x7f
)

// RemoteError is an error relayed from the peer via MsgError.
type RemoteError struct{ Reason string }

func (e *RemoteError) Error() string { return "protocol: peer error: " + e.Reason }

// ErrUnexpectedMessage reports a protocol-state violation.
var ErrUnexpectedMessage = errors.New("protocol: unexpected message type")

// send transmits a typed message whose body is the concatenation of
// parts. The tag-plus-body encoding is built in a recycled buffer:
// Transport.Send does not retain the slice, so it goes straight back to
// the pool and the per-message allocation on the send path disappears.
func send(ctx context.Context, t transport.Transport, typ byte, parts ...[]byte) error {
	n := 1
	for _, p := range parts {
		n += len(p)
	}
	msg := transport.GetBuf(n)
	msg[0] = typ
	n = 1
	for _, p := range parts {
		n += copy(msg[n:], p)
	}
	err := t.Send(ctx, msg)
	transport.PutBuf(msg)
	return err
}

// lastSend is t whose Send is its last: t closes with the message — in
// the same write on a mux stream, Send then Close on any other Transport.
type lastSend struct{ transport.Transport }

func (l lastSend) Send(ctx context.Context, msg []byte) error {
	if s, ok := l.Transport.(*transport.Stream); ok {
		return s.SendClose(ctx, msg)
	}
	return errors.Join(l.Transport.Send(ctx, msg), l.Transport.Close())
}

// sendErr best-effort-notifies the peer and returns the original error.
func sendErr(ctx context.Context, t transport.Transport, err error) error {
	_ = send(ctx, t, MsgError, []byte(err.Error()))
	return err
}

// recv reads the next message and returns its type and body. A MsgError
// from the peer is converted into a *RemoteError.
func recv(ctx context.Context, t transport.Transport) (byte, []byte, error) {
	msg, err := t.Recv(ctx)
	if err != nil {
		return 0, nil, err
	}
	if len(msg) == 0 {
		return 0, nil, errors.New("protocol: empty frame")
	}
	if msg[0] == MsgError {
		return 0, nil, &RemoteError{Reason: string(msg[1:])}
	}
	return msg[0], msg[1:], nil
}

// recvExpect reads the next message and requires the given type.
func recvExpect(ctx context.Context, t transport.Transport, want byte) ([]byte, error) {
	typ, body, err := recv(ctx, t)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrUnexpectedMessage, typ, want)
	}
	return body, nil
}

// appendBlobList encodes a u32-count list of u32-length-prefixed blobs.
func appendBlobList(dst []byte, blobs [][]byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(blobs)))
	for _, b := range blobs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// parseBlobList decodes appendBlobList output.
func parseBlobList(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// Each entry needs at least its 4-byte length prefix, so a count
	// beyond len(b)/4 is corrupt; never allocate from an unvalidated
	// peer-supplied count.
	if n > len(b)/4 {
		return nil, errors.New("protocol: blob list count exceeds payload")
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, io.ErrUnexpectedEOF
		}
		l := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < l {
			return nil, io.ErrUnexpectedEOF
		}
		out = append(out, b[:l])
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, errors.New("protocol: trailing bytes in blob list")
	}
	return out, nil
}
