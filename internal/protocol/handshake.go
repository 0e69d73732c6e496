package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"robustset/internal/cluster"
	"robustset/internal/core"
	"robustset/internal/points"
	"robustset/internal/transport"
)

// Session-server handshake message tags (0x10 block, disjoint from the
// per-protocol tags).
const (
	// MsgHello opens a session on one mux stream of a server connection:
	// u8 strategy code | u32 name length | dataset name | u32 config length
	// | strategy config blob | optional root: u64 count, u64 sum.
	// The root is the points.Print of the client's local multiset; a
	// client that holds none ends the hello at the config blob. A roots
	// hello names a sharded dataset's base name and follows its root, the
	// sum of the client's shard roots, with u32 K, its shard count.
	MsgHello byte = 0x10
	// MsgAccept answers MsgHello: the dataset's normalized core.Params in
	// the core wire encoding. The client adopts these parameters, so both
	// endpoints derive identical grids and hash functions. One more byte,
	// acceptSame, follows the parameters when the hello carried a root
	// equal to the served dataset's: the sets are the same and the session
	// is over. A roots hello whose root or K differs from the served
	// sharded dataset's is answered with the parameters, u32 K' and the
	// K' shard roots (u64 count, u64 sum each) in shard order, and the
	// exchange is over too.
	MsgAccept byte = 0x11
	// MsgMuxHello is the first message of every connection to a server:
	// "MUX1" magic, u8 version, u32 per-stream receive window. The server
	// answers MsgMuxAccept and both endpoints switch the connection to
	// MUX1 framing, each mux stream then carrying one MsgHello-opened
	// session. Anything else — another tag, another version — is answered
	// with MsgError and a closed connection.
	MsgMuxHello byte = 0x12
	// MsgMuxAccept answers MsgMuxHello: u8 version, u32 per-stream
	// receive window of the serving side.
	MsgMuxAccept byte = 0x13
)

// MuxVersion is the connection protocol version spoken by this build. It
// covers everything a connection carries, the meaning of the hello's
// strategy codes included: version 2 gave Rateless and the range-based
// strategy codes of their own, version 3 the hello its root tail and the
// accept its "same" byte, version 4 every IBLT a session carries the cell
// codec (blobs "IBL3", "IBX2", "RSK2", "STR2"), version 5 the rateless
// hello its 4-byte warm first request, version 6 the robust hello its
// optional 1-byte warm window, version 7 that window's finest level as
// a second byte, version 8 the rateless hello an empty config when it
// opens cold, version 9 a cold rateless session its 32-cell head in place
// of the strata estimator, version 10 the hello a root that is a
// points.Print (the order-free sum, not the XOR over occurrence keys) and
// the estimator request its 8-byte windowed form alone, version 11 the
// roots hello and its shard-roots accept. Peers of another version are
// refused at parse time.
const MuxVersion = 11

// acceptSame is the byte that follows the parameters of an accept which
// ends the session at the handshake.
const acceptSame byte = 1

// rootLen is the wire size of a root.
const rootLen = 16

// muxMagic guards MsgMuxHello against stray tag collisions.
const muxMagic = "MUX1"

// Strategy wire codes carried in MsgHello, one per strategy.
// StrategyExactIBLT, StrategyCPI and StrategyRangeBased are retired: they
// named the doubling exact-IBLT path, characteristic-polynomial sync and
// the range-based divide-and-conquer strategy. No strategy answers any of
// them, a server refuses a hello naming one as an unknown strategy, and
// no code is reused.
const (
	StrategyRobust     byte = 1
	StrategyAdaptive   byte = 2
	StrategyExactIBLT  byte = 3
	StrategyCPI        byte = 4
	StrategyNaive      byte = 5
	StrategyRateless   byte = 6
	StrategyRangeBased byte = 7
)

// MaxDatasetName bounds the dataset-name length a server will parse.
const MaxDatasetName = 255

// Hello is the parsed form of a MsgHello body.
type Hello struct {
	// Strategy is one of the Strategy* wire codes.
	Strategy byte
	// Dataset names the server-side dataset to reconcile against.
	Dataset string
	// Config is an opaque strategy-specific blob (e.g. the rateless warm
	// first request, the robust warm window) that the serving side must
	// honor for the two parties' sketches to be compatible.
	Config []byte
	// Root, when set, is the fingerprint of the client's local multiset,
	// under the key both sides derive from the parameters' seed. A server
	// whose dataset has the same root answers with an accept marked "same"
	// instead of running the strategy.
	Root *points.Print
	// Shards, when not 0, makes the hello a roots hello: Dataset is a
	// sharded dataset's base name and Root the sum of the client's Shards
	// shard roots. No strategy runs; the accept is the whole exchange.
	Shards int
}

func (h Hello) encode() ([]byte, error) {
	if len(h.Dataset) > MaxDatasetName {
		return nil, fmt.Errorf("protocol: dataset name of %d bytes exceeds %d", len(h.Dataset), MaxDatasetName)
	}
	body := make([]byte, 0, 1+4+len(h.Dataset)+4+len(h.Config)+rootLen+4)
	body = append(body, h.Strategy)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(h.Dataset)))
	body = append(body, h.Dataset...)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(h.Config)))
	body = append(body, h.Config...)
	if h.Root != nil {
		body = binary.LittleEndian.AppendUint64(body, h.Root.Count)
		body = binary.LittleEndian.AppendUint64(body, h.Root.Sum)
	}
	if h.Shards != 0 {
		body = binary.LittleEndian.AppendUint32(body, uint32(h.Shards))
	}
	return body, nil
}

func parseHello(body []byte) (Hello, error) {
	var h Hello
	if len(body) < 1+4 {
		return h, errors.New("protocol: short hello")
	}
	h.Strategy = body[0]
	body = body[1:]
	// Compare lengths as uint32 before any int conversion: on 32-bit
	// platforms a hostile 0xFFFFFFFF would convert to a negative int and
	// slip past a signed bound check into a panicking slice expression.
	nameLen32 := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if nameLen32 > MaxDatasetName || len(body) < int(nameLen32)+4 {
		return h, errors.New("protocol: malformed hello dataset name")
	}
	nameLen := int(nameLen32)
	h.Dataset = string(body[:nameLen])
	body = body[nameLen:]
	cfgLen32 := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(cfgLen32) > uint64(len(body)) {
		return h, errors.New("protocol: malformed hello config")
	}
	cfgLen := int(cfgLen32)
	if cfgLen > 0 {
		h.Config = append([]byte(nil), body[:cfgLen]...)
	}
	// Nothing, exactly one root, or a root and a shard count follow the
	// config: a tail of any other length comes from a peer that means
	// something else by it.
	switch tail := body[cfgLen:]; len(tail) {
	case 0:
	case rootLen, rootLen + 4:
		r := parseRoot(tail)
		h.Root = &r
		if len(tail) > rootLen {
			k := binary.LittleEndian.Uint32(tail[rootLen:])
			if k < 1 || k > cluster.MaxShards {
				return h, fmt.Errorf("protocol: malformed roots hello: %d shards outside [1,%d]", k, cluster.MaxShards)
			}
			h.Shards = int(k)
		}
	default:
		return h, fmt.Errorf("protocol: malformed hello: %d bytes after the config, want 0, %d or %d", len(tail), rootLen, rootLen+4)
	}
	return h, nil
}

// parseRoot decodes the root at the front of b, which holds one.
func parseRoot(b []byte) points.Print {
	return points.Print{Count: binary.LittleEndian.Uint64(b), Sum: binary.LittleEndian.Uint64(b[8:])}
}

// Accept is the parsed form of a MsgAccept body.
type Accept struct {
	// Params are the dataset parameters the server dictates.
	Params core.Params
	// Same reports that the hello's root equals the served dataset's: the
	// server has closed the session and nothing follows the accept.
	Same bool
	// Roots answer a roots hello that is not Same: the served sharded
	// dataset's shard roots in shard order. The exchange is over.
	Roots []points.Print
}

// encode is the accept body: the parameters, then acceptSame or the shard
// roots.
func (a Accept) encode() ([]byte, error) {
	blob, err := a.Params.MarshalBinary()
	if a.Same {
		blob = append(blob, acceptSame)
	} else if a.Roots != nil {
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(a.Roots)))
		for _, r := range a.Roots {
			blob = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(blob, r.Count), r.Sum)
		}
	}
	return blob, err
}

// parseAccept decodes the accept that answers h. A root list whose count
// disagrees with its length, or exceeds cluster.MaxShards, is refused.
func parseAccept(ab []byte, h Hello) (a Accept, err error) {
	tail := ab[min(len(ab), core.ParamsWireSize):]
	switch {
	case len(tail) == 1 && tail[0] == acceptSame && h.Root != nil:
		a.Same = true
	case len(tail) >= 4 && h.Shards != 0:
		k := binary.LittleEndian.Uint32(tail)
		if k < 1 || k > cluster.MaxShards || uint64(len(tail)-4) != uint64(k)*rootLen {
			return a, fmt.Errorf("protocol: malformed roots accept: %d shards in %d bytes", k, len(tail)-4)
		}
		a.Roots = make([]points.Print, k)
		for i := range a.Roots {
			a.Roots[i] = parseRoot(tail[4+i*rootLen:])
		}
	case len(tail) != 0:
		return a, fmt.Errorf("%w: accept with %d bytes after the parameters", ErrUnexpectedMessage, len(tail))
	}
	return a, a.Params.UnmarshalBinary(ab[:len(ab)-len(tail)])
}

// RunHello opens a server session, or runs a roots exchange: it sends the
// hello and blocks for the accept. A MsgError reply (unknown dataset,
// unsupported strategy) surfaces as a *RemoteError; an accept marked
// "same" in answer to a hello that carried no root is ErrUnexpectedMessage.
func RunHello(ctx context.Context, t transport.Transport, h Hello) (Accept, error) {
	body, err := h.encode()
	if err != nil {
		return Accept{}, err
	}
	if err := send(ctx, t, MsgHello, body); err != nil {
		return Accept{}, err
	}
	ab, err := recvExpect(ctx, t, MsgAccept)
	if err != nil {
		return Accept{}, err
	}
	return parseAccept(ab, h)
}

// RunHelloClient is RunHello for a caller that holds no root: whatever
// h.Root says, none is sent, so the accept is always the parameters of a
// session that goes on.
func RunHelloClient(ctx context.Context, t transport.Transport, h Hello) (core.Params, error) {
	h.Root = nil
	a, err := RunHello(ctx, t, h)
	return a.Params, err
}

// RecvHello reads and parses the opening hello of a server session. A
// hello that does not parse is refused: the reason is relayed to the peer
// as MsgError, and t closed, before the error returns.
func RecvHello(ctx context.Context, t transport.Transport) (Hello, error) {
	body, err := recvExpect(ctx, t, MsgHello)
	if err != nil {
		return Hello{}, err
	}
	h, err := parseHello(body)
	if err != nil {
		return Hello{}, RejectHello(ctx, t, err)
	}
	return h, nil
}

// SendAccept acknowledges a hello with the dataset's parameters; the
// session goes on.
func SendAccept(ctx context.Context, t transport.Transport, p core.Params) error {
	return sendAccept(ctx, t, Accept{Params: p})
}

// SendAcceptSame acknowledges a hello whose root equals the dataset's:
// the parameters, then acceptSame. The session is over: t closes with it.
func SendAcceptSame(ctx context.Context, t transport.Transport, p core.Params) error {
	return sendAccept(ctx, t, Accept{Params: p, Same: true})
}

// SendAcceptRoots answers a roots hello with the parameters and the shard
// roots. The exchange is over: t closes with it.
func SendAcceptRoots(ctx context.Context, t transport.Transport, p core.Params, roots []points.Print) error {
	return sendAccept(ctx, t, Accept{Params: p, Roots: roots})
}

func sendAccept(ctx context.Context, t transport.Transport, a Accept) error {
	body, err := a.encode()
	if err != nil {
		return sendErr(ctx, t, err)
	}
	if a.Same || a.Roots != nil {
		t = lastSend{t}
	}
	return send(ctx, t, MsgAccept, body)
}

// RejectHello refuses a session, relaying reason to the peer and closing
// t with it, and returns reason.
func RejectHello(ctx context.Context, t transport.Transport, reason error) error {
	return sendErr(ctx, lastSend{t}, reason)
}

// SendError best-effort-relays err to the peer as MsgError — so it fails
// fast with a *RemoteError instead of blocking until the connection
// drops — and returns err. Callers that fail before entering a protocol
// run (e.g. local configuration errors) use this to preserve the
// protocols' fail-fast contract.
func SendError(ctx context.Context, t transport.Transport, err error) error {
	return sendErr(ctx, t, err)
}

// ---------------------------------------------------------------------
// Connection multiplexing negotiation

// MuxHello is the parsed form of a MsgMuxHello body.
type MuxHello struct {
	// Version is the mux protocol version the client speaks.
	Version byte
	// Window is the client's per-stream receive window in bytes.
	Window uint32
}

func (h MuxHello) encode() []byte {
	body := make([]byte, 0, len(muxMagic)+1+4)
	body = append(body, muxMagic...)
	body = append(body, h.Version)
	return binary.LittleEndian.AppendUint32(body, h.Window)
}

// ParseMuxHello decodes a MsgMuxHello body. A hello of any version but
// MuxVersion is refused here, before either side commits to framing the
// other cannot read.
func ParseMuxHello(body []byte) (MuxHello, error) {
	var h MuxHello
	if len(body) != len(muxMagic)+1+4 || string(body[:len(muxMagic)]) != muxMagic {
		return h, errors.New("protocol: malformed mux hello")
	}
	h.Version = body[len(muxMagic)]
	h.Window = binary.LittleEndian.Uint32(body[len(muxMagic)+1:])
	if h.Version != MuxVersion {
		return h, fmt.Errorf("protocol: mux hello version %d, this build speaks %d", h.Version, MuxVersion)
	}
	if h.Window == 0 {
		return h, errors.New("protocol: mux hello window 0")
	}
	return h, nil
}

// RunMuxHelloClient opens a fresh connection to a server: it sends the
// mux hello and blocks for the accept, returning the server's per-stream
// receive window (the client's initial send window). A refusal arrives as
// the server's relayed *RemoteError; an accept of another version or with
// a zero window is an error of its own.
func RunMuxHelloClient(ctx context.Context, t transport.Transport, window uint32) (uint32, error) {
	h := MuxHello{Version: MuxVersion, Window: window}
	if err := send(ctx, t, MsgMuxHello, h.encode()); err != nil {
		return 0, err
	}
	body, err := recvExpect(ctx, t, MsgMuxAccept)
	if err != nil {
		return 0, err
	}
	if len(body) != 1+4 {
		return 0, errors.New("protocol: malformed mux accept")
	}
	if v := body[0]; v != MuxVersion {
		return 0, fmt.Errorf("protocol: server speaks mux version %d, this build speaks %d", v, MuxVersion)
	}
	serverWindow := binary.LittleEndian.Uint32(body[1:])
	if serverWindow == 0 {
		return 0, errors.New("protocol: server announced window 0")
	}
	return serverWindow, nil
}

// SendMuxAccept acknowledges a mux hello, announcing the server's
// per-stream receive window.
func SendMuxAccept(ctx context.Context, t transport.Transport, window uint32) error {
	body := make([]byte, 0, 1+4)
	body = append(body, MuxVersion)
	body = binary.LittleEndian.AppendUint32(body, window)
	return send(ctx, t, MsgMuxAccept, body)
}

// Opening is the parsed first message of an accepted connection.
type Opening struct {
	// Mux is true on every Opening RecvOpening returns: MUX1 is the only
	// way in.
	Mux bool
	// MuxHello is the parsed negotiation.
	MuxHello MuxHello
}

// RecvOpening reads and parses a connection's first message. Only a mux
// hello of this build's version opens a connection; for anything else it
// read — a bare MsgHello, another tag, a skewed or malformed hello — the
// refusal is relayed to the peer as MsgError before the error returns, so
// the caller only has to close.
func RecvOpening(ctx context.Context, t transport.Transport) (Opening, error) {
	typ, body, err := recv(ctx, t)
	if err != nil {
		return Opening{}, err
	}
	if typ != MsgMuxHello {
		return Opening{}, sendErr(ctx, t, fmt.Errorf("%w: got 0x%02x, want mux hello", ErrUnexpectedMessage, typ))
	}
	mh, err := ParseMuxHello(body)
	if err != nil {
		return Opening{}, sendErr(ctx, t, err)
	}
	return Opening{Mux: true, MuxHello: mh}, nil
}
