package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"robustset/internal/transport"
)

// TestMuxNegotiationRoundTrip drives both ends of the MUX1 negotiation
// over an in-memory link.
func TestMuxNegotiationRoundTrip(t *testing.T) {
	at, bt := transport.Pair()
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		op, err := RecvOpening(ctx, bt)
		if err != nil {
			done <- err
			return
		}
		if !op.Mux || op.MuxHello.Version != MuxVersion || op.MuxHello.Window != 1<<19 {
			done <- errors.New("opening did not carry the mux hello")
			return
		}
		done <- SendMuxAccept(ctx, bt, 1<<21)
	}()
	serverWindow, err := RunMuxHelloClient(ctx, at, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if serverWindow != 1<<21 {
		t.Fatalf("server window %d, want %d", serverWindow, 1<<21)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestMuxVersionSkew covers both directions of a version mismatch: a
// skewed client is refused at parse time with a relayed MsgError, and a
// skewed server's accept is refused by the client.
func TestMuxVersionSkew(t *testing.T) {
	ctx := context.Background()
	for _, v := range []byte{MuxVersion - 1, MuxVersion + 1} {
		at, bt := transport.Pair()
		done := make(chan error, 1)
		go func() {
			_, err := RecvOpening(ctx, bt)
			done <- err
		}()
		if err := send(ctx, at, MsgMuxHello, MuxHello{Version: v, Window: 1 << 20}.encode()); err != nil {
			t.Fatal(err)
		}
		_, err := recvExpect(ctx, at, MsgMuxAccept)
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Errorf("client of version %d got %v, want the server's *RemoteError", v, err)
		}
		if err := <-done; err == nil {
			t.Errorf("server accepted a hello of version %d", v)
		}

		at, bt = transport.Pair()
		go func() {
			if _, err := RecvOpening(ctx, bt); err != nil {
				return
			}
			body := binary.LittleEndian.AppendUint32([]byte{v}, 1<<20)
			_ = send(ctx, bt, MsgMuxAccept, body)
		}()
		if _, err := RunMuxHelloClient(ctx, at, 1<<20); err == nil {
			t.Errorf("client adopted an accept of version %d", v)
		}
	}
}

// TestMuxHelloCancellation: a cancelled context must surface as the
// context's error.
func TestMuxHelloCancellation(t *testing.T) {
	at, _ := transport.Pair()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := RunMuxHelloClient(ctx, at, 1<<20)
		errCh <- err
	}()
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled negotiation produced %v, want context.Canceled", err)
	}
}

// TestParseMuxHelloRejectsMalformed covers the parse-side validation.
func TestParseMuxHelloRejectsMalformed(t *testing.T) {
	good := MuxHello{Version: MuxVersion, Window: 1 << 20}.encode()
	if _, err := ParseMuxHello(good); err != nil {
		t.Fatalf("well-formed hello rejected: %v", err)
	}
	bad := [][]byte{
		nil,
		[]byte("MUX"),
		[]byte("MUXX\x01\x00\x00\x10\x00"),
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0),
		{'M', 'U', 'X', '1', 0, 0, 0, 16, 0}, // version 0
		{'M', 'U', 'X', '1', MuxVersion - 1, 0, 0, 16, 0}, // the previous version
		{'M', 'U', 'X', '1', MuxVersion + 1, 0, 0, 16, 0}, // a later version
		{'M', 'U', 'X', '1', MuxVersion, 0, 0, 0, 0},      // window 0
	}
	for i, b := range bad {
		if _, err := ParseMuxHello(b); err == nil {
			t.Errorf("malformed hello %d accepted", i)
		}
	}
}

// TestRecvOpeningDispatch pins the one way in: an error frame is
// rejected, a bare session hello is refused with a relayed MsgError, EOF
// propagates.
func TestRecvOpeningDispatch(t *testing.T) {
	at, bt := transport.Pair()
	ctx := context.Background()
	go func() {
		_ = SendError(ctx, at, errors.New("nope"))
	}()
	if _, err := RecvOpening(ctx, bt); err == nil {
		t.Fatal("error frame accepted as opening")
	}

	at2, bt2 := transport.Pair()
	refused := make(chan error, 1)
	go func() {
		_, err := RunHelloClient(ctx, at2, Hello{Strategy: StrategyNaive, Dataset: "d"})
		at2.Close()
		refused <- err
	}()
	if _, err := RecvOpening(ctx, bt2); !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("bare hello as opening: %v, want ErrUnexpectedMessage", err)
	}
	var remote *RemoteError
	if err := <-refused; !errors.As(err, &remote) {
		t.Fatalf("bare-hello client got %v, want the server's *RemoteError", err)
	}
	if _, err := RecvOpening(ctx, bt2); !errors.Is(err, io.EOF) {
		t.Fatalf("post-close opening: %v, want EOF", err)
	}
}
