package protocol

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"robustset/internal/core"
	"robustset/internal/points"
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
	if MuxVersion != 11 {
		t.Fatalf("MuxVersion is %d; the roots hello is version 11", MuxVersion)
	}
	ctx := context.Background()
	// A version 10 server would refuse every roots hello as malformed,
	// and version 9 roots are XORs over occurrence keys: both are refused
	// like any other.
	for _, v := range []byte{9, 10, MuxVersion + 1} {
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
		{'M', 'U', 'X', '1', 0, 0, 0, 16, 0},              // version 0
		{'M', 'U', 'X', '1', 2, 0, 0, 16, 0},              // version 2: no root tail, no "same" accept
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

// TestParseHelloRootTail holds the hello to exactly nothing or exactly
// one root after its config blob, for every config length a strategy
// code carries: a tail a byte short or a byte long is malformed, and so
// is a config length that claims more bytes than follow.
func TestParseHelloRootTail(t *testing.T) {
	root := points.Print{Count: 3, Sum: 0x0123456789abcdef}
	for _, cfgLen := range []int{0, 1, 3, 4} {
		bare, err := Hello{Strategy: StrategyRobust, Dataset: "d", Config: make([]byte, cfgLen)}.encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []int{0, 1, rootLen - 1, rootLen, rootLen + 1, 2 * rootLen} {
			body := append(append([]byte(nil), bare...), make([]byte, tail)...)
			if tail >= rootLen {
				binary.LittleEndian.PutUint64(body[len(bare):], root.Count)
				binary.LittleEndian.PutUint64(body[len(bare)+8:], root.Sum)
			}
			h, err := parseHello(body)
			switch {
			case tail != 0 && tail != rootLen:
				if err == nil {
					t.Errorf("config of %d bytes: a %d-byte tail accepted", cfgLen, tail)
				}
			case err != nil:
				t.Errorf("config of %d bytes, tail of %d: %v", cfgLen, tail, err)
			case len(h.Config) != cfgLen:
				t.Errorf("config of %d bytes parsed as %d", cfgLen, len(h.Config))
			case tail == 0 && h.Root != nil:
				t.Errorf("config of %d bytes: a root parsed out of no tail", cfgLen)
			case tail == rootLen && (h.Root == nil || *h.Root != root):
				t.Errorf("config of %d bytes: root parsed as %+v, want %+v", cfgLen, h.Root, root)
			}
		}
		over := append([]byte(nil), bare...)
		binary.LittleEndian.PutUint32(over[1+4+1:], uint32(cfgLen+1))
		if _, err := parseHello(over); err == nil {
			t.Errorf("config length %d over %d bytes accepted", cfgLen+1, cfgLen)
		}
	}
	// The rootless form is today's hello, byte for byte.
	got, _ := Hello{Strategy: StrategyCPI, Dataset: "ab", Config: []byte{9, 0, 0, 0}}.encode()
	want := []byte{StrategyCPI, 2, 0, 0, 0, 'a', 'b', 4, 0, 0, 0, 9, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Errorf("rootless hello encodes as %x, want %x", got, want)
	}
}

// TestHelloRootAccept drives the root-carrying handshake end to end: a
// malformed hello is refused with a relayed MsgError, a "same" accept is
// adopted only by a hello that carried a root, RunHelloClient never sends
// one, and an accept with any other trailing byte is malformed.
func TestHelloRootAccept(t *testing.T) {
	ctx := context.Background()
	params := core.Params{Universe: points.Universe{Dim: 2, Delta: 1 << 10}, Seed: 3, DiffBudget: 4}
	root := &points.Print{Count: 5, Sum: 77}
	serve := func(same bool) (transport.Transport, chan Hello) {
		at, bt := transport.Pair()
		got := make(chan Hello, 1)
		go func() {
			defer bt.Close()
			h, err := RecvHello(ctx, bt)
			if err != nil {
				close(got)
				return
			}
			got <- h
			if same {
				_ = SendAcceptSame(ctx, bt, params)
			} else {
				_ = SendAccept(ctx, bt, params)
			}
		}()
		return at, got
	}

	at, got := serve(true)
	acc, err := RunHello(ctx, at, Hello{Strategy: StrategyNaive, Dataset: "d", Root: root})
	if err != nil || !acc.Same || acc.Params.Universe != params.Universe {
		t.Fatalf("same accept for a rooted hello: %+v, %v", acc, err)
	}
	if h := <-got; h.Root == nil || *h.Root != *root {
		t.Fatalf("server parsed root %+v, want %+v", h.Root, root)
	}

	at, got = serve(false)
	acc, err = RunHello(ctx, at, Hello{Strategy: StrategyNaive, Dataset: "d", Root: root})
	if err != nil || acc.Same {
		t.Fatalf("bare accept for a rooted hello: %+v, %v", acc, err)
	}
	<-got

	at, got = serve(true)
	if _, err := RunHello(ctx, at, Hello{Strategy: StrategyNaive, Dataset: "d"}); !errors.Is(err, ErrUnexpectedMessage) {
		t.Fatalf("same accept for a rootless hello: %v, want ErrUnexpectedMessage", err)
	}
	<-got

	at, got = serve(false)
	if _, err := RunHelloClient(ctx, at, Hello{Strategy: StrategyNaive, Dataset: "d", Root: root}); err != nil {
		t.Fatal(err)
	}
	if h := <-got; h.Root != nil {
		t.Fatalf("RunHelloClient sent root %+v", h.Root)
	}

	// A hello that does not parse is answered, not dropped.
	at, got = serve(false)
	body, _ := Hello{Strategy: StrategyNaive, Dataset: "d", Root: root}.encode()
	if err := send(ctx, at, MsgHello, body[:len(body)-1]); err != nil {
		t.Fatal(err)
	}
	var remote *RemoteError
	if _, err := recvExpect(ctx, at, MsgAccept); !errors.As(err, &remote) {
		t.Fatalf("short root tail answered with %v, want the server's *RemoteError", err)
	}
	if _, ok := <-got; ok {
		t.Fatal("server parsed a hello with a short root tail")
	}

	// Params plus a byte that is not acceptSame is no accept at all.
	at, bt := transport.Pair()
	go func() {
		defer bt.Close()
		if _, err := RecvHello(ctx, bt); err == nil {
			blob, _ := params.MarshalBinary()
			_ = send(ctx, bt, MsgAccept, append(blob, 2))
		}
	}()
	if _, err := RunHello(ctx, at, Hello{Strategy: StrategyNaive, Dataset: "d", Root: root}); err == nil {
		t.Fatal("accept with trailing byte 2 adopted")
	}
}

// TestRejectHelloCloses: a refusal is the session's last message — on a
// transport other than a mux stream it is sent and then the transport
// closes, so the peer reads the reason and then EOF.
func TestRejectHelloCloses(t *testing.T) {
	ctx := context.Background()
	at, bt := transport.Pair()
	reason := errors.New("no such dataset")
	if err := RejectHello(ctx, at, reason); err != reason {
		t.Fatalf("RejectHello returned %v, want its reason", err)
	}
	var remote *RemoteError
	if _, _, err := recv(ctx, bt); !errors.As(err, &remote) || remote.Reason != reason.Error() {
		t.Fatalf("peer read %v, want the relayed reason", err)
	}
	if _, err := bt.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("peer read %v after the refusal, want EOF", err)
	}
}
