package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// muxPair builds a connected initiator/acceptor mux pair over the
// in-memory transport.
func muxPair(t *testing.T, cfg MuxConfig) (client, server *Mux) {
	t.Helper()
	a, b := Pair()
	client = NewMux(a, true, cfg)
	server = NewMux(b, false, cfg)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// streamMsgs generates the deterministic message sequence stream i
// sends in the interleaving tests — sizes vary so frames interleave at
// every scale.
func streamMsgs(stream, count int) [][]byte {
	msgs := make([][]byte, count)
	state := uint64(stream)*2654435761 + 1
	for j := range msgs {
		state = state*6364136223846793005 + 1442695040888963407
		size := int(state % 700)
		msg := make([]byte, size)
		for k := range msg {
			msg[k] = byte(state >> (uint(k%8) * 8))
		}
		msgs[j] = append(msg, byte(stream), byte(j))
		msgs[j] = msgs[j][:len(msgs[j])]
	}
	return msgs
}

func TestMuxEcho(t *testing.T) {
	client, server := muxPair(t, MuxConfig{})
	ctx := context.Background()

	go func() {
		st, err := server.Accept(ctx)
		if err != nil {
			return
		}
		for {
			msg, err := st.Recv(ctx)
			if err != nil {
				st.Close()
				return
			}
			if err := st.Send(ctx, msg); err != nil {
				return
			}
		}
	}()

	st, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := []byte(fmt.Sprintf("message %d", i))
		if err := st.Send(ctx, want); err != nil {
			t.Fatal(err)
		}
		got, err := st.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("echo %d: got %q want %q", i, got, want)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after both closed: %v, want EOF", err)
	}
}

// TestMuxInterleavedStreams is the tentpole's core safety property: 16
// concurrent streams pumping interleaved frames in both directions
// deliver, per stream, exactly the byte sequences a serial run would —
// same messages, same order, nothing crossed between streams.
func TestMuxInterleavedStreams(t *testing.T) {
	const streams, msgsPer = 16, 40
	// A small window forces constant WINDOW credit traffic, maximizing
	// interleaving pressure.
	client, server := muxPair(t, MuxConfig{RecvWindow: 2048, SendWindow: 2048})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Server: every accepted stream echoes until EOF, then closes.
	go func() {
		for {
			st, err := server.Accept(ctx)
			if err != nil {
				return
			}
			go func() {
				defer st.Close()
				for {
					msg, err := st.Recv(ctx)
					if err != nil {
						return
					}
					if err := st.Send(ctx, msg); err != nil {
						return
					}
				}
			}()
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := client.Open(ctx)
			if err != nil {
				errCh <- err
				return
			}
			defer st.Close()
			want := streamMsgs(i, msgsPer)
			recvErr := make(chan error, 1)
			go func() {
				// The serial expectation: echoes arrive in send order,
				// byte-identical, no frames from sibling streams.
				for j := 0; j < msgsPer; j++ {
					got, err := st.Recv(ctx)
					if err != nil {
						recvErr <- fmt.Errorf("stream %d recv %d: %w", i, j, err)
						return
					}
					if !bytes.Equal(got, want[j]) {
						recvErr <- fmt.Errorf("stream %d msg %d: got %d bytes %x..., want %d bytes",
							i, j, len(got), got[:min(8, len(got))], len(want[j]))
						return
					}
				}
				recvErr <- nil
			}()
			for j := 0; j < msgsPer; j++ {
				if err := st.Send(ctx, want[j]); err != nil {
					errCh <- fmt.Errorf("stream %d send %d: %w", i, j, err)
					return
				}
			}
			errCh <- <-recvErr
		}(i)
	}
	wg.Wait()
	for i := 0; i < streams; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if got := client.StreamsOpened(); got != streams {
		t.Fatalf("client opened %d streams, want %d", got, streams)
	}
	if got := client.DecodeFailures() + server.DecodeFailures(); got != 0 {
		t.Fatalf("decode failures: %d, want 0", got)
	}
}

// TestMuxResetLeavesSiblingsUnharmed aborts one stream mid-transfer and
// requires its siblings to finish byte-perfect on the same connection.
func TestMuxResetLeavesSiblingsUnharmed(t *testing.T) {
	client, server := muxPair(t, MuxConfig{RecvWindow: 4096, SendWindow: 4096})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Server streams an endless sequence on every accepted stream until
	// the stream dies, mimicking a CELLS serving loop.
	go func() {
		for {
			st, err := server.Accept(ctx)
			if err != nil {
				return
			}
			go func() {
				seq := 0
				for {
					msg := bytes.Repeat([]byte{byte(seq)}, 512)
					if err := st.Send(ctx, msg); err != nil {
						return
					}
					seq++
				}
			}()
		}
	}()

	victim, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Let the victim receive a few messages mid-stream, then reset it.
	for i := 0; i < 3; i++ {
		if _, err := victim.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	victim.Reset(errors.New("client gave up"))
	var resetErr *StreamResetError
	if _, err := victim.Recv(ctx); !errors.As(err, &resetErr) {
		t.Fatalf("victim recv after reset: %v, want StreamResetError", err)
	}
	if err := victim.Send(ctx, []byte("x")); !errors.As(err, &resetErr) {
		t.Fatalf("victim send after reset: %v, want StreamResetError", err)
	}

	// The sibling still sees its own uncorrupted sequence.
	for i := 0; i < 50; i++ {
		msg, err := sibling.Recv(ctx)
		if err != nil {
			t.Fatalf("sibling recv %d after reset: %v", i, err)
		}
		if len(msg) != 512 || msg[0] != byte(i) {
			t.Fatalf("sibling msg %d corrupted: len %d first byte %d", i, len(msg), msg[0])
		}
	}
	if client.Err() != nil {
		t.Fatalf("mux died: %v", client.Err())
	}
}

// TestMuxFlowControl checks that a sender blocks when the peer's window
// is exhausted and resumes on credit, and that a message larger than the
// whole window still goes through.
func TestMuxFlowControl(t *testing.T) {
	const window = 1024
	client, server := muxPair(t, MuxConfig{RecvWindow: window, SendWindow: window})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	st, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Two sends exhaust the window; the third must block until the
	// receiver consumes.
	for i := 0; i < 2; i++ {
		if err := st.Send(ctx, make([]byte, window/2)); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- st.Send(ctx, make([]byte, 16)) }()
	select {
	case err := <-blocked:
		t.Fatalf("send with exhausted window returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	srvSt, err := server.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvSt.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("blocked send failed after credit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send still blocked after credit returned")
	}

	// Oversized message: drain everything so the window idles, then send
	// 4× the window in one message.
	for i := 0; i < 2; i++ {
		if _, err := srvSt.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte{7}, 4*window)
	sendDone := make(chan error, 1)
	go func() { sendDone <- st.Send(ctx, big) }()
	got, err := srvSt.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("oversized message corrupted: %d bytes", len(got))
	}
	if err := <-sendDone; err != nil {
		t.Fatal(err)
	}
}

// TestMuxMaxStreams verifies accept-side backpressure: opens beyond the
// cap are reset with ErrTooManyStreams while existing streams live on.
func TestMuxMaxStreams(t *testing.T) {
	client, server := muxPair(t, MuxConfig{MaxStreams: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	first, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	third, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The server never Accepts, so the third OPEN bounces.
	var resetErr *StreamResetError
	if _, err := third.Recv(ctx); !errors.As(err, &resetErr) {
		t.Fatalf("over-cap stream recv: %v, want StreamResetError", err)
	}
	// The two in-cap streams still work end to end.
	for _, st := range []*Stream{first, second} {
		if err := st.Send(ctx, []byte("alive")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		srvSt, err := server.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if msg, err := srvSt.Recv(ctx); err != nil || string(msg) != "alive" {
			t.Fatalf("in-cap stream %d: %q, %v", i, msg, err)
		}
	}
}

// TestMuxOverTCP runs the mux over a real TCP connection — deadline
// plumbing, torn connection handling.
func TestMuxOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted

	client := NewMux(NewConn(cc), true, MuxConfig{})
	server := NewMux(NewConn(sc), false, MuxConfig{})
	defer client.Close()
	defer server.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(ctx, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	srvSt, err := server.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := srvSt.Recv(ctx); err != nil || string(msg) != "over tcp" {
		t.Fatalf("got %q, %v", msg, err)
	}

	// Kill the connection under the mux: every stream must fail, not hang.
	cc.Close()
	if _, err := srvSt.Recv(ctx); err == nil {
		t.Fatal("recv on dead connection succeeded")
	}
	// The server side seeing the death says nothing about when the
	// client's demux loop notices its own closed conn; wait for it.
	select {
	case <-client.dead:
	case <-ctx.Done():
		t.Fatal("client mux never noticed its conn died")
	}
	if err := client.Err(); err == nil {
		t.Fatal("client mux still reports alive after conn death")
	}
}

// TestMuxGarbageFrameKillsConn checks that a malformed frame is counted
// and tears the mux down rather than desynchronizing streams.
func TestMuxGarbageFrameKillsConn(t *testing.T) {
	a, b := Pair()
	failures := 0
	server := NewMux(b, false, MuxConfig{OnDecodeFailure: func(error) { failures++ }})
	defer server.Close()
	ctx := context.Background()
	// Raw garbage: valid varint id, unknown type.
	if err := a.Send(ctx, []byte{1, 0xee, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Accept(ctx); err == nil {
		t.Fatal("accept succeeded after garbage frame")
	}
	if server.DecodeFailures() != 1 || failures != 1 {
		t.Fatalf("decode failures: counter %d, hook %d; want 1, 1", server.DecodeFailures(), failures)
	}
}

// TestMuxWindowOverflowKillsConn: a peer that ignores flow control —
// streaming DATA far past the advertised window without waiting for
// credit — must take the connection down, not queue unbounded memory.
func TestMuxWindowOverflowKillsConn(t *testing.T) {
	const window = 4096
	a, b := Pair()
	server := NewMux(b, false, MuxConfig{RecvWindow: window})
	defer server.Close()
	ctx := context.Background()

	// Raw frames on the client side, bypassing the sender's gate: OPEN,
	// then un-credited DATA well past the window while nobody Recvs.
	if err := a.Send(ctx, AppendMuxFrame(nil, MuxFrame{StreamID: 1, Type: MuxFrameOpen})); err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{9}, 1024)
	overflowed := false
	for i := 0; i < 3*window/len(chunk); i++ {
		if err := a.Send(ctx, AppendMuxFrame(nil, MuxFrame{StreamID: 1, Type: MuxFrameData, Payload: chunk})); err != nil {
			overflowed = true
			break
		}
	}
	// The mux must die with a window-overflow error, seen either as the
	// raw sender's link failing or via the mux's terminal error.
	deadline := time.Now().Add(5 * time.Second)
	for server.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	err := server.Err()
	if err == nil && !overflowed {
		t.Fatal("mux survived a 3-window un-credited flood")
	}
	if err != nil && !strings.Contains(err.Error(), "receive window") {
		t.Fatalf("mux died with %v, want a receive-window violation", err)
	}
}

// TestMuxLegalOversizeNotKilled: the enforcement must not flag the
// legal oversized-message case (one message larger than the window sent
// against an idle window).
func TestMuxLegalOversizeNotKilled(t *testing.T) {
	const window = 2048
	client, server := muxPair(t, MuxConfig{RecvWindow: window, SendWindow: window})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	srvSt, err := server.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		big := bytes.Repeat([]byte{byte(round)}, 4*window)
		sendErr := make(chan error, 1)
		go func() { sendErr <- st.Send(ctx, big) }()
		got, err := srvSt.Recv(ctx)
		if err != nil {
			t.Fatalf("round %d: %v (mux err: %v)", round, err, server.Err())
		}
		if !bytes.Equal(got, big) {
			t.Fatalf("round %d: corrupted oversize message", round)
		}
		if err := <-sendErr; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxMaxMessageFits: a protocol message exactly at the session's
// size cap must fit in one mux frame — the carrier gets header headroom
// via NewMuxConnLimit, so the frame check cannot tear down the
// connection on a maximal legal message.
func TestMuxMaxMessageFits(t *testing.T) {
	const maxMsg = 1 << 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	client := NewMux(NewMuxConnLimit(cc, maxMsg), true, MuxConfig{})
	server := NewMux(NewMuxConnLimit(sc, maxMsg), false, MuxConfig{})
	defer client.Close()
	defer server.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xAB}, maxMsg)
	sendErr := make(chan error, 1)
	go func() { sendErr <- st.Send(ctx, msg) }()
	srvSt, err := server.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srvSt.Recv(ctx)
	if err != nil {
		t.Fatalf("recv max-size message: %v (mux err: %v)", err, server.Err())
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("max-size message corrupted: %d bytes", len(got))
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send max-size message: %v", err)
	}
	if client.Err() != nil || server.Err() != nil {
		t.Fatalf("mux died on a maximal legal message: %v / %v", client.Err(), server.Err())
	}
}

func FuzzParseMuxFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, MuxFrameOpen})
	f.Add([]byte{1, MuxFrameData, 0xde, 0xad})
	f.Add([]byte{3, MuxFrameClose})
	f.Add([]byte{5, MuxFrameReset, 'b', 'y', 'e'})
	f.Add([]byte{7, MuxFrameWindow, 0, 4, 0, 0})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1, MuxFrameData})
	f.Add(AppendMuxFrame(nil, MuxFrame{StreamID: 1 << 40, Type: MuxFrameData, Payload: []byte("payload")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := ParseMuxFrame(data)
		if err != nil {
			return
		}
		// Round-trip: re-encoding a parsed frame must parse back to the
		// identical frame (encoding is canonical).
		enc := AppendMuxFrame(nil, frame)
		back, err := ParseMuxFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame failed to parse: %v", err)
		}
		if back.StreamID != frame.StreamID || back.Type != frame.Type || !bytes.Equal(back.Payload, frame.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", frame, back)
		}
	})
}
