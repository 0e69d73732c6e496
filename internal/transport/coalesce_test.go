package transport

// Coalesced writes and held CLOSEs. CI runs these under the race
// detector with the fault suite:
//
//	go test -run 'Fault|Coalesce|Held' -race ./internal/transport/...

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// tcpMuxPair builds an initiator/acceptor mux pair over loopback TCP, so
// frames are batched into conn writes and read through the buffered
// reader.
func tcpMuxPair(t *testing.T, cfg MuxConfig) (client, server *Mux) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	if sc == nil {
		cc.Close()
		t.Fatal("accept failed")
	}
	client = NewMux(NewConn(cc), true, cfg)
	server = NewMux(NewConn(sc), false, cfg)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// openStreams returns how many streams m has open.
func openStreams(m *Mux) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// eventually fails t unless cond holds within a few seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// finish drains st to the acceptor's CLOSE and closes it; with the
// acceptor's CLOSE already read, the initiator's is held.
func finish(t *testing.T, ctx context.Context, st *Stream, want []byte) {
	t.Helper()
	got, err := st.Recv(ctx)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("recv %q, %v; want %q", got, err, want)
	}
	if _, err := st.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after the peer's CLOSE: %v, want EOF", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// peerClosed waits until st has read its peer's CLOSE, so st's next
// Recvs do not block.
func peerClosed(t *testing.T, st *Stream) {
	t.Helper()
	eventually(t, "the peer's CLOSE", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.recvDone
	})
}

// serveOne accepts one stream, reads one message, answers it with
// SendClose and returns the accepted stream.
func serveOne(t *testing.T, ctx context.Context, m *Mux, reply []byte) *Stream {
	t.Helper()
	st, err := m.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.SendClose(ctx, reply); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCoalesceStatsMatchFrameByFrame runs one script of sessions over a
// pipe, where every frame is its own Send, and over TCP, where frames
// share writes and reads: per-stream and connection Stats agree.
func TestCoalesceStatsMatchFrameByFrame(t *testing.T) {
	run := func(client, server *Mux) (streams []Stats, conn [2]Stats) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		for i := range 4 {
			st, err := client.Open(ctx)
			if err != nil {
				t.Fatal(err)
			}
			msg := bytes.Repeat([]byte{byte(i)}, 10+300*i)
			if err := st.Send(ctx, msg); err != nil {
				t.Fatal(err)
			}
			srvSt := serveOne(t, ctx, server, msg[:len(msg)/2])
			finish(t, ctx, st, msg[:len(msg)/2])
			streams = append(streams, st.Stats(), srvSt.Stats())
		}
		// The last CLOSE is held until a write carries it: reset a fresh
		// stream to send it, and wait for the acceptor to read everything.
		st, err := client.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st.Reset(errors.New("done"))
		eventually(t, "the acceptor to read every frame", func() bool {
			return server.Stats().MsgsRecv == client.Stats().MsgsSent && openStreams(server) == 0
		})
		return streams, [2]Stats{client.Stats(), server.Stats()}
	}
	pipeStreams, pipeConn := run(muxPair(t, MuxConfig{}))
	tcpStreams, tcpConn := run(tcpMuxPair(t, MuxConfig{}))
	for i := range pipeStreams {
		if pipeStreams[i] != tcpStreams[i] {
			t.Errorf("stream stats %d: %v coalesced, %v frame by frame", i, tcpStreams[i], pipeStreams[i])
		}
	}
	if pipeConn != tcpConn {
		t.Errorf("connection stats: %v coalesced, %v frame by frame", tcpConn, pipeConn)
	}
}

// TestHeldCloseFlushPoints: an initiator's CLOSE after the acceptor's is
// held, and reaches the acceptor with the mux's next write, when another
// stream is about to block in Recv or Send, and when the mux's last
// stream ends; each time the acceptor's open-stream count falls with it.
func TestHeldCloseFlushPoints(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const window = 1024
	client, server := tcpMuxPair(t, MuxConfig{RecvWindow: window, SendWindow: window})
	// session opens a stream, sends one message and returns the stream
	// with its accepted peer.
	session := func(t *testing.T) (st, srvSt *Stream) {
		t.Helper()
		st, err := client.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Send(ctx, []byte("hello")); err != nil {
			t.Fatal(err)
		}
		srvSt, err = server.Accept(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srvSt.Recv(ctx); err != nil {
			t.Fatal(err)
		}
		return st, srvSt
	}
	// held finishes st against its acceptor's SendClose and checks that
	// its CLOSE is held: the acceptor still counts the stream.
	held := func(t *testing.T, st, srvSt *Stream, open int) {
		t.Helper()
		if err := srvSt.SendClose(ctx, []byte("bye")); err != nil {
			t.Fatal(err)
		}
		finish(t, ctx, st, []byte("bye"))
		if !client.held.Load() {
			t.Fatal("the initiator's CLOSE after the acceptor's was written at once")
		}
		if n := openStreams(server); n != open {
			t.Fatalf("acceptor has %d open streams while the CLOSE is held, want %d", n, open)
		}
	}

	t.Run("next write", func(t *testing.T) {
		a, srvA := session(t)
		held(t, a, srvA, 1)
		b, err := client.Open(ctx) // the OPEN carries A's CLOSE
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.Accept(ctx); err != nil {
			t.Fatal(err)
		}
		if n := openStreams(server); n != 1 || client.held.Load() {
			t.Fatalf("acceptor has %d open streams after B's OPEN, want B's alone", n)
		}
		b.Reset(nil)
		eventually(t, "B's RESET", func() bool { return openStreams(server) == 0 })
	})

	t.Run("another stream blocks in Recv", func(t *testing.T) {
		a, srvA := session(t)
		b, srvB := session(t)
		held(t, a, srvA, 2)
		got := make(chan error, 1)
		go func() {
			_, err := b.Recv(ctx) // about to block: flushes A's CLOSE
			got <- err
		}()
		eventually(t, "A's CLOSE", func() bool { return openStreams(server) == 1 })
		if err := srvB.SendClose(ctx, []byte("late")); err != nil {
			t.Fatal(err)
		}
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		b.Reset(nil)
		eventually(t, "B's RESET", func() bool { return openStreams(server) == 0 })
	})

	t.Run("another stream blocks in Send", func(t *testing.T) {
		a, srvA := session(t)
		b, srvB := session(t)
		if err := b.Send(ctx, make([]byte, 600)); err != nil { // leaves 424 B of credit
			t.Fatal(err)
		}
		held(t, a, srvA, 2)
		sent := make(chan error, 1)
		go func() { sent <- b.Send(ctx, make([]byte, 600)) }() // blocks for credit
		eventually(t, "A's CLOSE", func() bool { return openStreams(server) == 1 })
		for range 2 { // consuming the first message returns the credit
			if _, err := srvB.Recv(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		b.Reset(nil)
		eventually(t, "B's RESET", func() bool { return openStreams(server) == 0 })
	})

	t.Run("last stream ends", func(t *testing.T) {
		a, srvA := session(t)
		b, srvB := session(t)
		held(t, a, srvA, 2)
		// B's end leaves the mux without a stream: A's CLOSE and B's
		// leave together.
		if err := srvB.SendClose(ctx, []byte("bye")); err != nil {
			t.Fatal(err)
		}
		peerClosed(t, b) // else B's Recv would block and flush A's CLOSE
		finish(t, ctx, b, []byte("bye"))
		if client.held.Load() {
			t.Fatal("CLOSEs still held after the last stream ended")
		}
		eventually(t, "both CLOSEs", func() bool { return openStreams(server) == 0 })
	})

	t.Run("a lone stream's CLOSE waits for the next write", func(t *testing.T) {
		a, srvA := session(t)
		held(t, a, srvA, 1)
		if n := openStreams(client); n != 0 {
			t.Fatalf("initiator has %d open streams, want 0", n)
		}
		b, err := client.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server.Accept(ctx); err != nil {
			t.Fatal(err)
		}
		b.Reset(nil)
		eventually(t, "A's CLOSE and B's RESET", func() bool { return openStreams(server) == 0 })
	})
}

// TestHeldCloseNeverOnAcceptor: an acceptor's CLOSE after the
// initiator's is written at once — the initiator's Fetch reads its
// stream to that CLOSE, and nothing else of the acceptor's would carry it.
func TestHeldCloseNeverOnAcceptor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	client, server := tcpMuxPair(t, MuxConfig{})
	st, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SendClose(ctx, []byte("only")); err != nil {
		t.Fatal(err)
	}
	srvSt, err := server.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvSt.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srvSt.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("acceptor recv after the initiator's CLOSE: %v, want EOF", err)
	}
	if err := srvSt.Close(); err != nil {
		t.Fatal(err)
	}
	if server.held.Load() {
		t.Fatal("the acceptor held its CLOSE")
	}
	if _, err := st.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("initiator recv: %v, want the acceptor's CLOSE", err)
	}
	eventually(t, "both ends to forget the stream", func() bool {
		return openStreams(client) == 0 && openStreams(server) == 0
	})
}

// TestCoalesceSendClose: SendClose waits for credit when the window is
// short, as Send does, and fails without writing after a Reset or on a
// dead mux.
func TestCoalesceSendClose(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const window = 1024
	client, server := tcpMuxPair(t, MuxConfig{RecvWindow: window, SendWindow: window})

	st, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first, last := make([]byte, 700), bytes.Repeat([]byte{9}, 700)
	if err := st.Send(ctx, first); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- st.SendClose(ctx, last) }() // 324 B of credit: waits
	srvSt, err := server.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range [][]byte{first, last} {
		got, err := srvSt.Recv(ctx)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("recv %d bytes, %v; want %d", len(got), err, len(want))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if _, err := srvSt.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("recv after SendClose: %v, want EOF", err)
	}
	if err := st.Send(ctx, first); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after SendClose: %v, want ErrClosed", err)
	}

	reset, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	reset.Reset(errors.New("gone"))
	var resetErr *StreamResetError
	if err := reset.SendClose(ctx, first); !errors.As(err, &resetErr) {
		t.Fatalf("SendClose after Reset: %v, want *StreamResetError", err)
	}

	dead, err := client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := client.Stats()
	client.Close()
	if err := dead.SendClose(ctx, first); !errors.Is(err, ErrMuxClosed) {
		t.Fatalf("SendClose on a dead mux: %v, want ErrMuxClosed", err)
	}
	if after := client.Stats(); after.BytesSent != before.BytesSent || after.MsgsSent != before.MsgsSent {
		t.Fatalf("SendClose on a dead mux wrote: %v, then %v", before, after)
	}
}
