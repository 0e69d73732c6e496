package transport_test

// Fault-injection suite: wraps real connections with byte-level faults —
// short reads, mid-frame EOFs, stalls past the deadline, garbage frames —
// and asserts that the framing layer and every Session strategy above it
// surface the typed error taxonomy (context.DeadlineExceeded, torn-frame
// errors, io.EOF/io.ErrUnexpectedEOF, protocol.ErrUnexpectedMessage)
// instead of hanging, panicking, or leaking opaque syscall errors.
//
// CI runs this file separately under the race detector:
//
//	go test -run 'Fault|Coalesce|Held' -race ./internal/transport/...

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"robustset"
	"robustset/internal/protocol"
	"robustset/internal/transport"
)

var faultU = robustset.Universe{Dim: 2, Delta: 1 << 12}

// faultPair builds the small deterministic instance every strategy can
// handle (exact regime: identical sets plus k replacements).
func faultPair(n, k int) (alice, bob []robustset.Point) {
	next := uint64(12345)
	rnd := func(m int64) int64 {
		next = next*6364136223846793005 + 1442695040888963407
		return int64((next >> 33) % uint64(m))
	}
	bob = make([]robustset.Point, n)
	for i := range bob {
		bob[i] = robustset.Point{rnd(faultU.Delta), rnd(faultU.Delta)}
	}
	alice = robustset.ClonePoints(bob)
	for i := 0; i < k; i++ {
		alice[i] = robustset.Point{rnd(faultU.Delta), rnd(faultU.Delta)}
	}
	return alice, bob
}

func faultParams() robustset.Params {
	return robustset.Params{Universe: faultU, Seed: 9, DiffBudget: 4}
}

// tcpPair returns two ends of a loopback TCP connection (TCP gives true
// EOF-on-half-close semantics, which the mid-frame faults rely on).
func tcpPair(t *testing.T) (client, server *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	if s == nil {
		c.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*net.TCPConn), s.(*net.TCPConn)
}

// shortReadConn delivers at most one byte per Read call — the harshest
// legal segmentation a stream transport can produce.
type shortReadConn struct{ net.Conn }

func (c shortReadConn) Read(b []byte) (int, error) {
	if len(b) > 1 {
		b = b[:1]
	}
	return c.Conn.Read(b)
}

// TestFaultShortReadsStillCorrect injects pathological 1-byte reads under
// every strategy's fetch side and requires the exchange to succeed
// bit-for-bit anyway: framing must never depend on read segmentation.
func TestFaultShortReadsStillCorrect(t *testing.T) {
	alice, bob := faultPair(120, 4)
	params := faultParams()
	for _, strat := range robustset.Strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			sess, err := robustset.NewSession(strat, robustset.WithParams(params))
			if err != nil {
				t.Fatal(err)
			}
			cc, sc := tcpPair(t)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := sess.Serve(ctx, shortReadConn{Conn: sc}, alice)
				done <- err
			}()
			res, _, err := sess.Fetch(ctx, shortReadConn{Conn: cc}, bob)
			if err != nil {
				t.Fatalf("fetch under short reads: %v", err)
			}
			if err := <-done; err != nil {
				t.Fatalf("serve under short reads: %v", err)
			}
			if len(res.SPrime) == 0 {
				t.Fatal("empty result under short reads")
			}
		})
	}
}

// TestFaultMidFrameEOF half-closes the serving side in the middle of an
// announced frame: every strategy must fail promptly with the torn-frame
// taxonomy (never a hang, never a panic, never an opaque reset).
func TestFaultMidFrameEOF(t *testing.T) {
	_, bob := faultPair(80, 4)
	params := faultParams()
	for _, strat := range robustset.Strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			sess, err := robustset.NewSession(strat, robustset.WithParams(params))
			if err != nil {
				t.Fatal(err)
			}
			cc, sc := tcpPair(t)
			// The stub peer drains whatever the client sends (so
			// send-first strategies progress), emits a torn frame —
			// header announcing 1000 bytes, body of 100 — and then
			// half-closes, which surfaces as EOF mid-body.
			go func() {
				buf := make([]byte, 4096)
				go func() {
					for {
						if _, err := sc.Read(buf); err != nil {
							return
						}
					}
				}()
				sc.Write([]byte{0xe8, 0x03, 0x00, 0x00}) // length 1000
				sc.Write(make([]byte, 100))
				sc.CloseWrite()
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, _, err := sess.Fetch(ctx, cc, bob)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("torn mid-frame stream accepted")
				}
				if !errors.Is(err, io.ErrUnexpectedEOF) && !strings.Contains(err.Error(), "torn frame") {
					t.Fatalf("mid-frame EOF surfaced as %v, want the torn-frame taxonomy", err)
				}
			case <-time.After(8 * time.Second):
				t.Fatal("fetch hung on a torn frame")
			}
		})
	}
}

// TestFaultStallPastDeadline points every strategy at a peer that accepts
// and then goes silent: the context deadline must fire as
// context.DeadlineExceeded — the deadline taxonomy, not an i/o timeout
// string — well before the test's own guard.
func TestFaultStallPastDeadline(t *testing.T) {
	_, bob := faultPair(80, 4)
	params := faultParams()
	for _, strat := range robustset.Strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			sess, err := robustset.NewSession(strat, robustset.WithParams(params))
			if err != nil {
				t.Fatal(err)
			}
			cc, sc := tcpPair(t)
			// Keep the peer's window open so client sends succeed, but
			// never respond.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := sc.Read(buf); err != nil {
						return
					}
				}
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, _, err := sess.Fetch(ctx, cc, bob)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("stalled peer surfaced as %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(8 * time.Second):
				t.Fatal("fetch hung past its deadline on a stalled peer")
			}
		})
	}
}

// TestFaultGarbageFrame sends every strategy a well-framed message of the
// wrong type: the protocol layer must reject it as ErrUnexpectedMessage
// rather than misparse it.
func TestFaultGarbageFrame(t *testing.T) {
	_, bob := faultPair(80, 4)
	params := faultParams()
	for _, strat := range robustset.Strategies() {
		t.Run(strat.Name(), func(t *testing.T) {
			sess, err := robustset.NewSession(strat, robustset.WithParams(params))
			if err != nil {
				t.Fatal(err)
			}
			cc, sc := tcpPair(t)
			go func() {
				buf := make([]byte, 4096)
				go func() {
					for {
						if _, err := sc.Read(buf); err != nil {
							return
						}
					}
				}()
				tr := transport.NewConn(sc)
				body := make([]byte, 64)
				for i := range body {
					body[i] = 0xaa
				}
				_ = tr.Send(context.Background(), body)
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, _, err := sess.Fetch(ctx, cc, bob)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, protocol.ErrUnexpectedMessage) {
					t.Fatalf("garbage frame surfaced as %v, want ErrUnexpectedMessage", err)
				}
			case <-time.After(8 * time.Second):
				t.Fatal("fetch hung on a garbage frame")
			}
		})
	}
}

// TestFaultTornHeader tears the stream inside the 4-byte length prefix
// itself — the transport must name the torn header, not report a generic
// short read.
func TestFaultTornHeader(t *testing.T) {
	cc, sc := tcpPair(t)
	go func() {
		sc.Write([]byte{0x10, 0x00}) // half a length prefix
		sc.CloseWrite()
	}()
	tr := transport.NewConn(cc)
	_, err := tr.Recv(context.Background())
	if err == nil {
		t.Fatal("torn header accepted")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "torn frame header") {
		t.Fatalf("torn header surfaced as %v", err)
	}
}

// TestFaultShortReadFraming drives the raw transport through the 1-byte
// reader and checks framing plus accounting stay exact.
func TestFaultShortReadFraming(t *testing.T) {
	cc, sc := tcpPair(t)
	a, b := transport.NewConn(sc), transport.NewConn(shortReadConn{Conn: cc})
	msg := make([]byte, 1000)
	for i := range msg {
		msg[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() { done <- a.Send(context.Background(), msg) }()
	got, err := b.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msg) {
		t.Fatalf("got %d bytes, want %d", len(got), len(msg))
	}
	for i := range got {
		if got[i] != msg[i] {
			t.Fatalf("byte %d corrupted under short reads", i)
		}
	}
	if s := b.Stats(); s.BytesRecv != int64(len(msg)+4) {
		t.Errorf("accounting %d, want %d", s.BytesRecv, len(msg)+4)
	}
}
