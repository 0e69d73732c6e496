package robustset_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"robustset"
	"robustset/internal/protocol"
	"robustset/internal/transport"
)

// publishMany publishes n small datasets named "ds/<i>" and returns
// their serving sets.
func publishMany(t *testing.T, srv *robustset.Server, n int, seed uint64) map[string][]robustset.Point {
	t.Helper()
	sets := make(map[string][]robustset.Point, n)
	for i := 0; i < n; i++ {
		alice, _ := deterministicPair(seed+uint64(i), 120, 4, 2)
		name := fmt.Sprintf("ds/%d", i)
		params := robustset.Params{Universe: testU, Seed: 300 + uint64(i), DiffBudget: 8}
		if _, err := srv.Publish(name, params, alice); err != nil {
			t.Fatal(err)
		}
		sets[name] = alice
	}
	return sets
}

// TestClientMuxConcurrentSessions is the tentpole acceptance test: 16
// datasets reconcile as concurrent pipelined streams of ONE connection,
// and every result is byte-identical to a serial connection-per-fetch
// run of the same strategy.
func TestClientMuxConcurrentSessions(t *testing.T) {
	const datasets = 16
	m := robustset.NewMetrics()
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m))
	sets := publishMany(t, srv, datasets, 7000)
	addr := startServer(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if !cl.Muxed() {
		t.Fatal("client holds no live connection after DialClient")
	}
	// A client session refuses the Session options it cannot honour, and
	// says where each setting lives.
	for where, opt := range map[string]robustset.Option{
		"Params":                   robustset.WithParams(robustset.Params{Universe: testU, Seed: 1, DiffBudget: 8}),
		"WithClientMaxMessageSize": robustset.WithMaxMessageSize(1 << 20),
	} {
		if _, err := cl.Session("ds/0", robustset.Rateless{}, opt); err == nil || !strings.Contains(err.Error(), where) {
			t.Fatalf("Client.Session with an option set by %s: %v", where, err)
		}
	}

	// Serial reference runs, each over a connection of its own.
	serial := make(map[string][]robustset.Point, datasets)
	for name := range sets {
		_, bob := deterministicPair(8000, 120, 4, 2)
		res, _, err := fetchOnce(t, addr.String(), name, robustset.Rateless{}, bob)
		if err != nil {
			t.Fatalf("serial fetch %q: %v", name, err)
		}
		serial[name] = res.SPrime
	}

	// Concurrent mux run: same datasets, same local sets, one connection.
	var wg sync.WaitGroup
	results := make(map[string][]robustset.Point, datasets)
	var resMu sync.Mutex
	errCh := make(chan error, datasets)
	for name := range sets {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			cs, err := cl.Session(name, robustset.Rateless{})
			if err != nil {
				errCh <- err
				return
			}
			_, bob := deterministicPair(8000, 120, 4, 2)
			res, stats, err := cs.Fetch(ctx, bob)
			if err != nil {
				errCh <- fmt.Errorf("mux fetch %q: %w", name, err)
				return
			}
			if stats.BytesSent == 0 || stats.BytesRecv == 0 {
				errCh <- fmt.Errorf("mux fetch %q: empty per-stream accounting %+v", name, stats)
				return
			}
			resMu.Lock()
			results[name] = res.SPrime
			resMu.Unlock()
		}(name)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for name, want := range serial {
		if !robustset.EqualMultisets(results[name], want) {
			t.Fatalf("dataset %q: mux result differs from serial run", name)
		}
		if !robustset.EqualMultisets(results[name], sets[name]) {
			t.Fatalf("dataset %q: result is not the server's set", name)
		}
	}

	snap := m.Snapshot()
	// One connection for the concurrent run, one per serial reference fetch.
	if snap["server_mux_conns_total"] != 1+datasets {
		t.Fatalf("mux conns: %d, want %d", snap["server_mux_conns_total"], 1+datasets)
	}
	if snap["server_mux_streams_total"] != 2*datasets {
		t.Fatalf("mux streams: %d, want %d", snap["server_mux_streams_total"], 2*datasets)
	}
	if snap["server_mux_streams_per_conn_max"] != datasets {
		t.Fatalf("streams per conn max: %d, want %d", snap["server_mux_streams_per_conn_max"], datasets)
	}
	if snap["mux_decode_failures_total"] != 0 {
		t.Fatalf("decode failures: %d", snap["mux_decode_failures_total"])
	}
	if snap["server_sessions_total"] != datasets+int64(len(serial)) {
		t.Fatalf("sessions: %d, want %d", snap["server_sessions_total"], 2*datasets)
	}
	if got := snap["server_sessions_total:ds/0"]; got != 2 {
		t.Fatalf("per-dataset sessions ds/0: %d, want 2", got)
	}
	if cl.Sessions() != datasets {
		t.Fatalf("client sessions: %d, want %d", cl.Sessions(), datasets)
	}
}

// TestLegacyClientOnMuxListener: a pre-mux client — one that opens the
// connection with a bare session hello — is refused with a relayed error
// and a closed connection, and no session is counted.
func TestLegacyClientOnMuxListener(t *testing.T) {
	m := robustset.NewMetrics()
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m))
	publishMany(t, srv, 1, 9500)
	addr := startServer(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tr := transport.NewConnLimit(conn, 0)
	_, err = protocol.RunHelloClient(ctx, tr, protocol.Hello{Strategy: protocol.StrategyRateless, Dataset: "ds/0"})
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("bare hello answered with %v, want the server's *RemoteError", err)
	}
	if _, err := tr.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("read after the refusal: %v, want EOF (connection closed)", err)
	}
	snap := m.Snapshot()
	if snap["server_conns_total"] != 1 || snap["server_mux_conns_total"] != 0 || snap["server_sessions_total"] != 0 {
		t.Fatalf("refused client miscounted: %+v", snap)
	}
}

// TestClientStreamResetLeavesSiblings cancels one session mid-transfer
// (which resets its stream) while sibling sessions on the same
// connection keep going, and then runs another session on the same
// connection to prove it survived.
func TestClientStreamResetLeavesSiblings(t *testing.T) {
	m := robustset.NewMetrics()
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m))
	// A large dataset so the doomed rateless session is still mid-CELLS
	// when it is cancelled: after the head and the first request the
	// serving side has tens of milliseconds of cell building and streaming
	// left.
	alice, bob := deterministicPair(777, 40000, 2000, 0)
	params := robustset.Params{Universe: testU, Seed: 31, DiffBudget: 2500}
	if _, err := srv.Publish("big", params, alice); err != nil {
		t.Fatal(err)
	}
	small := publishMany(t, srv, 4, 600)
	addr := startServer(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Doomed session: cancel its context almost immediately.
	doomCtx, doomCancel := context.WithCancel(ctx)
	doomed, err := cl.Session("big", robustset.Rateless{})
	if err != nil {
		t.Fatal(err)
	}
	doomErr := make(chan error, 1)
	go func() {
		_, _, err := doomed.Fetch(doomCtx, bob)
		doomErr <- err
	}()
	// Cancel as soon as the session has bytes in flight — mid-protocol,
	// well before the cell stream can finish.
	deadline := time.Now().Add(5 * time.Second)
	for cl.Stats().BytesRecv == 0 && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	doomCancel()
	if err := <-doomErr; err == nil {
		t.Fatal("cancelled fetch succeeded")
	}

	// Siblings on the same connection, concurrent with the wreckage.
	var wg sync.WaitGroup
	errCh := make(chan error, len(small))
	for name, want := range small {
		wg.Add(1)
		go func(name string, want []robustset.Point) {
			defer wg.Done()
			cs, err := cl.Session(name, robustset.Rateless{})
			if err != nil {
				errCh <- err
				return
			}
			_, local := deterministicPair(650, 120, 4, 2)
			res, _, err := cs.Fetch(ctx, local)
			if err != nil {
				errCh <- fmt.Errorf("sibling %q after reset: %w", name, err)
				return
			}
			if !robustset.EqualMultisets(res.SPrime, want) {
				errCh <- fmt.Errorf("sibling %q: wrong result after reset", name)
			}
		}(name, want)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if !cl.Muxed() {
		t.Fatal("connection did not survive the stream reset")
	}
	if snap := m.Snapshot(); snap["server_mux_conns_total"] != 1 {
		t.Fatalf("reset forced a reconnect: %d mux conns", snap["server_mux_conns_total"])
	}
}

// TestClientRedialsAfterConnLoss kills the server between fetches; the
// client must redial and renegotiate on the next Fetch against a
// replacement server on the same address.
func TestClientRedialsAfterConnLoss(t *testing.T) {
	alice, bob := deterministicPair(50, 150, 4, 2)
	params := robustset.Params{Universe: testU, Seed: 11, DiffBudget: 8}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv1 := robustset.NewServer(WithTestLogger(t))
	if _, err := srv1.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- srv1.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cs, err := cl.Session("d", robustset.Rateless{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Fetch(ctx, bob); err != nil {
		t.Fatalf("first fetch: %v", err)
	}

	srv1.Close()
	<-done1

	// Replacement server on the same port.
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Skipf("could not rebind %v: %v", ln.Addr(), err)
	}
	srv2 := robustset.NewServer(WithTestLogger(t))
	if _, err := srv2.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln2) }()
	defer func() { srv2.Close(); <-done2 }()

	res, _, err := cs.Fetch(ctx, bob)
	if err != nil {
		t.Fatalf("fetch after conn loss: %v", err)
	}
	if !robustset.EqualMultisets(res.SPrime, alice) {
		t.Fatal("post-redial fetch returned wrong result")
	}
}

// TestDialClientClosesConnOnHandshakeFailure is the leak-regression test
// for the one dial path: when the connection handshake fails — a relayed
// rejection or an injected torn/garbage reply — DialClient returns the
// error, the dialed connection is closed promptly and no goroutine stays
// behind. The serving side watches for the close; a leaked conn shows up
// as its read timing out instead of returning EOF.
func TestDialClientClosesConnOnHandshakeFailure(t *testing.T) {
	reason := []byte("protocol: mux hello version 9, this build speaks 2")
	faults := []struct {
		name  string
		reply []byte
	}{
		// MsgError frame: u32 length || 0x7f || reason.
		{"remote-rejection", append([]byte{byte(len(reason) + 1), 0, 0, 0, 0x7f}, reason...)},
		// A torn frame: the header announces 64 bytes, two arrive.
		{"torn-accept", []byte{64, 0, 0, 0, 0x13, 0x02}},
		// Garbage that parses as a frame but not as any message.
		{"garbage-frame", []byte{3, 0, 0, 0, 0xEE, 0xAA, 0xBB}},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			srvDone := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					srvDone <- err
					return
				}
				defer conn.Close()
				buf := make([]byte, 4096)
				if _, err := conn.Read(buf); err != nil { // consume the hello
					srvDone <- fmt.Errorf("read hello: %w", err)
					return
				}
				if _, err := conn.Write(fault.reply); err != nil {
					srvDone <- err
					return
				}
				// Drain until the client hangs up (or a timeout proves the
				// conn leaked). The torn-accept case sends a short frame, so
				// the client may still be mid-read when we get here.
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				for {
					if _, err = conn.Read(buf); err != nil {
						break
					}
				}
				srvDone <- err
			}()

			// Short deadline: the torn-accept fault stalls the client
			// mid-frame until the context expires, and the close-on-error
			// path must run then too.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			cl, err := robustset.DialClient(ctx, ln.Addr().String())
			if err == nil {
				cl.Close()
				t.Fatal("dial against faulty server succeeded")
			}
			// The serving side must see the connection closed (io.EOF), not
			// a read timeout — that is the difference between a closed and
			// a leaked conn.
			select {
			case err := <-srvDone:
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					t.Fatal("server read timed out: DialClient leaked the connection")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("server never observed the connection closing")
			}
			waitGoroutinesSettle(t, before)
		})
	}
}

// TestClientBackpressure bounds in-flight streams at 2 and runs 8
// sessions; all succeed, and the client never holds more than 2 slots.
func TestClientBackpressure(t *testing.T) {
	srv := robustset.NewServer(WithTestLogger(t))
	sets := publishMany(t, srv, 8, 1100)
	addr := startServer(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String(), robustset.WithClientMaxStreams(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, len(sets))
	for name, want := range sets {
		wg.Add(1)
		go func(name string, want []robustset.Point) {
			defer wg.Done()
			cs, err := cl.Session(name, robustset.Robust{})
			if err != nil {
				errCh <- err
				return
			}
			_, local := deterministicPair(1200, 120, 4, 2)
			res, _, err := cs.Fetch(ctx, local)
			if err != nil {
				errCh <- fmt.Errorf("%q: %w", name, err)
				return
			}
			if res == nil || len(res.SPrime) == 0 {
				errCh <- fmt.Errorf("%q: empty result", name)
			}
			_ = want
		}(name, want)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestClientBoundEqualToServerBound runs back-to-back sessions with the
// client's stream bound equal to the server's per-connection bound, the
// tightest configuration WithClientMaxStreams allows. The server counts
// a stream until its own half closes, which is after the client has its
// result; a client that freed its slot on its own close would race the
// server's teardown and have its next OPEN refused with "too many
// concurrent streams".
func TestClientBoundEqualToServerBound(t *testing.T) {
	for _, bound := range []int{1, 3} {
		srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMaxStreamsPerConn(bound))
		publishMany(t, srv, 1, 1500)
		addr := startServer(t, srv)

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cl, err := robustset.DialClient(ctx, addr.String(), robustset.WithClientMaxStreams(bound))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, local := deterministicPair(1500, 120, 4, 2)
		var wg sync.WaitGroup
		errCh := make(chan error, 2*bound)
		for w := 0; w < 2*bound; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					cs, err := cl.Session("ds/0", robustset.Robust{})
					if err == nil {
						_, _, err = cs.Fetch(ctx, local)
					}
					if err != nil {
						errCh <- fmt.Errorf("bound %d, session %d: %w", bound, i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	}
}

// TestServerShutdownDrainsMuxStreams verifies graceful shutdown with a
// live multiplexed connection: in-flight sessions finish, new streams
// are refused, and Shutdown returns without forcing.
func TestServerShutdownDrainsMuxStreams(t *testing.T) {
	srv := robustset.NewServer(WithTestLogger(t))
	sets := publishMany(t, srv, 1, 1300)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cs, err := cl.Session("ds/0", robustset.Rateless{})
	if err != nil {
		t.Fatal(err)
	}
	_, bob := deterministicPair(1400, 120, 4, 2)
	if res, _, err := cs.Fetch(ctx, bob); err != nil || !robustset.EqualMultisets(res.SPrime, sets["ds/0"]) {
		t.Fatalf("pre-shutdown fetch: %v", err)
	}

	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shCancel()
	if err := srv.Shutdown(shCtx); err != nil {
		t.Fatalf("graceful shutdown with idle mux conn: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, robustset.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	// The drained connection is dead; a new fetch must fail (no server).
	if _, _, err := cs.Fetch(ctx, bob); err == nil {
		t.Fatal("fetch succeeded against a shut-down server")
	}
}
