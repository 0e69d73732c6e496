package robustset_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"robustset"
	"robustset/internal/core"
	"robustset/internal/protocol"
	"robustset/internal/transport"
)

func startServer(t *testing.T, srv *robustset.Server) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-serveDone; !errors.Is(err, robustset.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr()
}

// fetchOnce is the one-shot fetch against a Server: dial a Client, open a
// session on the named dataset, fetch once, close — a mux with one stream.
// The stats are the session's stream, as every ClientSession.Fetch reports.
func fetchOnce(t testing.TB, addr, dataset string, strategy robustset.Strategy, local []robustset.Point, opts ...robustset.Option) (*robustset.SyncResult, robustset.TransferStats, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr)
	if err != nil {
		return nil, robustset.TransferStats{}, err
	}
	defer cl.Close()
	cs, err := cl.Session(dataset, strategy, opts...)
	if err != nil {
		return nil, robustset.TransferStats{}, err
	}
	return cs.Fetch(ctx, local)
}

// openStream dials addr, negotiates MUX1 and opens one stream: the raw
// counterpart of DialClient for tests that speak the session protocol by
// hand. The connection is torn down with the test.
func openStream(t *testing.T, addr string) *transport.Stream {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewMuxConnLimit(conn, 0)
	window, err := protocol.RunMuxHelloClient(ctx, tr, transport.DefaultMuxWindow)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	m := transport.NewMux(tr, true, transport.MuxConfig{
		RecvWindow: transport.DefaultMuxWindow,
		SendWindow: int(window),
	})
	t.Cleanup(func() { m.Close() })
	st, err := m.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerMultiDatasetConcurrent is the acceptance scenario: one server
// publishing two datasets, eight concurrent clients (four per dataset)
// fetching through four different strategies each.
func TestServerMultiDatasetConcurrent(t *testing.T) {
	paramsA := robustset.Params{Universe: testU, Seed: 101, DiffBudget: 6}
	paramsB := robustset.Params{Universe: testU, Seed: 202, DiffBudget: 4}
	aliceA, bobA := deterministicPair(41, 300, 6, 2)
	aliceB, bobB := deterministicPair(42, 200, 4, 2)

	srv := robustset.NewServer(WithTestLogger(t))
	if _, err := srv.Publish("sensors/alpha", paramsA, aliceA); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish("sensors/beta", paramsB, aliceB); err != nil {
		t.Fatal(err)
	}
	if got := srv.Datasets(); len(got) != 2 {
		t.Fatalf("Datasets() = %v", got)
	}
	addr := startServer(t, srv)

	type job struct {
		dataset       string
		strategy      robustset.Strategy
		local, remote []robustset.Point
		exact         bool
	}
	jobs := []job{
		{"sensors/alpha", robustset.Robust{}, bobA, aliceA, false},
		{"sensors/alpha", robustset.Adaptive{}, bobA, aliceA, false},
		{"sensors/alpha", robustset.Rateless{}, robustset.ClonePoints(aliceA), aliceA, true},
		{"sensors/alpha", robustset.Naive{}, bobA, aliceA, true},
		{"sensors/beta", robustset.Robust{}, bobB, aliceB, false},
		{"sensors/beta", robustset.Adaptive{}, bobB, aliceB, false},
		{"sensors/beta", robustset.Rateless{}, robustset.ClonePoints(aliceB), aliceB, true},
		{"sensors/beta", robustset.Naive{}, bobB, aliceB, true},
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			fail := func(err error) {
				errs <- fmt.Errorf("client %d (%s on %q): %w", i, j.strategy.Name(), j.dataset, err)
			}
			res, _, err := fetchOnce(t, addr.String(), j.dataset, j.strategy, j.local)
			if err != nil {
				fail(err)
				return
			}
			if j.exact && !robustset.EqualMultisets(res.SPrime, j.remote) {
				fail(errors.New("exact strategy did not reproduce the dataset"))
			}
			if !j.exact && len(res.SPrime) != len(j.local) {
				fail(fmt.Errorf("|S'| = %d, want %d", len(res.SPrime), len(j.local)))
			}
		}(i, j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerUnknownDatasetAndStrategy asserts handshake rejections reach
// the client as remote errors.
func TestServerUnknownDataset(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 1, DiffBudget: 4}
	alice, bob := deterministicPair(51, 100, 4, 2)
	srv := robustset.NewServer(WithTestLogger(t))
	if _, err := srv.Publish("known", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	_, _, err := fetchOnce(t, addr.String(), "missing", robustset.Robust{}, bob)
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("fetch of unknown dataset: %v, want the server's *RemoteError", err)
	}
}

// TestServerDatasetUpdates asserts live Add/Remove updates are visible to
// later sessions through the maintained sketch.
func TestServerDatasetUpdates(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 31, DiffBudget: 8}
	alice, _ := deterministicPair(61, 150, 0, 0)
	srv := robustset.NewServer(WithTestLogger(t))
	d, err := srv.Publish("live", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	// Mutate the dataset: drop one point, add two fresh ones.
	if err := d.Remove(alice[0]); err != nil {
		t.Fatal(err)
	}
	fresh := robustset.Point{12345, 54321}
	if err := d.Add(fresh); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(robustset.Point{999, 111}); err != nil {
		t.Fatal(err)
	}
	if d.Size() != len(alice)+1 {
		t.Fatalf("Size() = %d, want %d", d.Size(), len(alice)+1)
	}
	if err := d.Remove(robustset.Point{7, 7}); !errors.Is(err, robustset.ErrNotPresent) {
		t.Fatalf("Remove of absent point: %v", err)
	}

	// An exact fetch sees the updated multiset.
	res, _, err := fetchOnce(t, addr.String(), "live", robustset.Rateless{}, d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(res.SPrime, d.Snapshot()) {
		t.Error("fetched multiset does not match the live dataset")
	}
}

// TestServerGracefulShutdown asserts Shutdown waits for an in-flight
// session to complete when the context allows it.
func TestServerGracefulShutdown(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 71, DiffBudget: 4}
	alice, _ := deterministicPair(71, 200, 4, 2)
	srv := robustset.NewServer(WithTestLogger(t))
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// Start a rateless session by hand and hold it after the server's
	// opening (accept, then the head): the server now waits on the client's
	// next request. Let the client finish while Shutdown is waiting.
	st := openStream(t, ln.Addr().String())
	bg := context.Background()
	hello := protocol.Hello{Strategy: protocol.StrategyRateless, Dataset: "d"} // cold
	if _, err := protocol.RunHelloClient(bg, st, hello); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recv(bg); err != nil {
		t.Fatalf("no head: %v", err)
	}
	fetchDone := make(chan error, 1)
	go func() {
		// Shutdown has begun once its listener refuses a dial.
		for {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				break
			}
			c.Close()
			runtime.Gosched()
		}
		fetchDone <- st.Send(bg, []byte{protocol.MsgDone})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	if err := <-fetchDone; err != nil {
		t.Fatalf("in-flight session during graceful shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, robustset.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	// New connections are refused after shutdown.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}

// TestServerForcedShutdown asserts Shutdown aborts connections that
// outlive its context: a client that connects and then goes silent holds
// a connection goroutine, which must be torn down.
func TestServerForcedShutdown(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 81, DiffBudget: 4}
	alice, _ := deterministicPair(81, 100, 4, 2)
	m := robustset.NewMetrics()
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m))
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// A client that connects and never speaks: the connection goroutine
	// blocks in the handshake read.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for m.Snapshot()["server_conns_total"] != 1 { // let the server accept
		runtime.Gosched()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced shutdown took %v", elapsed)
	}
	if err := <-serveDone; !errors.Is(err, robustset.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestServerPublishValidation covers the refusals the four publish
// methods share. A refusal leaves Datasets() as it was and writes nothing
// under the data directory.
func TestServerPublishValidation(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 1, DiffBudget: 2}
	type publishFunc func(srv *robustset.Server, name string, p robustset.Params) error
	methods := []struct {
		name             string
		durable, sharded bool
		publish          publishFunc
	}{
		{"Publish", false, false, func(srv *robustset.Server, name string, p robustset.Params) error {
			_, err := srv.Publish(name, p, nil)
			return err
		}},
		{"PublishSharded", false, true, func(srv *robustset.Server, name string, p robustset.Params) error {
			_, err := srv.PublishSharded(name, p, nil, 2)
			return err
		}},
		{"PublishDurable", true, false, func(srv *robustset.Server, name string, p robustset.Params) error {
			_, err := srv.PublishDurable(name, p, nil)
			return err
		}},
		{"PublishShardedDurable", true, true, func(srv *robustset.Server, name string, p robustset.Params) error {
			_, err := srv.PublishShardedDurable(name, p, nil, 2)
			return err
		}},
	}
	cases := []struct {
		name             string
		dataset          string
		params           robustset.Params
		durable, sharded bool // the case applies to these methods only
		noDataDir        bool
		setup            func(srv *robustset.Server, publish publishFunc) error
	}{
		{name: "empty name", dataset: "", params: params},
		{name: "invalid params", dataset: "x", params: robustset.Params{}},
		{name: "duplicate name", dataset: "x", params: params, setup: func(srv *robustset.Server, publish publishFunc) error {
			return publish(srv, "x", params)
		}},
		{name: "shard name taken", dataset: "x", params: params, sharded: true, setup: func(srv *robustset.Server, _ publishFunc) error {
			_, err := srv.Publish("x~1.2", params, nil)
			return err
		}},
		{name: "no data dir", dataset: "x", params: params, durable: true, noDataDir: true},
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			for _, c := range cases {
				if (c.durable && !m.durable) || (c.sharded && !m.sharded) {
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					dir := t.TempDir()
					srv := robustset.NewServer(robustset.WithServerDataDir(dir))
					if c.noDataDir {
						srv = robustset.NewServer()
					}
					defer srv.Close()
					if c.setup != nil {
						if err := c.setup(srv, m.publish); err != nil {
							t.Fatal(err)
						}
					}
					names := srv.Datasets()
					ents, _ := os.ReadDir(dir)
					if err := m.publish(srv, c.dataset, c.params); err == nil {
						t.Fatalf("%s(%q) accepted", m.name, c.dataset)
					}
					if got := srv.Datasets(); !slices.Equal(got, names) {
						t.Errorf("refusal changed Datasets(): %q, was %q", got, names)
					}
					if after, _ := os.ReadDir(dir); len(after) != len(ents) {
						t.Errorf("refusal wrote under the data dir: %d entries, was %d", len(after), len(ents))
					}
				})
			}
		})
	}
}

// TestServerMaxMessageSize: a server capped below the size of a robust
// sketch fails that session promptly, without hanging the client and with
// no relayed refusal, counts it as a session error, and goes on serving
// small sessions on the same connection.
func TestServerMaxMessageSize(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 92, DiffBudget: 4}
	alice, bob := deterministicPair(92, 2000, 2, 0)
	m := robustset.NewMetrics()
	srv := robustset.NewServer(robustset.WithServerMaxMessageSize(4096), robustset.WithServerMetrics(m))
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	robust, err := cl.Session("d", robustset.Robust{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := robust.Fetch(ctx, bob); err == nil {
		t.Fatal("a robust sketch above the server's message cap was delivered")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("the oversize session took %v to fail", elapsed)
	}
	rateless, err := cl.Session("d", robustset.Rateless{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := rateless.Fetch(ctx, bob)
	if err != nil {
		t.Fatalf("rateless fetch after the oversize session: %v", err)
	}
	if !robustset.EqualMultisets(res.SPrime, alice) {
		t.Fatal("rateless fetch did not return the server's set")
	}
	for m.Snapshot()["server_session_errors_total"] != 1 {
		if ctx.Err() != nil {
			t.Fatalf("server_session_errors_total = %d, want 1", m.Snapshot()["server_session_errors_total"])
		}
		time.Sleep(time.Millisecond)
	}
}

// WithTestLogger routes server logs into the test output.
func WithTestLogger(t *testing.T) robustset.ServerOption {
	return robustset.WithServerLogger(func(format string, args ...any) {
		t.Logf(format, args...)
	})
}

// TestServerSessionTimeout asserts a silent client cannot pin a
// connection goroutine past the configured deadline: the server closes
// the connection on its own, without Shutdown.
func TestServerSessionTimeout(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 91, DiffBudget: 4}
	alice, _ := deterministicPair(91, 100, 4, 2)
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerSessionTimeout(150*time.Millisecond))
	defer srv.Close()
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Never send the hello; the server must hang up when the session
	// deadline fires.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server sent data to a silent client")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("session lingered %v past the 150ms deadline", elapsed)
	}
}

// TestServerConcurrentFetchAndMutation hammers one dataset with parallel
// robust and adaptive fetches while two writer goroutines churn
// Add/Remove — the high-contention shape a sync server lives under. Run
// with -race; every robust fetch must see a consistent sketch snapshot,
// and every adaptive one — cold, warm, or overtaken by a write between
// its estimators and its level table — must still reconcile (decode
// errors would surface as fetch failures).
func TestServerConcurrentFetchAndMutation(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 3, DiffBudget: 64}
	alice, bob := deterministicPair(55, 400, 8, 2)
	srv := robustset.NewServer(WithTestLogger(t))
	ds, err := srv.Publish("hot", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			pt := robustset.Point{int64(1000 + w), int64(2000 + w)}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := ds.Add(pt); err != nil {
					t.Errorf("writer %d add: %v", w, err)
					return
				}
				if err := ds.Remove(pt); err != nil {
					t.Errorf("writer %d remove: %v", w, err)
					return
				}
			}
		}(w)
	}

	var fetchers sync.WaitGroup
	for f := 0; f < 4; f++ {
		fetchers.Add(1)
		go func(f int) {
			defer fetchers.Done()
			strat := []robustset.Strategy{robustset.Robust{}, robustset.Adaptive{}}[f%2]
			for i := 0; i < 5; i++ {
				res, _, err := fetchOnce(t, addr.String(), "hot", strat, bob)
				if err != nil {
					t.Errorf("fetcher %d round %d: %v", f, i, err)
					return
				}
				if len(res.SPrime) == 0 {
					t.Errorf("fetcher %d round %d: empty result", f, i)
					return
				}
			}
		}(f)
	}
	fetchers.Wait()
	close(stop)
	writers.Wait()

	// The churned dataset must still equal its snapshot semantics: every
	// writer added and removed in pairs, so the size is the original.
	if got := ds.Size(); got != len(alice) {
		t.Errorf("dataset size %d after churn, want %d", got, len(alice))
	}
}

// TestServerShutdownDuringBuild aborts a server mid-session — the client
// completes the handshake and then stalls, pinning the serving goroutine
// — and asserts Shutdown's deadline path force-closes the session and
// returns. Concurrent dataset mutation during shutdown must stay safe.
func TestServerShutdownDuringBuild(t *testing.T) {
	// A large DiffBudget makes the pushed sketch several megabytes, so
	// the serving side genuinely blocks on the stalled client instead of
	// completing into the kernel's socket buffer.
	params := robustset.Params{Universe: testU, Seed: 9, DiffBudget: 20000}
	alice, _ := deterministicPair(77, 600, 8, 2)
	srv := robustset.NewServer(WithTestLogger(t))
	ds, err := srv.Publish("slow", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// Open a session and stall: negotiate the connection, put an OPEN and
	// the session hello on the wire by hand, then neither read nor write
	// again. No Mux runs on this side, so nothing drains the socket under
	// the push.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bg := context.Background()
	tr := transport.NewMuxConnLimit(conn, 0)
	if _, err := protocol.RunMuxHelloClient(bg, tr, transport.DefaultMuxWindow); err != nil {
		t.Fatalf("no mux accept: %v", err)
	}
	hello := []byte{protocol.MsgHello, protocol.StrategyRobust, 4, 0, 0, 0, 's', 'l', 'o', 'w', 0, 0, 0, 0}
	for _, f := range []transport.MuxFrame{
		{StreamID: 1, Type: transport.MuxFrameOpen},
		{StreamID: 1, Type: transport.MuxFrameData, Payload: hello},
	} {
		if err := tr.Send(bg, transport.AppendMuxFrame(nil, f)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Recv(bg); err != nil { // the accept, in its DATA frame
		t.Fatalf("no accept: %v", err)
	}

	// Mutate the dataset while shutdown races the stalled session.
	mutDone := make(chan struct{})
	go func() {
		defer close(mutDone)
		pt := robustset.Point{123, 456}
		for i := 0; i < 50; i++ {
			_ = ds.Add(pt)
			_ = ds.Remove(pt)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want DeadlineExceeded (stalled session)", err)
	}
	// The bound only guards against a hung force-close; it is generous
	// because full-package -race runs add several seconds of GC and
	// scheduler pressure around the multi-megabyte sketch build.
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("Shutdown took %v to abort a stalled session", elapsed)
	}
	if err := <-serveDone; !errors.Is(err, robustset.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	<-mutDone
	if got := ds.Size(); got != len(alice) {
		t.Errorf("dataset size %d after paired mutations, want %d", got, len(alice))
	}
}

// TestServerRejectsHostileCPICapacity sends a handcrafted hello naming the
// retired CPI code with an absurd 4-byte capacity and asserts the server
// relays its unknown-strategy refusal instead of serving anything.
func TestServerRejectsHostileCPICapacity(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 7, DiffBudget: 4}
	alice, _ := deterministicPair(99, 50, 4, 2)
	srv := robustset.NewServer(WithTestLogger(t))
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	st := openStream(t, addr.String())
	hello := protocol.Hello{
		Strategy: protocol.StrategyCPI, Dataset: "d",
		Config: []byte{0xff, 0xff, 0xff, 0xff}, // u32 capacity
	}
	_, err := protocol.RunHelloClient(context.Background(), st, hello)
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Reason, "unknown strategy") {
		t.Fatalf("hostile hello answered with %v, want the server's unknown-strategy *RemoteError", err)
	}
}

// TestAdaptiveServerRefusesLevelOutsideRange: against a Server, as over a
// pipe (protocol.TestEstimateAliceRefusesLevelOutsideRange), a level
// request outside the dataset's [MinLevel, MaxLevel] is refused with
// core.ErrLevelOutOfRange, relayed: the dataset's Maintainer serves no
// such level, though the universe has it. So is an estimator window that
// reaches outside the range. A level request whose table could not fit
// the server's message limit — a configured one or the default — is
// refused, relayed, before the table is built: a 6-byte request must not
// make the server allocate one.
func TestAdaptiveServerRefusesLevelOutsideRange(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 5, DiffBudget: 4}.WithLevels(3, 8)
	srv := robustset.NewServer(robustset.WithServerMaxMessageSize(1 << 16))
	if _, err := srv.Publish("d", params, []robustset.Point{{1, 2}, {3, 4}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, level := range []int{9, 9, 2, 0, testU.Levels(), testU.Levels() + 1, 1<<16 - 1} {
		st := openStream(t, addr)
		if _, err := protocol.RunHello(ctx, st, protocol.Hello{Strategy: protocol.StrategyAdaptive, Dataset: "d"}); err != nil {
			t.Fatal(err)
		}
		if err := st.Send(ctx, []byte{protocol.MsgEstRequest, 64, 0, 0, 0, 8, 0, 1, 0}); err != nil { // the finest level alone
			t.Fatal(err)
		}
		if msg, err := st.Recv(ctx); err != nil || msg[0] != protocol.MsgEstimators {
			t.Fatalf("session %d: estimator reply %x, %v", i, msg, err)
		}
		req := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16([]byte{protocol.MsgLevelRequest}, uint16(level)), 32)
		if err := st.Send(ctx, req); err != nil {
			t.Fatal(err)
		}
		msg, err := st.Recv(ctx)
		if err != nil || msg[0] != protocol.MsgError || !strings.Contains(string(msg[1:]), core.ErrLevelOutOfRange.Error()) {
			t.Errorf("session %d, level %d outside [3,8]: got %q, %v; want core.ErrLevelOutOfRange relayed", i, level, msg, err)
		}
	}
	for _, window := range [][2]uint16{{9, 1}, {8, 7}, {2, 1}, {uint16(testU.Levels()), 13}} {
		st := openStream(t, addr)
		if _, err := protocol.RunHello(ctx, st, protocol.Hello{Strategy: protocol.StrategyAdaptive, Dataset: "d"}); err != nil {
			t.Fatal(err)
		}
		req := binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16([]byte{protocol.MsgEstRequest, 64, 0, 0, 0}, window[0]), window[1])
		if err := st.Send(ctx, req); err != nil {
			t.Fatal(err)
		}
		msg, err := st.Recv(ctx)
		if err != nil || msg[0] != protocol.MsgError || !strings.Contains(string(msg[1:]), core.ErrLevelOutOfRange.Error()) {
			t.Errorf("window of %d levels from %d, outside [3,8]: got %q, %v; want core.ErrLevelOutOfRange relayed", window[1], window[0], msg, err)
		}
	}
	// Under the default limit, the transport's 256 MiB frame, capacity
	// 1<<23 (≈ 12.6 M cells, up to 415 MB on the wire) is refused.
	dflt := robustset.NewServer()
	if _, err := dflt.Publish("d", params, []robustset.Point{{1, 2}, {3, 4}, {1, 2}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		addr     string
		capacity uint32
	}{{addr, 1 << 20}, {startServer(t, dflt).String(), 1 << 23}} {
		st := openStream(t, tc.addr)
		if _, err := protocol.RunHello(ctx, st, protocol.Hello{Strategy: protocol.StrategyAdaptive, Dataset: "d"}); err != nil {
			t.Fatal(err)
		}
		if err := st.Send(ctx, []byte{protocol.MsgEstRequest, 64, 0, 0, 0, 8, 0, 1, 0}); err != nil {
			t.Fatal(err)
		}
		if msg, err := st.Recv(ctx); err != nil || msg[0] != protocol.MsgEstimators {
			t.Fatalf("estimator reply %x, %v", msg, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := st.Send(ctx, binary.LittleEndian.AppendUint32([]byte{protocol.MsgLevelRequest, 8, 0}, tc.capacity)); err != nil {
			t.Fatal(err)
		}
		msg, err := st.Recv(ctx)
		runtime.ReadMemStats(&after)
		if err != nil || msg[0] != protocol.MsgError || !strings.Contains(string(msg[1:]), "message limit") {
			t.Errorf("capacity %d: got %.80q, %v; want the message-limit refusal relayed", tc.capacity, msg, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
			t.Errorf("capacity %d: a refused level request allocated %d bytes", tc.capacity, grew)
		}
	}
}

// TestMutationBatchAllocs pins what a batch's WAL encodings cost: an add
// and a remove batch of 32 points on a 20 000-point in-memory dataset
// carve every point's encoding out of one array per batch, so a cycle
// allocates a few dozen times, not once more per point.
func TestMutationBatchAllocs(t *testing.T) {
	const n, batch = 20000, 32
	rng := rand.New(rand.NewPCG(3, 4))
	u := robustset.Universe{Dim: 2, Delta: 1 << 20}
	pts := make([]robustset.Point, n)
	for i := range pts {
		pts[i] = robustset.Point{rng.Int64N(u.Delta), rng.Int64N(u.Delta)}
	}
	srv := robustset.NewServer()
	defer srv.Close()
	d, err := srv.Publish("d", robustset.Params{Universe: u, Seed: 1, DiffBudget: 16}, pts)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	allocs := testing.AllocsPerRun(200, func() {
		b := pts[at%(n/batch)*batch:][:batch]
		at++
		if err := errors.Join(d.RemoveBatch(b), d.AddBatch(b)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per add-and-remove cycle of %d + %d points", allocs, batch, batch)
	// 5 at this writing: each batch's encodings and their array, and the
	// remove tally's sort order. A key or an encoding of its own per point
	// would add 32 or 64.
	const most = 8
	if allocs > most {
		t.Fatalf("%.1f allocations per add-and-remove cycle of %d + %d points, want at most %d", allocs, batch, batch, most)
	}
}
