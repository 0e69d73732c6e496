package robustset_test

// Serving-path hardening tests for the allocation-elimination pass:
// buffer pooling must not change reconciliation results, concurrent
// session traffic must survive Client.Close and Server.Shutdown racing
// it (run under -race in CI), and a full server+replicator teardown
// must release every goroutine it started.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"robustset"
	"robustset/internal/metrics"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// canonical renders a point multiset in a stable order so two runs can
// be compared byte-for-byte.
func canonical(pts []robustset.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = fmt.Sprint(p)
	}
	sort.Strings(out)
	return out
}

// muxFetchAll reconciles every dataset concurrently over one mux
// connection and returns the per-dataset results.
func muxFetchAll(t *testing.T, addr string, sets map[string][]robustset.Point, strat robustset.Strategy) map[string][]string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	results := make(map[string][]string, len(sets))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, len(sets))
	for name := range sets {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			cs, err := cl.Session(name, strat)
			if err != nil {
				errCh <- fmt.Errorf("%s: %w", name, err)
				return
			}
			_, bob := deterministicPair(8600, 120, 4, 2)
			res, _, err := cs.Fetch(ctx, bob)
			if err != nil {
				errCh <- fmt.Errorf("%s: %w", name, err)
				return
			}
			mu.Lock()
			results[name] = canonical(res.SPrime)
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return results
}

// TestPoolingOnOffByteIdentical runs the same concurrent multi-dataset
// mux reconciliation with buffer pooling enabled and disabled: the
// recycled-buffer serving path must produce byte-identical results to
// the fresh-allocation path, for both a snapshot-serving strategy
// (naive) and the rateless (cell-streaming) one.
func TestPoolingOnOffByteIdentical(t *testing.T) {
	defer transport.SetBufferPooling(true)
	run := func(pooling bool, strat robustset.Strategy) map[string][]string {
		transport.SetBufferPooling(pooling)
		srv := robustset.NewServer(WithTestLogger(t))
		sets := publishMany(t, srv, 8, 7600)
		addr := startServer(t, srv)
		return muxFetchAll(t, addr.String(), sets, strat)
	}
	for _, strat := range []robustset.Strategy{robustset.Naive{}, robustset.Rateless{}} {
		off := run(false, strat)
		on := run(true, strat)
		if len(on) != len(off) {
			t.Fatalf("%T: pooled run returned %d datasets, unpooled %d", strat, len(on), len(off))
		}
		for name, want := range off {
			got := on[name]
			if len(got) != len(want) {
				t.Fatalf("%T %s: pooled result has %d points, unpooled %d", strat, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%T %s: results diverge at point %d: pooled %q, unpooled %q", strat, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSessionsRaceCloseAndShutdown hammers one client with concurrent
// Session+Fetch loops, then tears down the client and the server while
// the load is in flight. Run under -race in CI; errors are expected
// (and must be clean errors), hangs, panics and races are not.
func TestSessionsRaceCloseAndShutdown(t *testing.T) {
	srv := robustset.NewServer(WithTestLogger(t))
	sets := publishMany(t, srv, 4, 8200)
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	addr := startServer(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, bob := deterministicPair(8600, 120, 4, 2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cs, err := cl.Session(names[(w+i)%len(names)], robustset.Rateless{})
				if err != nil {
					return // client closed mid-load: a clean exit
				}
				if _, _, err := cs.Fetch(ctx, bob); err != nil {
					return // server shut down mid-fetch: also clean
				}
			}
		}(w)
	}
	// Let the load build, then tear both ends down while it runs.
	time.Sleep(50 * time.Millisecond)
	var td sync.WaitGroup
	td.Add(2)
	go func() { defer td.Done(); _ = cl.Close() }()
	go func() {
		defer td.Done()
		shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shCancel()
		_ = srv.Shutdown(shCtx)
	}()
	td.Wait()
	close(stop)
	wg.Wait()

	// The closed client must fail fast, not hang. (Session itself is a
	// pure constructor; the closed state surfaces at Fetch.)
	cs, err := cl.Session(names[0], robustset.Rateless{})
	if err != nil {
		t.Fatalf("Session construction failed: %v", err)
	}
	_, bob := deterministicPair(8600, 120, 4, 2)
	if _, _, err := cs.Fetch(ctx, bob); err == nil {
		t.Fatal("Fetch on a closed client succeeded")
	}
}

// waitGoroutinesSettle polls until the goroutine count drops to at most
// limit, failing after a few seconds. Teardown is asynchronous (conn
// handlers observe closed sockets on their next poll), so a settle loop
// is the honest assertion.
func waitGoroutinesSettle(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizer-driven cleanup
		n := runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, want <= %d\n%s", n, limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestShutdownReleasesGoroutines asserts the satellite-3 audit: a full
// stack — server with a metrics debug listener, a mux client, and a
// replicator with cached per-peer clients — torn down cleanly leaves no
// goroutines behind: Server.Shutdown closes the debug endpoint it owns,
// and Replicator.Close closes its cached clients.
func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	m := robustset.NewMetrics()
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvA := robustset.NewServer(WithTestLogger(t),
		robustset.WithServerMetrics(m), robustset.WithServerMetricsListener(mln))
	setsA := publishMany(t, srvA, 3, 9000)
	srvB := robustset.NewServer(WithTestLogger(t))
	publishMany(t, srvB, 3, 9000) // same names, slightly different content is fine

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srvA.Serve(lnA)
	go srvB.Serve(lnB)

	// Drive real traffic through every component that spawns goroutines.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := robustset.DialClient(ctx, lnA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for name := range setsA {
		cs, err := cl.Session(name, robustset.Rateless{})
		if err != nil {
			t.Fatal(err)
		}
		_, bob := deterministicPair(9300, 120, 4, 2)
		if _, _, err := cs.Fetch(ctx, bob); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := robustset.NewReplicator(srvA,
		[]robustset.Peer{{Name: "b", Addr: lnB.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.RunRound(ctx); err != nil {
		t.Fatal(err)
	}
	// Poll the debug endpoint so the HTTP server holds a keep-alive
	// connection — the leak the audit found.
	httpc := &http.Client{}
	resp, err := httpc.Get("http://" + mln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Tear everything down; every goroutine the stack spawned must exit.
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shCancel()
	if err := srvA.Shutdown(shCtx); err != nil {
		t.Fatal(err)
	}
	if err := srvB.Shutdown(shCtx); err != nil {
		t.Fatal(err)
	}
	httpc.CloseIdleConnections() // release the client half of the keep-alive conn
	waitGoroutinesSettle(t, before)
}

// TestDisabledTracingZeroAllocs pins the cost contract of the tracing
// instrumentation threaded through the serving path: with no trace in
// the context — the default for every session unless WithSessionTrace
// or WithServerTracing is configured — the exact call sequence the hot
// path executes (context lookup, span begin/end with attributes, stat
// and frame accumulation, labeling) must allocate nothing.
func TestDisabledTracingZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := trace.FromContext(ctx)
		sp := tr.Begin("estimate")
		tr.Label("ds", "robust-oneshot", "")
		tr.Stat("rounds", 1)
		tr.Frame(0x01, true, 512)
		sp.End(trace.I("est", 42), trace.I("capacity", 128))
		if got := trace.NewContext(ctx, nil); got != ctx {
			t.Fatal("NewContext with a nil trace must return ctx unchanged")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f times per session-equivalent, want 0", allocs)
	}
}

// TestTracedSessionsConcurrent hammers a tracing-enabled server with
// concurrent traced client sessions over one mux connection — the
// configuration where trace state (ring inserts, registry folds, span
// appends) is written from many goroutines at once. Run under -race in
// CI; every client sink must still receive a complete trace. A scraper
// reads the debug endpoints the whole time: /metrics must lint as
// Prometheus text and /debug/traces must parse while sessions run, not
// only at rest, and the slow ring must hold a trace at the end.
func TestTracedSessionsConcurrent(t *testing.T) {
	tl := robustset.NewTraceLog(robustset.WithByteThreshold(1))
	m := robustset.NewMetrics()
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m),
		robustset.WithServerTracing(tl), robustset.WithServerMetricsListener(mln))
	sets := publishMany(t, srv, 4, 8600)
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	addr := startServer(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stopScrape := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopScrape:
				scraped <- nil
				return
			default:
			}
			if _, err := scrapeDebug(mln.Addr().String()); err != nil {
				scraped <- err
				return
			}
		}
	}()

	const workers, iters = 8, 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	var captured sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, bob := deterministicPair(8600, 120, 4, 2)
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("%d/%d", w, i)
				cs, err := cl.Session(names[(w+i)%len(names)], robustset.Rateless{},
					robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
						captured.Store(key, st)
					}))
				if err != nil {
					errCh <- err
					return
				}
				if _, _, err := cs.Fetch(ctx, bob); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopScrape)
	if err := <-scraped; err != nil {
		t.Fatalf("scrape during traffic: %v", err)
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if slow, err := scrapeDebug(mln.Addr().String()); err != nil || slow == 0 {
		t.Fatalf("after %d sessions /debug/traces holds %d slow traces (err %v)", workers*iters, slow, err)
	}
	got := 0
	captured.Range(func(_, v any) bool {
		snap := v.(*robustset.SessionTrace)
		if snap.TotalBytes() <= 0 || len(snap.Spans) == 0 {
			t.Errorf("captured trace is incomplete: bytes=%d spans=%d", snap.TotalBytes(), len(snap.Spans))
		}
		got++
		return true
	})
	if got != workers*iters {
		t.Fatalf("captured %d traces, want %d", got, workers*iters)
	}
}

// scrapeDebug reads a server's debug listener once: /metrics must lint as
// Prometheus text and /debug/traces must be the trace log's JSON. It
// returns the number of traces in the slow ring.
func scrapeDebug(addr string) (slow int, err error) {
	get := func(path string) ([]byte, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	prom, err := get("/metrics")
	if err != nil {
		return 0, err
	}
	if err := metrics.LintPrometheus(bytes.NewReader(prom)); err != nil {
		return 0, fmt.Errorf("/metrics: %w", err)
	}
	body, err := get("/debug/traces")
	if err != nil {
		return 0, err
	}
	var traces struct {
		Slow []json.RawMessage `json:"slow"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		return 0, fmt.Errorf("/debug/traces: %w", err)
	}
	return len(traces.Slow), nil
}

// benchTracedSession measures one full loopback reconciliation per
// iteration, with and without a client trace sink — the microbenchmark
// beside the ruler's trace.overhead_ratio.
func benchTracedSession(b *testing.B, traced bool) {
	srv := robustset.NewServer()
	defer srv.Close()
	alice, bob := deterministicPair(8600, 120, 4, 2)
	params := robustset.Params{Universe: testU, Seed: 300, DiffBudget: 8}
	if _, err := srv.Publish("ds/0", params, alice); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	var opts []robustset.Option
	if traced {
		opts = append(opts, robustset.WithSessionTrace(func(*robustset.SessionTrace) {}))
	}
	ctx := context.Background()
	cl, err := robustset.DialClient(ctx, ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session("ds/0", robustset.Robust{}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sess.Fetch(ctx, bob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionTraceOff(b *testing.B) { benchTracedSession(b, false) }
func BenchmarkSessionTraceOn(b *testing.B)  { benchTracedSession(b, true) }
