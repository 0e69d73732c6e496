package robustset_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"robustset"
	"robustset/internal/protocol"
)

// ratelessExactPair builds an exact-regime instance: Bob's set plus k
// replaced points on Alice's side.
func ratelessExactPair(n, k int) (alice, bob []robustset.Point) {
	bob, _ = deterministicPair(31, n, 0, 0)
	alice = robustset.ClonePoints(bob)
	for i := 0; i < k; i++ {
		alice[i] = robustset.Point{int64(i)*37 + 5, int64(i)*53 + 9}
	}
	return alice, bob
}

// TestRatelessAgainstServer fetches a server dataset with the Rateless
// strategy and asserts (a) exact convergence and (b) that the rateless
// cell stream actually flowed, by spotting the CELLS frames in the
// session trace.
func TestRatelessAgainstServer(t *testing.T) {
	alice, bob := ratelessExactPair(400, 20)
	params := robustset.Params{Universe: testU, Seed: 11, DiffBudget: 20}

	srv := robustset.NewServer()
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	var snap *robustset.SessionTrace
	sink := robustset.WithSessionTrace(func(st *robustset.SessionTrace) { snap = st })
	res, stats, err := fetchOnce(t, addr.String(), "d", robustset.Rateless{}, bob, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(res.SPrime, alice) {
		t.Error("rateless fetch did not reproduce the dataset")
	}
	if stats.Total() == 0 {
		t.Error("no traffic accounted")
	}
	if snap == nil || snap.Strategy != "rateless" {
		t.Fatalf("session trace %+v, want one of a rateless session", snap)
	}
	var sawCells bool
	for _, f := range snap.Frames {
		if f.Type == "CELLS" {
			sawCells = true
		}
	}
	if !sawCells {
		t.Error("no CELLS frames on the wire; the server served another protocol")
	}
}

// TestExactClientAgainstRatelessServer: a client of the retired
// exact-IBLT strategy — a hello with its code and the one-byte config it
// sent — against a server that serves the dataset rateless is refused as
// an unknown strategy, and the refusal reaches it as the server's
// *RemoteError; a Rateless client of the same dataset converges.
func TestExactClientAgainstRatelessServer(t *testing.T) {
	alice, bob := ratelessExactPair(300, 10)
	params := robustset.Params{Universe: testU, Seed: 23, DiffBudget: 10}
	srv := robustset.NewServer(WithTestLogger(t))
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	st := openStream(t, addr.String())
	hello := protocol.Hello{Strategy: protocol.StrategyExactIBLT, Dataset: "d", Config: []byte{4}}
	_, err := protocol.RunHelloClient(context.Background(), st, hello)
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Reason, "unknown strategy") {
		t.Fatalf("exact-IBLT hello: %v, want the server's unknown-strategy *RemoteError", err)
	}
	res, _, err := fetchOnce(t, addr.String(), "d", robustset.Rateless{}, bob)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(res.SPrime, alice) {
		t.Error("rateless client did not converge")
	}
}

// TestRatelessServedFromStateLeavesNothing: over real TCP, the first
// rateless session builds the dataset's state and every later one is
// answered from it while the dataset churns between them — 100 fetches,
// each exactly the server's multiset, one cold session on the counter,
// served_state on every trace — and nothing a session starts outlives
// it: the goroutine count afterwards is the count before.
func TestRatelessServedFromStateLeavesNothing(t *testing.T) {
	alice, bob := ratelessExactPair(2000, 20)
	params := robustset.Params{Universe: testU, Seed: 29, DiffBudget: 20}
	m := robustset.NewMetrics()
	tl := robustset.NewTraceLog(robustset.WithTraceCapacity(128))
	srv := robustset.NewServer(robustset.WithServerMetrics(m), robustset.WithServerTracing(tl))
	d, err := srv.Publish("d", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session("d", robustset.Rateless{})
	if err != nil {
		t.Fatal(err)
	}
	local := bob
	fetch := func(i int) {
		t.Helper()
		res, _, err := sess.Fetch(ctx, local)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if local = res.SPrime; !robustset.EqualMultisets(local, d.Snapshot()) {
			t.Fatalf("fetch %d: result differs from the server's multiset", i)
		}
	}
	fetch(0) // builds the state
	waitGoroutinesSettle(t, runtime.NumGoroutine())
	before := runtime.NumGoroutine()
	const fetches = 100
	for i := 1; i <= fetches; i++ {
		batch := []robustset.Point{{int64(i), 7}, {int64(i), 7}, {int64(3 * i), int64(i)}}
		if err := errors.Join(d.AddBatch(batch), d.Remove(alice[i])); err != nil {
			t.Fatal(err)
		}
		fetch(i)
	}
	waitGoroutinesSettle(t, before)
	if got := m.Snapshot()["server_sessions_cold_total"]; got != 1 {
		t.Errorf("server_sessions_cold_total = %d, want 1: only the first session reads the points", got)
	}
	recent := tl.Recent()
	if len(recent) != fetches+1 {
		t.Fatalf("%d server traces, want %d", len(recent), fetches+1)
	}
	for i, tr := range recent {
		want := int64(1)
		if i == 0 {
			want = 0
		}
		if got, ok := tr.Stat("served_state"); !ok || got != want {
			t.Fatalf("trace %d: served_state = %d (recorded %v), want %d", i, got, ok, want)
		}
	}
}
