package robustset_test

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
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

// TestExactClientAgainstRatelessServer: a client of a retired strategy —
// exact-IBLT's hello with the one-byte config it sent, CPI's with its
// four-byte capacity, or the range-based strategy's with its three-byte
// branch and item limit — against a server
// that serves the dataset rateless is refused as an unknown strategy, and
// the refusal reaches it as the server's *RemoteError; a Rateless client
// of the same dataset converges afterwards.
func TestExactClientAgainstRatelessServer(t *testing.T) {
	alice, bob := ratelessExactPair(300, 10)
	params := robustset.Params{Universe: testU, Seed: 23, DiffBudget: 10}
	srv := robustset.NewServer(WithTestLogger(t))
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	for _, hello := range []protocol.Hello{
		{Strategy: protocol.StrategyExactIBLT, Dataset: "d", Config: []byte{4}},
		{Strategy: protocol.StrategyCPI, Dataset: "d", Config: []byte{40, 0, 0, 0}},
		{Strategy: protocol.StrategyRangeBased, Dataset: "d", Config: []byte{8, 16, 0}},
	} {
		st := openStream(t, addr.String())
		_, err := protocol.RunHelloClient(context.Background(), st, hello)
		var remote *protocol.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Reason, "unknown strategy") {
			t.Fatalf("hello with retired code %d: %v, want the server's unknown-strategy *RemoteError", hello.Strategy, err)
		}
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

// ratelessClient dials addr and opens a traced rateless session of
// dataset "d"; *last is each fetch's client trace.
func ratelessClient(t *testing.T, ctx context.Context, addr string, last **robustset.SessionTrace) (*robustset.Client, *robustset.ClientSession) {
	t.Helper()
	cl, err := robustset.DialClient(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	sess, err := cl.Session("d", robustset.Rateless{},
		robustset.WithSessionTrace(func(st *robustset.SessionTrace) { *last = st }))
	if err != nil {
		t.Fatal(err)
	}
	return cl, sess
}

// frameRows sums a trace's wire table: messages per frame type, and the
// bytes and messages per direction.
func frameRows(snap *robustset.SessionTrace) (msgs map[string]int64, st robustset.TransferStats) {
	msgs = map[string]int64{}
	for _, f := range snap.Frames {
		msgs[f.Type] += f.Msgs
		if f.Dir == "in" {
			st.BytesRecv, st.MsgsRecv = st.BytesRecv+f.Bytes, st.MsgsRecv+f.Msgs
		} else {
			st.BytesSent, st.MsgsSent = st.BytesSent+f.Bytes, st.MsgsSent+f.Msgs
		}
	}
	return msgs, st
}

// foreignFrames counts a rateless session trace's frames of any type but
// its own — the connection's and the session's hello and accept, cells,
// requests, done: no estimator crosses, cold or warm.
func foreignFrames(snap *robustset.SessionTrace) (n int64) {
	for _, f := range snap.Frames {
		switch f.Type {
		case "MUX_HELLO", "MUX_ACCEPT", "HELLO", "ACCEPT", "CELLS", "CELLS_REQUEST", "DONE":
		default:
			n += f.Msgs
		}
	}
	return n
}

// spanCount counts a trace's spans of one name.
func spanCount(snap *robustset.SessionTrace, name string) int {
	n := 0
	for _, sp := range snap.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// TestRatelessWarmOpening follows one Client's rateless fetches of a
// churning dataset. The first opens cold: the head, then cells. The
// second opens warm from the 40 keys the first decoded: no request before
// the first CELLS, one cells round for a 5-key
// difference, estimated_diff the hint, a wire table that sums exactly to
// the transport's count, the explain line, and a server trace answered
// from the maintained state with no cold session counted. A failed fetch
// makes the next one cold, and so does a hint whose first block would be
// above 512 cells. No fetch, cold or warm, carries a STRATA frame or span.
func TestRatelessWarmOpening(t *testing.T) {
	alice, bob := ratelessExactPair(2000, 20)
	params := robustset.Params{Universe: testU, Seed: 37, DiffBudget: 20}
	m := robustset.NewMetrics()
	tl := robustset.NewTraceLog()
	srv := robustset.NewServer(robustset.WithServerMetrics(m), robustset.WithServerTracing(tl))
	d, err := srv.Publish("d", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var snap *robustset.SessionTrace
	_, sess := ratelessClient(t, ctx, addr.String(), &snap)
	fetch := func(local []robustset.Point) (*robustset.SyncResult, robustset.TransferStats) {
		t.Helper()
		res, st, err := sess.Fetch(ctx, local)
		if err != nil {
			t.Fatal(err)
		}
		if !robustset.EqualMultisets(res.SPrime, d.Snapshot()) {
			t.Fatal("fetch differs from the server's multiset")
		}
		return res, st
	}
	warm := func(what string, want bool) {
		t.Helper()
		w, _ := snap.Stat("warm")
		if foreign := foreignFrames(snap) + int64(spanCount(snap, "strata")); (w == 1) != want || foreign != 0 {
			t.Fatalf("%s: warm=%d, %d frames or spans of an estimator; want warm %v and none", what, w, foreign, want)
		}
	}

	res, _ := fetch(bob)
	warm("first fetch", false)

	if err := errors.Join(d.AddBatch([]robustset.Point{{1, 2}, {3, 4}, {1, 2}}), d.RemoveBatch(alice[100:102])); err != nil {
		t.Fatal(err)
	}
	res, st := fetch(res.SPrime)
	warm("second fetch", true)
	msgs, rows := frameRows(snap)
	if est, _ := snap.Stat("estimated_diff"); est != 40 || msgs["CELLS_REQUEST"] != 0 || spanCount(snap, "cells_round") != 1 {
		t.Errorf("warm fetch: estimated_diff %d, %d CELLS_REQUEST frames, %d cells rounds; want 40, 0, 1",
			est, msgs["CELLS_REQUEST"], spanCount(snap, "cells_round"))
	}
	if rows != st || snap.BytesIn != st.BytesRecv || snap.BytesOut != st.BytesSent {
		t.Errorf("warm fetch: frame rows sum to %+v, the transport counted %+v", rows, st)
	}
	var out strings.Builder
	snap.Format(&out)
	if line := "warm opening: first block sized from the last difference (40 keys), no head"; !strings.Contains(out.String(), line) {
		t.Errorf("explain output lacks %q:\n%s", line, out.String())
	}
	// The server files a session's trace after it closes the stream the
	// fetch waits for: wait for the second trace to land.
	var server *robustset.SessionTrace
	for deadline := time.Now().Add(10 * time.Second); server == nil; runtime.Gosched() {
		if recent := tl.Recent(); len(recent) == 2 {
			server = recent[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("%d server traces after two fetches", len(recent))
		}
	}
	if w, _ := server.Stat("warm"); w != 1 {
		t.Errorf("server trace of the warm session: warm=%d", w)
	}
	if served, _ := server.Stat("served_state"); served != 1 {
		t.Errorf("server trace of the warm session: served_state=%d", served)
	}
	if got := m.Snapshot()["server_sessions_cold_total"]; got != 1 {
		t.Errorf("server_sessions_cold_total = %d after a cold and a warm fetch, want 1", got)
	}

	// A failed fetch forgets the hint.
	if _, _, err := sess.Fetch(ctx, []robustset.Point{{-1, 0}}); err == nil {
		t.Fatal("a fetch of a point outside the universe succeeded")
	}
	res, _ = fetch(res.SPrime)
	warm("fetch after a failed one", false)

	// 200 replaced points: a 400-key difference, decoded warm from a hint
	// of 0; the next first block would be 568 cells, so it opens cold.
	local := robustset.ClonePoints(res.SPrime)
	for i := range 200 {
		local[i] = robustset.Point{int64(i)*41 + 7, int64(i)*43 + 11}
	}
	res, _ = fetch(local)
	warm("fetch after a clean one", true)
	fetch(res.SPrime)
	warm("fetch after a 400-key difference", false)
}

// TestRatelessWarmZeroDiff: a fetch whose set is unchanged, opened warm
// from a 360-key hint — the largest that opens warm, a 511-cell first
// block — is one CELLS block that no request preceded, and a cold fetch
// of it, the 32-cell head alone, moves under 1 KB.
func TestRatelessWarmZeroDiff(t *testing.T) {
	alice, bob := ratelessExactPair(20000, 180)
	srv := robustset.NewServer()
	if _, err := srv.Publish("d", robustset.Params{Universe: testU, Seed: 41, DiffBudget: 20}, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var snap *robustset.SessionTrace
	_, sess := ratelessClient(t, ctx, addr.String(), &snap)
	if _, _, err := sess.Fetch(ctx, bob); err != nil {
		t.Fatal(err)
	}
	if est, _ := snap.Stat("actual_diff"); est != 360 {
		t.Fatalf("first fetch decoded %d keys, want 360", est)
	}
	_, warm, err := sess.Fetch(ctx, alice)
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := snap.Stat("warm"); w != 1 {
		t.Fatal("the fetch after a 360-key difference opened cold")
	}
	if msgs, _ := frameRows(snap); msgs["CELLS"] != 1 || msgs["CELLS_REQUEST"] != 0 {
		t.Errorf("warm fetch of an unchanged set: %d CELLS, %d CELLS_REQUEST frames; want 1, 0", msgs["CELLS"], msgs["CELLS_REQUEST"])
	}
	_, coldSess := ratelessClient(t, ctx, addr.String(), &snap)
	_, cold, err := coldSess.Fetch(ctx, alice)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("no difference: warm from a 360-key hint %d B, cold %d B", warm.Total(), cold.Total())
	if msgs, _ := frameRows(snap); msgs["CELLS"] != 1 || msgs["CELLS_REQUEST"] != 0 {
		t.Errorf("cold fetch of an unchanged set: %d CELLS, %d CELLS_REQUEST frames; want the head alone", msgs["CELLS"], msgs["CELLS_REQUEST"])
	}
	if cold.Total() >= 1000 {
		t.Errorf("cold fetch of an unchanged set moved %d bytes, not under 1 KB", cold.Total())
	}
}

// TestRatelessConcurrentWarmFetches runs fetches of one dataset
// concurrently on one ClientSession, so hints are read and written from
// many goroutines at once (run it under -race); every fetch converges.
// Then fetches that could all subtract the cells kept of the dataset run
// at once: a fetch takes the kept cells out of the Client's hint and puts
// its own back, so one fetch at a time holds any kept state (under -race,
// two writing one would be a race) and the others key their points; every
// result is the dataset's multiset.
func TestRatelessConcurrentWarmFetches(t *testing.T) {
	alice, bob := ratelessExactPair(1000, 10)
	srv := robustset.NewServer()
	if _, err := srv.Publish("d", robustset.Params{Universe: testU, Seed: 43, DiffBudget: 20}, alice); err != nil {
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
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 {
				local := bob
				if (g+i)%2 == 1 {
					local = alice
				}
				res, _, err := sess.Fetch(ctx, local)
				if err == nil && !robustset.EqualMultisets(res.SPrime, alice) {
					err = errors.New("fetch did not converge")
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var mu sync.Mutex
	var snaps []*robustset.SessionTrace
	traced, err := cl.Session("d", robustset.Rateless{}, robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
		mu.Lock()
		snaps = append(snaps, st)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := traced.Fetch(ctx, bob)
	if err != nil {
		t.Fatal(err)
	}
	errs = make(chan error, 32)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				got, _, err := traced.Fetch(ctx, res.SPrime)
				if err == nil && !robustset.EqualMultisets(got.SPrime, alice) {
					err = errors.New("fetch did not converge")
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var held []*robustset.SessionTrace
	for _, st := range snaps[1:] {
		if n, _ := st.Stat("kept_cells"); n > 0 {
			held = append(held, st)
		}
	}
	if len(held) == 0 {
		t.Fatal("no concurrent fetch subtracted the kept cells")
	}
	t.Logf("%d of %d concurrent fetches subtracted kept cells, the others keyed their points", len(held), len(snaps)-1)
}

// TestRatelessWarmHelloRefused: a hello whose warm first request is above
// the bound a MORE is held to is accepted as a hello, then refused by the
// rateless session before it opens: the client gets the server's
// *RemoteError, and the dataset builds no state (no cold session).
func TestRatelessWarmHelloRefused(t *testing.T) {
	alice, bob := ratelessExactPair(300, 10)
	params := robustset.Params{Universe: testU, Seed: 47, DiffBudget: 10}
	m := robustset.NewMetrics()
	srv := robustset.NewServer(robustset.WithServerMetrics(m), WithTestLogger(t))
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const first = 1<<20 + 1
	st := openStream(t, addr.String())
	hello := protocol.Hello{Strategy: protocol.StrategyRateless, Dataset: "d", Config: binary.LittleEndian.AppendUint32(nil, first)}
	p, err := protocol.RunHelloClient(ctx, st, hello)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.RatelessConfig{Universe: p.Universe, Seed: p.Seed, First: first}
	_, err = protocol.RunRatelessBob(ctx, st, cfg, bob)
	var remote *protocol.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Reason, "outside") {
		t.Fatalf("warm hello asking for %d cells: %v, want the server's *RemoteError", first, err)
	}
	if got := m.Snapshot()["server_sessions_cold_total"]; got != 0 {
		t.Errorf("server_sessions_cold_total = %d: the refused session built the dataset's state", got)
	}
}

// TestReplicatorWarmDivergedShard: three nodes publish one sharded
// dataset; between rounds one shard gains a point on both peers of the
// replicating node. From the second diverged round on, that shard's
// rateless session against the first peer opens warm (warm=1), and its
// session against the second, which the first already repaired, ends at
// the handshake cold; no session carries a frame of an estimator — STRATA
// or any other not a rateless session's own — and every round it leaves
// the shard holding what a cold client's fetch returns; every other
// shard, never diverged, opens no session: each peer's roots exchange
// settles it, with a hello of the same bytes every round.
func TestReplicatorWarmDivergedShard(t *testing.T) {
	const shards, rounds = 4, 5
	params := robustset.Params{Universe: testU, Seed: 101, DiffBudget: 16}
	common, _ := clusterWorkload(1, 400, 0)
	var nodes []*clusterNode
	for range 3 {
		nodes = append(nodes, startClusterNode(t, params, common, shards))
	}
	tl := robustset.NewTraceLog(robustset.WithTraceCapacity(64))
	rep, err := robustset.NewReplicator(nodes[0].srv, []robustset.Peer{
		{Name: "b", Addr: nodes[1].addr}, {Name: "c", Addr: nodes[2].addr},
	}, robustset.WithPeerSelector(robustset.SelectRoundRobin(2)), robustset.WithReplicatorTracing(tl))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	local := nodes[0].srv.ShardedDataset("data")
	diverged := local.Shards()[0].Name()
	// A cold-only client of the first peer: it forgets its hints before
	// every fetch.
	cold, err := robustset.DialClient(ctx, nodes[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldSess, err := cold.Session(diverged, robustset.Rateless{})
	if err != nil {
		t.Fatal(err)
	}
	hellos := map[string]int64{}
	for round := 0; round < rounds; round++ {
		var want *robustset.SyncResult
		if round > 0 {
			// A fresh point that routes to the diverged shard, on both peers.
			for x := int64(0); ; x++ {
				pt := robustset.Point{20_000 + 97*int64(round) + x, 333}
				if local.Shard(pt).Name() != diverged {
					continue
				}
				for _, n := range nodes[1:] {
					if err := n.srv.ShardedDataset("data").Add(pt); err != nil {
						t.Fatal(err)
					}
				}
				break
			}
			robustset.ForgetHints(cold, diverged)
			if want, _, err = coldSess.Fetch(ctx, local.Shards()[0].Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
		st, err := rep.RunRound(ctx)
		if err != nil || st.Errors != 0 {
			t.Fatalf("round %d: %+v, %v", round, st, err)
		}
		if want != nil && !robustset.EqualMultisets(local.Shards()[0].Snapshot(), want.SPrime) {
			t.Errorf("round %d: the replicator left the shard other than a cold client's result", round)
		}
		recent := tl.Recent()
		for _, s := range recent[len(recent)-1].Children {
			warm, _ := s.Stat("warm")
			hello := int64(0)
			for _, f := range s.Frames {
				if f.Type == "HELLO" {
					hello += f.Bytes
				}
			}
			if foreign := foreignFrames(s); foreign != 0 {
				t.Errorf("round %d: %s/%s carried %d frames of an estimator", round, s.Dataset, s.Peer, foreign)
			}
			unchanged, _ := s.Stat("unchanged")
			switch {
			case s.Dataset == diverged && s.Peer == "b" && round > 0:
				if wantWarm := round >= 2; (warm == 1) != wantWarm {
					t.Errorf("round %d: diverged shard's session warm=%d, want warm %v", round, warm, wantWarm)
				}
			case s.Dataset == diverged && s.Peer == "c" && round > 0:
				if unchanged != 1 || warm != 0 {
					t.Errorf("round %d: %s/%s: unchanged %d, warm %d; want a cold session that ends at the handshake", round, s.Dataset, s.Peer, unchanged, warm)
				}
			case s.Dataset == "data":
				// The roots exchange: "same" while nothing diverged.
				if wantSame := round == 0; (unchanged == 1) != wantSame || warm != 0 {
					t.Errorf("round %d: roots exchange with %s: unchanged %d, warm %d", round, s.Peer, unchanged, warm)
				}
				if first, ok := hellos[s.Peer]; ok && first != hello {
					t.Errorf("round %d: roots hello to %s of %d B, %d B in round 0", round, s.Peer, hello, first)
				}
				hellos[s.Peer] = hello
			default:
				t.Errorf("round %d: %s/%s opened a session; only the diverged shard's may", round, s.Dataset, s.Peer)
			}
		}
		if want := 2 + 2*min(round, 1); len(recent[len(recent)-1].Children) != want {
			t.Errorf("round %d: %d traced children, want %d", round, len(recent[len(recent)-1].Children), want)
		}
	}
	if len(hellos) != 2 {
		t.Errorf("roots exchanges with %d peers traced, want 2", len(hellos))
	}
}
