package robustset_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"robustset"
)

// handshakeOnly reports whether a traced session carried nothing but its
// hello and its accept, one of each.
func handshakeOnly(s *robustset.SessionTrace) bool {
	if len(s.Frames) != 2 {
		return false
	}
	for _, f := range s.Frames {
		if (f.Type != "HELLO" && f.Type != "ACCEPT") || f.Msgs != 1 {
			return false
		}
	}
	return true
}

// tracedReplicator is a traced replicator on a that pulls from b.
func tracedReplicator(t *testing.T, a, b *clusterNode, opts ...robustset.ReplicatorOption) (*robustset.Replicator, *robustset.TraceLog) {
	t.Helper()
	tl := robustset.NewTraceLog()
	opts = append([]robustset.ReplicatorOption{
		robustset.WithReplicatorTracing(tl), robustset.WithReplicatorWorkers(2),
		robustset.WithRoundTimeout(time.Minute), robustset.WithReplicatorLogger(t.Logf),
	}, opts...)
	rep, err := robustset.NewReplicator(a.srv, []robustset.Peer{{Name: "b", Addr: b.addr}}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close(); locals.Delete(rep) })
	locals.Store(rep, a)
	return rep, tl
}

// locals maps each traced replicator to the node it runs on, so that
// roundOf checks that node's routing after every round.
var locals sync.Map

// checkRouting fails t unless every point of every shard of n's sharded
// dataset "data" is one that ShardedDataset.Shard routes to that shard.
func checkRouting(t *testing.T, n *clusterNode) {
	t.Helper()
	sd := n.srv.ShardedDataset("data")
	if sd == nil {
		return
	}
	for _, d := range sd.Shards() {
		for _, p := range d.Snapshot() {
			if owner := sd.Shard(p); owner != d {
				t.Fatalf("point %v sits in shard %s, but routes to %s", p, d.Name(), owner.Name())
			}
		}
	}
}

// roundOf runs rounds of rep and reports, beside each round's stats, its
// trace and the streams the peer, whose registry m is, accepted during it.
// After every round it checks the local node's shard routing.
func roundOf(t *testing.T, rep *robustset.Replicator, tl *robustset.TraceLog, m *robustset.Metrics) func() (robustset.RoundStats, *robustset.SessionTrace, int64) {
	return func() (robustset.RoundStats, *robustset.SessionTrace, int64) {
		t.Helper()
		before := m.Snapshot()["server_mux_streams_total"]
		st, err := rep.RunRound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := locals.Load(rep); ok {
			checkRouting(t, a.(*clusterNode))
		}
		recent := tl.Recent()
		return st, recent[len(recent)-1], m.Snapshot()["server_mux_streams_total"] - before
	}
}

// quietRound requires a round over a converged sharded pair to be one
// roots exchange: Converged with every shard counted as a session, under
// 200 wire bytes, one stream, and one traced child — the exchange of the
// sharded dataset data — carrying one hello and one accept that says
// "same".
func quietRound(t *testing.T, label string, shards int, round func() (robustset.RoundStats, *robustset.SessionTrace, int64)) {
	t.Helper()
	st, tr, opened := round()
	if !st.Converged || st.Sessions != shards || st.Errors != 0 || st.Added != 0 || st.Removed != 0 {
		t.Fatalf("%s: round %+v, want converged with %d sessions", label, st, shards)
	}
	if st.Bytes >= 200 || opened != 1 {
		t.Errorf("%s: %d wire bytes over %d streams, want one stream and < 200 B", label, st.Bytes, opened)
	}
	if len(tr.Children) != 1 {
		t.Fatalf("%s: %d traced children, want the roots exchange alone", label, len(tr.Children))
	}
	c := tr.Children[0]
	if c.Dataset != "data" || !handshakeOnly(c) {
		t.Errorf("%s: child %s carried %+v, want the roots exchange: one HELLO and one ACCEPT", label, c.Dataset, c.Frames)
	}
	if v, ok := c.Stat("unchanged"); !ok || v != 1 {
		t.Errorf("%s: the roots exchange lacks the unchanged stat", label)
	}
}

// TestReplicatorConvergedRoundStopsAtHandshake is the end-to-end
// statement of a converged round: a round over a converged sharded pair
// is one roots exchange (see quietRound) that counts every shard as a
// session; one point added on the peer runs the exchange and exactly one
// full session, for the point's shard, and opens no other stream; the
// nodes are then equal, and the round after that is one exchange again.
func TestReplicatorConvergedRoundStopsAtHandshake(t *testing.T) {
	const shards = 8
	params := robustset.Params{Universe: testU, Seed: 21, DiffBudget: 16}
	common, _ := clusterWorkload(1, 1600, 0)
	// The Replicator runs Rateless; the subtest keeps its strategy name.
	t.Run(robustset.Rateless{}.Name(), func(t *testing.T) {
		m := robustset.NewMetrics()
		a := startClusterNode(t, params, common, shards)
		b := startClusterNode(t, params, common, shards, robustset.WithServerMetrics(m))
		rep, tl := tracedReplicator(t, a, b)
		round := roundOf(t, rep, tl, m)
		// The first round also dials the peer; its MUX1 negotiation is
		// charged to the exchange.
		if st, _, _ := round(); !st.Converged || st.Sessions != shards {
			t.Fatalf("dialing round %+v, want converged with %d sessions", st, shards)
		}
		quietRound(t, "second round", shards, round)
		if got := m.Snapshot()["server_sessions_unchanged_total"]; got != 2 {
			t.Errorf("server_sessions_unchanged_total = %d after two converged rounds, want 2", got)
		}

		extra := robustset.Point{60_000, 60_001}
		if err := b.srv.ShardedDataset("data").Add(extra); err != nil {
			t.Fatal(err)
		}
		owner := b.srv.ShardedDataset("data").Shard(extra).Name()
		st, tr, opened := round()
		if st.Added != 1 || st.Converged || st.Sessions != shards || st.Errors != 0 {
			t.Fatalf("diverged round %+v, want one point added over %d sessions", st, shards)
		}
		if opened != 2 || len(tr.Children) != 2 {
			t.Fatalf("diverged round: %d streams, %d traced children; want the exchange and one session", opened, len(tr.Children))
		}
		if ex := tr.Children[0]; ex.Dataset != "data" || !handshakeOnly(ex) {
			t.Errorf("first child %s carried %+v, want the roots exchange", ex.Dataset, ex.Frames)
		} else if v, _ := ex.Stat("unchanged"); v != 0 {
			t.Error("the roots exchange of a diverged pair says unchanged")
		}
		if s := tr.Children[1]; s.Dataset != owner || handshakeOnly(s) {
			t.Errorf("second child %s carried %+v, want the full session of %s", s.Dataset, s.Frames, owner)
		}
		if !robustset.EqualMultisets(a.snapshot(), b.snapshot()) {
			t.Fatal("the nodes differ after the diverged round")
		}
		quietRound(t, "round after the repair", shards, round)
	})
}

// TestReplicatorRootsFallback: a peer that cannot settle a sharded
// dataset by its roots — it shards it under another count or seed, or
// publishes the shards without the base name — reconciles none of its
// shards: the round opens the one exchange stream, counts every shard as
// skipped, adds nothing and leaves the local multiset as it was. A shard
// session against such a peer would add points to shards that do not own
// them, which roundOf's routing check catches.
func TestReplicatorRootsFallback(t *testing.T) {
	const shards = 4
	params := robustset.Params{Universe: testU, Seed: 31, DiffBudget: 16}
	common, extras := clusterWorkload(1, 400, 1)
	reseeded := params
	reseeded.Seed++
	for _, tc := range []struct {
		name string
		peer func(t *testing.T, m *robustset.Metrics, a *clusterNode) *clusterNode
	}{
		{"other-K", func(t *testing.T, m *robustset.Metrics, _ *clusterNode) *clusterNode {
			return startClusterNode(t, params, common, 2*shards, robustset.WithServerMetrics(m))
		}},
		{"other-seed", func(t *testing.T, m *robustset.Metrics, _ *clusterNode) *clusterNode {
			return startClusterNode(t, reseeded, common, shards, robustset.WithServerMetrics(m))
		}},
		{"no-base-name", func(t *testing.T, m *robustset.Metrics, a *clusterNode) *clusterNode {
			// The peer publishes the local shards' contents under the shard
			// names as plain datasets, one of them with an extra point.
			srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m))
			for i, d := range a.srv.ShardedDataset("data").Shards() {
				pts := d.Snapshot()
				if i == 0 {
					pts = append(pts, extras[0]...)
				}
				if _, err := srv.Publish(d.Name(), params, pts); err != nil {
					t.Fatal(err)
				}
			}
			return &clusterNode{srv: srv, addr: startServer(t, srv).String()}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := robustset.NewMetrics()
			a := startClusterNode(t, params, common, shards)
			rep, tl := tracedReplicator(t, a, tc.peer(t, m, a))
			round := roundOf(t, rep, tl, m)
			for i := range 2 {
				st, tr, opened := round()
				if st.Sessions != shards || st.Skipped != shards || st.Added != 0 || st.Errors != 0 || st.Converged {
					t.Fatalf("round %d: %+v, want %d skipped sessions and nothing added", i, st, shards)
				}
				if opened != 1 || len(tr.Children) != 1 {
					t.Errorf("round %d: %d streams, %d traced children; want the exchange alone", i, opened, len(tr.Children))
				}
				if !robustset.EqualMultisets(a.snapshot(), common) {
					t.Fatalf("round %d: the local multiset changed", i)
				}
			}
		})
	}
}

// TestReplicatorRootsCatalog: two sharded datasets and a plain one on
// each node, reconciled by two workers. One point the peer holds in each
// dataset costs the two roots exchanges, one session for each sharded
// dataset's owner shard and the plain dataset's session; the next round
// is the two exchanges and the plain dataset's handshake.
func TestReplicatorRootsCatalog(t *testing.T) {
	const shards = 4
	params := robustset.Params{Universe: testU, Seed: 47, DiffBudget: 16}
	common, extras := clusterWorkload(1, 300, 3)
	node := func(extra bool, opts ...robustset.ServerOption) *clusterNode {
		srv := robustset.NewServer(append([]robustset.ServerOption{WithTestLogger(t)}, opts...)...)
		for i, name := range []string{"a", "b", "c"} {
			pts := robustset.ClonePoints(common)
			if extra {
				pts = append(pts, extras[0][i])
			}
			var err error
			if name == "c" {
				_, err = srv.Publish(name, params, pts)
			} else {
				_, err = srv.PublishSharded(name, params, pts, shards)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return &clusterNode{srv: srv, addr: startServer(t, srv).String()}
	}
	m := robustset.NewMetrics()
	a, b := node(false), node(true, robustset.WithServerMetrics(m))
	rep, tl := tracedReplicator(t, a, b)
	round := roundOf(t, rep, tl, m)
	if st, _, opened := round(); st.Added != 3 || st.Sessions != 2*shards+1 || st.Errors != 0 || opened != 5 {
		t.Fatalf("diverged round %+v over %d streams, want 3 points over 5 streams", st, opened)
	}
	if !robustset.EqualMultisets(a.snapshot(), b.snapshot()) {
		t.Fatal("the nodes differ")
	}
	if st, _, opened := round(); !st.Converged || st.Sessions != 2*shards+1 || opened != 3 {
		t.Fatalf("quiet round %+v over %d streams, want converged over 3", st, opened)
	}
}

// TestReplicatorRootsMirror: a mirror follower of a sharded upstream
// makes its shards the upstream's, removals included, and then settles
// them all by one roots exchange a round.
func TestReplicatorRootsMirror(t *testing.T) {
	const shards = 4
	params := robustset.Params{Universe: testU, Seed: 41, DiffBudget: 16}
	common, extras := clusterWorkload(2, 300, 7)
	m := robustset.NewMetrics()
	follower := startClusterNode(t, params, append(robustset.ClonePoints(common), extras[1]...), shards)
	upstream := startClusterNode(t, params, append(robustset.ClonePoints(common), extras[0]...), shards, robustset.WithServerMetrics(m))
	rep, tl := tracedReplicator(t, follower, upstream, robustset.WithMirror())
	round := roundOf(t, rep, tl, m)
	st, _, _ := round()
	if st.Added != len(extras[0]) || st.Removed != len(extras[1]) || st.Converged || st.Sessions != shards {
		t.Fatalf("mirroring round %+v, want +%d/-%d over %d sessions", st, len(extras[0]), len(extras[1]), shards)
	}
	if !robustset.EqualMultisets(follower.snapshot(), upstream.snapshot()) {
		t.Fatal("the follower does not mirror the upstream")
	}
	quietRound(t, "caught-up round", shards, round)
}

// TestReplicatorRootsLocalMutation mutates a local shard between the
// roots read for the hello and their comparison with the peer's answer:
// a shard that changed since is not settled by a "same" read before the
// change, so no round reports Converged while the nodes differ, and the
// round repairs what the mutation took.
func TestReplicatorRootsLocalMutation(t *testing.T) {
	const shards = 4
	params := robustset.Params{Universe: testU, Seed: 43, DiffBudget: 16}
	common, _ := clusterWorkload(1, 400, 0)
	for _, tc := range []struct {
		name       string
		peerExtra  bool // the peer holds one more point than the local node
		localAdded bool // the hook adds that point locally instead of removing one
		added      int
	}{
		{name: "same-then-remove", added: 1},
		{name: "differ-then-remove", peerExtra: true, added: 2},
		{name: "differ-then-catch-up", peerExtra: true, localAdded: true, added: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := robustset.NewMetrics()
			a := startClusterNode(t, params, common, shards)
			b := startClusterNode(t, params, common, shards, robustset.WithServerMetrics(m))
			rep, tl := tracedReplicator(t, a, b)
			round := roundOf(t, rep, tl, m)
			round() // dials the peer
			quietRound(t, "before", shards, round)
			local := a.srv.ShardedDataset("data")
			extra := robustset.Point{61_000, 61_001}
			if tc.peerExtra {
				if err := b.srv.ShardedDataset("data").Add(extra); err != nil {
					t.Fatal(err)
				}
			}
			// Removed, the local point of another shard than the extra's.
			var victim robustset.Point
			for _, p := range common {
				if local.Shard(p) != local.Shard(extra) {
					victim = p
					break
				}
			}
			once := false
			defer robustset.SetRootsHook(func() {
				if once {
					return
				}
				once = true
				var err error
				if tc.localAdded {
					err = local.Add(extra)
				} else {
					err = local.Remove(victim)
				}
				if err != nil {
					t.Error(err)
				}
			})()
			st, _, _ := round()
			equal := robustset.EqualMultisets(a.snapshot(), b.snapshot())
			if st.Converged && !equal {
				t.Fatalf("round %+v reported Converged while the nodes differ", st)
			}
			if !equal || st.Added != tc.added || st.Errors != 0 || st.Sessions != shards {
				t.Fatalf("round %+v (nodes equal %v), want %d points added and the nodes equal", st, equal, tc.added)
			}
			quietRound(t, "after", shards, round)
		})
	}
}

// TestFetchDatasetAllStrategies: against a server that holds what the
// local dataset holds, FetchDataset returns Unchanged for every strategy
// at the price of a handshake and counts as an unchanged session on the
// server; against one that differs it returns what Fetch over a snapshot
// returns; and a local dataset under another Params.Seed — another
// fingerprint space — never matches and takes the full path.
func TestFetchDatasetAllStrategies(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 5, DiffBudget: 24}
	common, extras := clusterWorkload(1, 300, 6)
	remote := append(robustset.ClonePoints(common), extras[0]...)

	m := robustset.NewMetrics()
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m))
	if _, err := srv.Publish("d", params, remote); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	// The local side's datasets live on a server of their own that never
	// listens: a Dataset is only ever made by publishing.
	mine := robustset.NewServer()
	defer mine.Close()
	same, err := mine.Publish("same", params, remote)
	if err != nil {
		t.Fatal(err)
	}
	behind, err := mine.Publish("behind", params, common)
	if err != nil {
		t.Fatal(err)
	}
	reseeded := params
	reseeded.Seed++
	otherSeed, err := mine.Publish("other-seed", reseeded, remote)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	strategies := robustset.Strategies()
	for i, strat := range strategies {
		name := fmt.Sprintf("%s/%d", strat.Name(), i)
		var traced []*robustset.SessionTrace
		cs, err := cl.Session("d", strat, robustset.WithSessionTrace(func(s *robustset.SessionTrace) { traced = append(traced, s) }))
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := cs.FetchDataset(ctx, same)
		if err != nil {
			t.Fatalf("%s: converged FetchDataset: %v", name, err)
		}
		if !res.Unchanged || res.SPrime != nil || res.Robust != nil {
			t.Errorf("%s: converged FetchDataset returned %+v, want Unchanged and nothing copied", name, res)
		}
		if res.Params.Seed != params.Seed || res.Params.Universe != params.Universe {
			t.Errorf("%s: unchanged result carries params %+v", name, res.Params)
		}
		if st.MsgsSent != 1 || st.MsgsRecv != 1 || st.Total() > 256 {
			t.Errorf("%s: converged FetchDataset moved %+v, want one message each way", name, st)
		}
		if len(traced) != 1 || !handshakeOnly(traced[0]) {
			t.Errorf("%s: converged FetchDataset traced %+v", name, traced)
		} else if v, ok := traced[0].Stat("unchanged"); !ok || v != 1 {
			t.Errorf("%s: client trace lacks the unchanged stat", name)
		}

		for _, local := range []*robustset.Dataset{behind, otherSeed} {
			res, _, err := cs.FetchDataset(ctx, local)
			if err != nil {
				t.Fatalf("%s: FetchDataset(%s): %v", name, local.Name(), err)
			}
			if res.Unchanged {
				t.Fatalf("%s: FetchDataset(%s) reported Unchanged", name, local.Name())
			}
			want, _, err := cs.Fetch(ctx, local.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if !robustset.EqualMultisets(res.SPrime, want.SPrime) || !robustset.EqualMultisets(res.SPrime, remote) {
				t.Errorf("%s: FetchDataset(%s) reconciled to %d points, Fetch to %d, remote holds %d",
					name, local.Name(), len(res.SPrime), len(want.SPrime), len(remote))
			}
		}
	}
	if got := m.Snapshot()["server_sessions_unchanged_total"]; got != int64(len(strategies)) {
		t.Errorf("server_sessions_unchanged_total = %d, want %d", got, len(strategies))
	}
	cs, err := cl.Session("d", robustset.Robust{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.FetchDataset(ctx, nil); err == nil {
		t.Error("FetchDataset(nil) succeeded")
	}
}

// TestDatasetGauges: every published dataset exports its size and root
// fingerprint, equal datasets on two servers export equal fingerprints,
// a mutation moves both gauges, and Unpublish zeroes them.
func TestDatasetGauges(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 5, DiffBudget: 8}
	common, _ := clusterWorkload(1, 50, 0)
	var regs [2]*robustset.Metrics
	var sets [2]*robustset.Dataset
	for i := range regs {
		regs[i] = robustset.NewMetrics()
		srv := robustset.NewServer(robustset.WithServerMetrics(regs[i]))
		defer srv.Close()
		var err error
		if sets[i], err = srv.Publish("g", params, common); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			defer func() {
				if err := srv.Unpublish("g"); err != nil {
					t.Fatal(err)
				}
				snap := regs[1].Snapshot()
				if snap["dataset_points:g"] != 0 || snap["dataset_root_fingerprint:g"] != 0 {
					t.Errorf("gauges of an unpublished dataset: %d points, fingerprint %d", snap["dataset_points:g"], snap["dataset_root_fingerprint:g"])
				}
			}()
		}
	}
	s0, s1 := regs[0].Snapshot(), regs[1].Snapshot()
	if s0["dataset_points:g"] != int64(len(common)) || s0["dataset_root_fingerprint:g"] == 0 {
		t.Fatalf("gauges after publish: %d points, fingerprint %d", s0["dataset_points:g"], s0["dataset_root_fingerprint:g"])
	}
	if s0["dataset_root_fingerprint:g"] != s1["dataset_root_fingerprint:g"] {
		t.Error("equal datasets export different fingerprints")
	}
	if err := sets[0].Add(robustset.Point{9, 9}); err != nil {
		t.Fatal(err)
	}
	after := regs[0].Snapshot()
	if after["dataset_points:g"] != int64(len(common))+1 || after["dataset_root_fingerprint:g"] == s0["dataset_root_fingerprint:g"] {
		t.Errorf("gauges after an add: %d points, fingerprint moved = %v",
			after["dataset_points:g"], after["dataset_root_fingerprint:g"] != s0["dataset_root_fingerprint:g"])
	}
}

// TestConvergedRoundIsCheap holds the steadiness half of the claim: a
// converged round allocates nothing per point — so it cannot have taken
// a Snapshot, built a sketch or unmarshalled one — and nothing of it
// outlives it.
func TestConvergedRoundIsCheap(t *testing.T) {
	const shards, perShard = 8, 2000
	params := robustset.Params{Universe: testU, Seed: 23, DiffBudget: 16}
	common, _ := clusterWorkload(1, shards*perShard, 0)
	a := startClusterNode(t, params, common, shards)
	b := startClusterNode(t, params, common, shards)
	rep, err := robustset.NewReplicator(a.srv, []robustset.Peer{{Name: "b", Addr: b.addr}},
		robustset.WithReplicatorWorkers(2), robustset.WithRoundTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx := context.Background()
	round := func() {
		t.Helper()
		st, err := rep.RunRound(ctx)
		if err != nil || !st.Converged || st.Sessions != shards {
			t.Fatalf("round %+v, %v", st, err)
		}
	}
	round() // dials the peer
	round()
	waitGoroutinesSettle(t, runtime.NumGoroutine())
	before := runtime.NumGoroutine()

	const rounds = 20
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	// Both ends run in this process. One Snapshot of one shard is 2000
	// points × 16 B of coordinates plus the slice headers, 80 KB; a round
	// that took one per shard would allocate 640 KB.
	perRound := (m1.TotalAlloc - m0.TotalAlloc) / rounds
	if perRound > 64<<10 {
		t.Errorf("a converged round of %d shards × %d points allocates %d bytes, want < 64 KiB", shards, perShard, perRound)
	}
	if mallocs := (m1.Mallocs - m0.Mallocs) / rounds; mallocs > perShard {
		t.Errorf("a converged round makes %d allocations, want fewer than one shard has points", mallocs)
	}
	waitGoroutinesSettle(t, before)
}

// TestFetchDatasetUnderLocalChurn runs FetchDataset while the local
// dataset gains and loses a point as fast as it can: whichever side of
// a mutation the root read and the snapshot fall on, every result is
// either Unchanged or the server's exact multiset. Run under -race.
func TestFetchDatasetUnderLocalChurn(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 9, DiffBudget: 8}
	common, _ := clusterWorkload(1, 200, 0)
	srv := robustset.NewServer(WithTestLogger(t))
	if _, err := srv.Publish("d", params, common); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	mine := robustset.NewServer()
	defer mine.Close()
	local, err := mine.Publish("local", params, common)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := robustset.Point{50_000, 50_000}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := local.Add(extra); err != nil {
				t.Error(err)
				return
			}
			if err := local.Remove(extra); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	unchanged, full := 0, 0
	for _, strat := range []robustset.Strategy{robustset.Rateless{}, robustset.Naive{}} {
		cs, err := cl.Session("d", strat)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			res, _, err := cs.FetchDataset(ctx, local)
			if err != nil {
				t.Fatalf("%s fetch %d: %v", strat.Name(), i, err)
			}
			if res.Unchanged {
				unchanged++
				continue
			}
			full++
			if !robustset.EqualMultisets(res.SPrime, common) {
				t.Fatalf("%s fetch %d: full-path result of %d points is not the server's %d", strat.Name(), i, len(res.SPrime), len(common))
			}
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d fetches ended at the handshake, %d took the full path", unchanged, full)
}

// TestReplicatorMirrorAndMixedCatalogConverged: a mirror follower whose
// catalog also holds a dataset its upstream lacks keeps its round
// semantics once it has caught up — the shared dataset stops at the
// handshake, the other is Skipped, and the round is Converged.
func TestReplicatorMirrorAndMixedCatalogConverged(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 13, DiffBudget: 32}
	common, extras := clusterWorkload(2, 80, 5)
	upstream := startClusterNode(t, params, append(robustset.ClonePoints(common), extras[0]...), 1)
	follower := startClusterNode(t, params, append(robustset.ClonePoints(common), extras[1]...), 1)
	if _, err := follower.srv.Publish("local-only", params, common); err != nil {
		t.Fatal(err)
	}
	rep, err := robustset.NewReplicator(follower.srv,
		[]robustset.Peer{{Name: "up", Addr: upstream.addr}},
		robustset.WithMirror(), robustset.WithRoundTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx := context.Background()
	st, err := rep.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != len(extras[0]) || st.Removed != len(extras[1]) || st.Skipped != 1 || st.Converged {
		t.Fatalf("mirroring round %+v, want +%d/-%d and one skip", st, len(extras[0]), len(extras[1]))
	}
	st, err = rep.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Sessions != 2 || st.Skipped != 1 || st.Errors != 0 || st.Added+st.Removed != 0 {
		t.Fatalf("caught-up round %+v, want converged over 2 sessions with one skip", st)
	}
	if st.Bytes > 2*256 {
		t.Errorf("caught-up round moved %d bytes, want two handshakes' worth", st.Bytes)
	}
	if !robustset.EqualMultisets(follower.srv.Dataset("data").Snapshot(), upstream.snapshot()) {
		t.Error("follower does not mirror the upstream")
	}
}
