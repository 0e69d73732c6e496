package robustset_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"robustset"
)

// clusterNode is one in-process replication node: a serving Server plus
// its listen address.
type clusterNode struct {
	srv  *robustset.Server
	addr string
}

// startClusterNode publishes pts (sharded when shards > 1) and begins
// serving on a loopback listener.
func startClusterNode(t *testing.T, params robustset.Params, pts []robustset.Point, shards int, opts ...robustset.ServerOption) *clusterNode {
	t.Helper()
	srv := robustset.NewServer(append([]robustset.ServerOption{WithTestLogger(t)}, opts...)...)
	var err error
	if shards > 1 {
		_, err = srv.PublishSharded("data", params, pts, shards)
	} else {
		_, err = srv.Publish("data", params, pts)
	}
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	return &clusterNode{srv: srv, addr: addr.String()}
}

// snapshotAll gathers a node's full multiset across all its datasets.
func (n *clusterNode) snapshot() []robustset.Point {
	var out []robustset.Point
	for _, name := range n.srv.Datasets() {
		out = append(out, n.srv.Dataset(name).Snapshot()...)
	}
	return out
}

// clusterWorkload builds the acceptance scenario: a shared base multiset
// plus per-node disjoint extras, constructed in disjoint coordinate
// ranges so "extra" is exact, not probabilistic.
func clusterWorkload(nodes, base, extras int) (common []robustset.Point, perNode [][]robustset.Point) {
	next := uint64(12345)
	rnd := func(m int64) int64 {
		next = next*6364136223846793005 + 1442695040888963407
		return int64((next >> 33) % uint64(m))
	}
	for i := 0; i < base; i++ {
		common = append(common, robustset.Point{rnd(8192), rnd(8192)})
	}
	perNode = make([][]robustset.Point, nodes)
	for n := 0; n < nodes; n++ {
		for j := 0; j < extras; j++ {
			perNode[n] = append(perNode[n], robustset.Point{
				int64(10_000 + 1000*n + j), rnd(8192),
			})
		}
	}
	return common, perNode
}

// runConvergence drives one replicator round per node per sweep until
// every node holds the identical multiset, returning the sweep count.
func runConvergence(t *testing.T, nodes []*clusterNode, reps []*robustset.Replicator, maxSweeps int) int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		for i, rep := range reps {
			if _, err := rep.RunRound(ctx); err != nil {
				t.Fatalf("sweep %d: node %d round: %v", sweep, i, err)
			}
		}
		ref := nodes[0].snapshot()
		equal := true
		for _, n := range nodes[1:] {
			if !robustset.EqualMultisets(ref, n.snapshot()) {
				equal = false
				break
			}
		}
		if equal {
			return sweep
		}
	}
	t.Fatalf("cluster did not converge within %d sweeps", maxSweeps)
	return 0
}

// TestReplicatorThreeNodeConvergence is the acceptance scenario: three
// nodes with disjoint extra points converge to the identical multiset
// within a bounded number of rounds, on both plain and sharded datasets.
func TestReplicatorThreeNodeConvergence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			params := robustset.Params{Universe: testU, Seed: 55, DiffBudget: 40}
			common, extras := clusterWorkload(3, 120, 6)

			var nodes []*clusterNode
			for i := 0; i < 3; i++ {
				pts := append(robustset.ClonePoints(common), extras[i]...)
				nodes = append(nodes, startClusterNode(t, params, pts, shards))
			}

			var reps []*robustset.Replicator
			for i, n := range nodes {
				var peers []robustset.Peer
				for j, m := range nodes {
					if j != i {
						peers = append(peers, robustset.Peer{Name: fmt.Sprintf("node%d", j), Addr: m.addr})
					}
				}
				rep, err := robustset.NewReplicator(n.srv, peers,
					robustset.WithPeerSelector(robustset.SelectRoundRobin(2)),
					robustset.WithRoundTimeout(time.Minute),
					robustset.WithReplicatorWorkers(4),
				)
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, rep)
			}

			sweeps := runConvergence(t, nodes, reps, 5)
			t.Logf("converged in %d sweep(s)", sweeps)

			// The converged multiset is the union: common plus every
			// node's extras.
			want := robustset.ClonePoints(common)
			for _, ex := range extras {
				want = append(want, ex...)
			}
			if got := nodes[0].snapshot(); !robustset.EqualMultisets(got, want) {
				t.Errorf("converged multiset has %d points, want the %d-point union", len(got), len(want))
			}

			// A post-convergence sweep reports Converged on every node
			// and moves only handshakes, no diffs.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			for i, rep := range reps {
				st, err := rep.RunRound(ctx)
				if err != nil {
					t.Fatalf("node %d quiescent round: %v", i, err)
				}
				if !st.Converged || st.Added != 0 || st.Removed != 0 || st.Errors != 0 {
					t.Errorf("node %d quiescent round: %+v, want converged and diff-free", i, st)
				}
				if st.Bytes <= 0 || st.Sessions == 0 {
					t.Errorf("node %d quiescent round carried no traffic accounting: %+v", i, st)
				}
				if rep.Stats().ConvergedStreak < 1 {
					t.Errorf("node %d: converged streak %d", i, rep.Stats().ConvergedStreak)
				}
			}
		})
	}
}

// TestReplicatorBackoff asserts an unreachable peer is retried with
// exponential backoff: it is skipped while backed off and contacted
// again after the delay elapses.
func TestReplicatorBackoff(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 5, DiffBudget: 8}
	common, _ := clusterWorkload(1, 40, 0)
	node := startClusterNode(t, params, common, 1)

	// A dead address: listen, grab the port, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	rep, err := robustset.NewReplicator(node.srv,
		[]robustset.Peer{{Name: "dead", Addr: deadAddr}},
		robustset.WithPeerBackoff(80*time.Millisecond, 500*time.Millisecond),
		robustset.WithRoundTimeout(5*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	st, err := rep.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors == 0 || st.Converged {
		t.Fatalf("round against dead peer: %+v, want errors", st)
	}
	// Immediately after the failure the peer is backed off: the next
	// round selects nobody.
	st, err = rep.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Peers) != 0 || st.Sessions != 0 {
		t.Fatalf("backed-off peer still contacted: %+v", st)
	}
	// After the backoff delay the peer is eligible again.
	time.Sleep(100 * time.Millisecond)
	st, err = rep.RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Peers) != 1 || st.Errors == 0 {
		t.Fatalf("peer not retried after backoff: %+v", st)
	}
	if got := rep.Stats(); got.Errors < 2 || got.Rounds != 3 {
		t.Errorf("lifetime stats %+v", got)
	}
}

// TestReplicatorSkipsUnknownDataset asserts a peer that does not publish
// one of our datasets is skipped for it — no error, no backoff — while
// the shared dataset still reconciles.
func TestReplicatorSkipsUnknownDataset(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 9, DiffBudget: 16}
	common, extras := clusterWorkload(2, 60, 4)

	a := robustset.NewServer(WithTestLogger(t))
	if _, err := a.Publish("shared", params, append(robustset.ClonePoints(common), extras[0]...)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Publish("local-only", params, common); err != nil {
		t.Fatal(err)
	}
	addrA := startServer(t, a)
	_ = addrA

	b := robustset.NewServer(WithTestLogger(t))
	if _, err := b.Publish("shared", params, append(robustset.ClonePoints(common), extras[1]...)); err != nil {
		t.Fatal(err)
	}
	addrB := startServer(t, b)

	rep, err := robustset.NewReplicator(a, []robustset.Peer{{Name: "b", Addr: addrB.String()}},
		robustset.WithRoundTimeout(time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("round reported errors: %+v", st)
	}
	if st.Skipped != 1 {
		t.Errorf("skipped = %d, want 1 (peer lacks %q)", st.Skipped, "local-only")
	}
	if st.Added != len(extras[1]) {
		t.Errorf("added %d points, want %d from the shared dataset", st.Added, len(extras[1]))
	}
	// The peer must not be backed off by the skip.
	st, err = rep.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Peers) != 1 {
		t.Errorf("peer backed off after a dataset skip: %+v", st)
	}
}

// TestReplicatorConvergesPastDiffBudget: replication has no capacity
// cliff. Two replicas 15× Params.DiffBudget apart — 30 disjoint points
// against a budget of 2 — converge in one round each with the default
// options, every session clean and every point the peer's own.
func TestReplicatorConvergesPastDiffBudget(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 3, DiffBudget: 2}
	common, extras := clusterWorkload(2, 200, 15)
	nodes := []*clusterNode{
		startClusterNode(t, params, append(robustset.ClonePoints(common), extras[0]...), 1),
		startClusterNode(t, params, append(robustset.ClonePoints(common), extras[1]...), 1),
	}
	var reps []*robustset.Replicator
	for i, n := range nodes {
		rep, err := robustset.NewReplicator(n.srv, []robustset.Peer{{Name: "peer", Addr: nodes[1-i].addr}},
			robustset.WithReplicatorLogger(t.Logf))
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		reps = append(reps, rep)
	}
	runConvergence(t, nodes, reps, 1)
	for i, rep := range reps {
		if st := rep.LastRound(); st.Errors != 0 || st.Added != len(extras[1-i]) {
			t.Errorf("node %d round %+v, want +%d points and no errors", i, st, len(extras[1-i]))
		}
	}
	want := append(append(robustset.ClonePoints(common), extras[0]...), extras[1]...)
	if got := nodes[0].snapshot(); !robustset.EqualMultisets(got, want) {
		t.Errorf("converged multiset has %d points, want the %d-point union", len(got), len(want))
	}
}

// TestReplicatorAllSkippedNotConverged asserts a round where every
// session was an unknown-dataset skip does not report quiescence.
func TestReplicatorAllSkippedNotConverged(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 11, DiffBudget: 8}
	common, _ := clusterWorkload(1, 40, 0)
	a := robustset.NewServer(WithTestLogger(t))
	if _, err := a.Publish("only-here", params, common); err != nil {
		t.Fatal(err)
	}
	_ = startServer(t, a)
	b := robustset.NewServer(WithTestLogger(t))
	if _, err := b.Publish("only-there", params, common); err != nil {
		t.Fatal(err)
	}
	addrB := startServer(t, b)

	rep, err := robustset.NewReplicator(a, []robustset.Peer{{Name: "b", Addr: addrB.String()}},
		robustset.WithRoundTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || st.Errors != 0 {
		t.Fatalf("round: %+v, want one skip and no errors", st)
	}
	if st.Converged || rep.Stats().ConvergedStreak != 0 {
		t.Errorf("all-skip round reported convergence: %+v", st)
	}
}

// TestReplicatorMirror asserts mirror mode makes a follower identical to
// its upstream, removals included.
func TestReplicatorMirror(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 13, DiffBudget: 32}
	common, extras := clusterWorkload(2, 80, 5)

	upstream := startClusterNode(t, params, append(robustset.ClonePoints(common), extras[0]...), 1)
	follower := startClusterNode(t, params, append(robustset.ClonePoints(common), extras[1]...), 1)

	rep, err := robustset.NewReplicator(follower.srv,
		[]robustset.Peer{{Name: "up", Addr: upstream.addr}},
		robustset.WithMirror(),
		robustset.WithRoundTimeout(time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.RunRound(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != len(extras[0]) || st.Removed != len(extras[1]) {
		t.Errorf("mirror round applied +%d/-%d, want +%d/-%d", st.Added, st.Removed, len(extras[0]), len(extras[1]))
	}
	if !robustset.EqualMultisets(follower.snapshot(), upstream.snapshot()) {
		t.Error("follower does not mirror the upstream")
	}
}

// TestReplicatorRunLoop exercises the continuous Run driver: it must
// converge two nodes in the background and stop cleanly on cancel.
func TestReplicatorRunLoop(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 21, DiffBudget: 16}
	common, extras := clusterWorkload(2, 50, 3)
	n0 := startClusterNode(t, params, append(robustset.ClonePoints(common), extras[0]...), 1)
	n1 := startClusterNode(t, params, append(robustset.ClonePoints(common), extras[1]...), 1)

	mk := func(n *clusterNode, peer *clusterNode) *robustset.Replicator {
		rep, err := robustset.NewReplicator(n.srv, []robustset.Peer{{Addr: peer.addr}},
			robustset.WithRoundInterval(20*time.Millisecond),
			robustset.WithRoundTimeout(10*time.Second),
		)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r0, r1 := mk(n0, n1), mk(n1, n0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 2)
	go func() { done <- r0.Run(ctx) }()
	go func() { done <- r1.Run(ctx) }()

	deadline := time.After(30 * time.Second)
	for {
		if robustset.EqualMultisets(n0.snapshot(), n1.snapshot()) &&
			r0.Stats().Rounds > 0 && r1.Stats().Rounds > 0 {
			break
		}
		select {
		case <-deadline:
			cancel()
			t.Fatal("Run loops did not converge the nodes in time")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	}
}

// TestReplicatorValidation covers constructor and option errors.
func TestReplicatorValidation(t *testing.T) {
	srv := robustset.NewServer()
	defer srv.Close()
	if _, err := robustset.NewReplicator(nil, nil); err == nil {
		t.Error("nil server accepted")
	}
	if _, err := robustset.NewReplicator(srv, nil, robustset.WithRoundInterval(0)); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := robustset.NewReplicator(srv, nil, robustset.WithPeerBackoff(time.Second, time.Millisecond)); err == nil {
		t.Error("max < base backoff accepted")
	}
	if _, err := robustset.NewReplicator(srv, nil, robustset.WithReplicatorMaxMessageSize(-1)); err == nil {
		t.Error("negative max message size accepted")
	}
	if _, err := robustset.NewReplicator(srv, []robustset.Peer{{Addr: ""}}); err == nil {
		t.Error("empty peer address accepted")
	}
	if _, err := robustset.NewReplicator(srv, []robustset.Peer{{Addr: "x:1"}, {Addr: "x:1"}}); err == nil {
		t.Error("duplicate peer accepted")
	}
	// A peer's name is a label value in replicator_sessions_total:peer=<name>,outcome=<o>,
	// a comma-separated k=v list: "a,b" would render as one dataset label,
	// "x,y=z" with a stray y label.
	for _, p := range []robustset.Peer{{Name: "a,b", Addr: "x:1"}, {Name: "x,y=z", Addr: "x:1"}, {Addr: "x:1,y:2"}} {
		if _, err := robustset.NewReplicator(srv, []robustset.Peer{p}); err == nil {
			t.Errorf("peer %+v accepted: a comma in its name", p)
		}
	}
	rep, err := robustset.NewReplicator(srv, []robustset.Peer{{Name: "p", Addr: "x:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.AddPeer(robustset.Peer{Name: "p", Addr: "y:1"}); err == nil {
		t.Error("duplicate peer name accepted by AddPeer")
	}
	if err := rep.AddPeer(robustset.Peer{Name: "q,r", Addr: "y:1"}); err == nil {
		t.Error("a peer name with a comma accepted by AddPeer")
	}
	if err := rep.RemovePeer("nope"); err == nil {
		t.Error("RemovePeer of unknown peer succeeded")
	}
	if err := rep.RemovePeer("p"); err != nil {
		t.Error(err)
	}
	if got := rep.Peers(); len(got) != 0 {
		t.Errorf("Peers() = %v after removal", got)
	}
}

// TestReplicatorMuxConvergence runs the three-node sharded scenario and
// watches the transport: every node keeps ONE connection per peer and
// reconciles all its shards as parallel streams of it. The cluster must
// converge to the union, the per-peer connection count must be 1, and
// the server metrics must show the shards riding a single
// connection with zero decode failures.
func TestReplicatorMuxConvergence(t *testing.T) {
	const shards = 8
	params := robustset.Params{Universe: testU, Seed: 55, DiffBudget: 40}
	// Enough extras that each node's reach every shard: only shards that
	// differ open sessions.
	common, extras := clusterWorkload(3, 120, 48)

	m := robustset.NewMetrics()
	var nodes []*clusterNode
	for i := 0; i < 3; i++ {
		srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m))
		pts := append(robustset.ClonePoints(common), extras[i]...)
		if _, err := srv.PublishSharded("data", params, pts, shards); err != nil {
			t.Fatal(err)
		}
		addr := startServer(t, srv)
		nodes = append(nodes, &clusterNode{srv: srv, addr: addr.String()})
	}

	var reps []*robustset.Replicator
	for i, n := range nodes {
		var peers []robustset.Peer
		for j, o := range nodes {
			if j != i {
				peers = append(peers, robustset.Peer{Name: fmt.Sprintf("node%d", j), Addr: o.addr})
			}
		}
		rep, err := robustset.NewReplicator(n.srv, peers,
			robustset.WithPeerSelector(robustset.SelectRoundRobin(2)),
			robustset.WithRoundTimeout(time.Minute),
			robustset.WithReplicatorWorkers(shards),
			robustset.WithReplicatorMetrics(m),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		reps = append(reps, rep)
	}

	sweeps := runConvergence(t, nodes, reps, 5)
	t.Logf("converged in %d sweep(s)", sweeps)

	want := robustset.ClonePoints(common)
	for _, ex := range extras {
		want = append(want, ex...)
	}
	if got := nodes[0].snapshot(); !robustset.EqualMultisets(got, want) {
		t.Errorf("converged multiset has %d points, want the %d-point union", len(got), len(want))
	}

	snap := m.Snapshot()
	// 3 replicators × 2 peers each = 6 mux connections, total — every
	// round reuses them, so the count must not grow with sweeps.
	if got := snap["server_mux_conns_total"]; got != 6 {
		t.Errorf("mux connections: %d, want 6 (one per replicator-peer edge)", got)
	}
	if snap["mux_decode_failures_total"] != 0 {
		t.Errorf("decode failures: %d", snap["mux_decode_failures_total"])
	}
	// A connection carried its roots exchange and all 8 shards' sessions.
	if got := snap["server_mux_streams_per_conn_max"]; got < shards {
		t.Errorf("streams per conn max: %d, want >= %d", got, shards)
	}
	if snap["replicator_rounds_total"] < 3 {
		t.Errorf("replicator rounds: %d", snap["replicator_rounds_total"])
	}
	if snap["replicator_round_seconds_count"] != snap["replicator_rounds_total"] {
		t.Errorf("round histogram count %d != rounds %d",
			snap["replicator_round_seconds_count"], snap["replicator_rounds_total"])
	}

	// Closing the replicators tears down the cached connections; a
	// post-close round must fail sessions rather than leak new dials.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reps[0].Close()
	st, err := reps[0].RunRound(ctx)
	if err != nil {
		t.Fatalf("post-close round: %v", err)
	}
	if st.Errors == 0 {
		t.Errorf("post-close round reported no session errors: %+v", st)
	}
}

// endWatcher is a listener whose connections report, on ended, the first
// failed read the server makes of each: what it sees once the peer has
// closed the connection.
type endWatcher struct {
	net.Listener
	ended chan struct{}
}

func (l endWatcher) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &watchedConn{Conn: c, ended: l.ended}, nil
}

type watchedConn struct {
	net.Conn
	ended chan struct{}
	once  sync.Once
}

func (c *watchedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if err != nil {
		c.once.Do(func() { c.ended <- struct{}{} })
	}
	return n, err
}

// TestReplicatorReAddPeerNewAddress removes a peer whose connection is
// live and adds it back under the same name at another address: the
// removal closes the connection to the old address, and the next round's
// sessions dial the new one.
func TestReplicatorReAddPeerNewAddress(t *testing.T) {
	params := robustset.Params{Universe: testU, Seed: 55, DiffBudget: 40}
	// Enough extras that each node's reach every shard: only shards that
	// differ open sessions.
	common, extras := clusterWorkload(3, 120, 48)
	type node struct {
		srv   *robustset.Server
		m     *robustset.Metrics
		addr  string
		ended chan struct{}
	}
	start := func(pts []robustset.Point) node {
		n := node{m: robustset.NewMetrics(), ended: make(chan struct{}, 4)}
		n.srv = robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(n.m))
		if _, err := n.srv.Publish("data", params, pts); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- n.srv.Serve(endWatcher{ln, n.ended}) }()
		t.Cleanup(func() {
			n.srv.Close()
			<-done
		})
		n.addr = ln.Addr().String()
		return n
	}
	local := start(append(robustset.ClonePoints(common), extras[0]...))
	a := start(append(robustset.ClonePoints(common), extras[1]...))
	b := start(append(robustset.ClonePoints(common), extras[2]...))

	rep, err := robustset.NewReplicator(local.srv, []robustset.Peer{{Name: "p", Addr: a.addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	round := func(want []robustset.Point) {
		t.Helper()
		st, err := rep.RunRound(ctx)
		if err != nil || st.Errors != 0 || st.Sessions != 1 {
			t.Fatalf("round: %+v, %v", st, err)
		}
		if got := local.srv.Dataset("data").Snapshot(); !robustset.EqualMultisets(got, want) {
			t.Fatalf("after the round the local dataset has %d points, want %d", len(got), len(want))
		}
	}
	want := append(append(robustset.ClonePoints(common), extras[0]...), extras[1]...)
	round(want)

	if err := rep.RemovePeer("p"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-a.ended:
	case <-time.After(10 * time.Second):
		t.Fatal("removing the peer left its connection to the old address open")
	}
	if err := rep.AddPeer(robustset.Peer{Name: "p", Addr: b.addr}); err != nil {
		t.Fatal(err)
	}
	round(append(want, extras[2]...))

	if got := a.m.Snapshot()["server_mux_conns_total"]; got != 1 {
		t.Errorf("old address: %d mux connections, want 1", got)
	}
	if got := b.m.Snapshot()["server_mux_conns_total"]; got != 1 {
		t.Errorf("new address: %d mux connections, want 1", got)
	}
}
