// Command cluster demonstrates the anti-entropy replication subsystem:
// three nodes publish the same sharded dataset, each seeded with a few
// points the others lack, and a Replicator per node gossips with the
// other two until every node holds the identical multiset.
//
// The moving parts, bottom to top:
//
//   - Server.PublishSharded splits each node's points across 4 shard
//     datasets by a deterministic hash, so the nodes agree on every
//     point's shard and each shard reconciles independently.
//   - NewReplicator wraps the node's Server with a peer list; every
//     RunRound selects peers and first settles the sharded dataset with
//     each by one roots exchange: the sum of the shard roots, answered
//     "same" or with the peer's shard roots. Only the shards that differ
//     then reconcile, each with a Rateless session — exact, and sized by
//     the difference it finds — whose diff applies through the dataset's
//     batch mutations. A converged round is one exchange per peer.
//   - Diffs apply union-style — missing points are added, local points
//     kept — which is monotone, so mutual replication converges.
//
// In a real deployment each node is its own process and Replicator.Run
// drives rounds on an interval; the demo calls RunRound directly so the
// output is deterministic.
//
// Run it with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"time"

	"robustset"
)

var universe = robustset.Universe{Dim: 2, Delta: 1 << 18}

const (
	nBase   = 2000 // points every node starts with
	nExtra  = 12   // points only one node starts with
	nNodes  = 3
	nShards = 4
)

func main() {
	params := robustset.Params{
		Universe: universe,
		Seed:     4242,
		// The diff budget sizes what a robust fetch would be served;
		// replication streams until it decodes and needs none.
		DiffBudget: nNodes*nExtra + 8,
	}

	// Build the workload: a shared base plus per-node extras, the extras
	// in disjoint coordinate stripes so "extra" is exact.
	rng := rand.New(rand.NewPCG(7, 11))
	base := make([]robustset.Point, nBase)
	for i := range base {
		base[i] = robustset.Point{rng.Int64N(universe.Delta / 2), rng.Int64N(universe.Delta)}
	}
	extras := make([][]robustset.Point, nNodes)
	stripe := universe.Delta / 2 / nNodes
	for n := range extras {
		for j := 0; j < nExtra; j++ {
			extras[n] = append(extras[n], robustset.Point{
				universe.Delta/2 + int64(n)*stripe + rng.Int64N(stripe),
				rng.Int64N(universe.Delta),
			})
		}
	}

	// One shared metrics registry: every server and replicator below
	// reports into it, and the summary at the end reads real counters.
	metrics := robustset.NewMetrics()

	// Start the nodes: a Server each, publishing the sharded dataset.
	type node struct {
		srv  *robustset.Server
		addr string
	}
	nodes := make([]*node, nNodes)
	for i := range nodes {
		srv := robustset.NewServer(robustset.WithServerLogger(log.Printf),
			robustset.WithServerMetrics(metrics))
		pts := append(robustset.ClonePoints(base), extras[i]...)
		if _, err := srv.PublishSharded("telemetry", params, pts, nShards); err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(ln)
		nodes[i] = &node{srv: srv, addr: ln.Addr().String()}
		fmt.Printf("node %d: %d points on %s\n", i, nBase+nExtra, ln.Addr())
	}

	// One replicator per node, peered with the other two.
	reps := make([]*robustset.Replicator, nNodes)
	for i, nd := range nodes {
		var peers []robustset.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, robustset.Peer{Name: fmt.Sprintf("node%d", j), Addr: other.addr})
			}
		}
		// Each node keeps one multiplexed connection per peer and
		// reconciles all 4 shards as parallel streams of it.
		rep, err := robustset.NewReplicator(nd.srv, peers,
			robustset.WithPeerSelector(robustset.SelectRoundRobin(len(peers))),
			robustset.WithRoundTimeout(30*time.Second),
			robustset.WithReplicatorMetrics(metrics),
		)
		if err != nil {
			log.Fatal(err)
		}
		defer rep.Close()
		reps[i] = rep
	}

	// Gossip until quiescent: a sweep where every node's round converges.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for sweep := 1; ; sweep++ {
		allConverged := true
		for i, rep := range reps {
			st, err := rep.RunRound(ctx)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("sweep %d node %d: +%d points, %d sessions, %d B\n",
				sweep, i, st.Added, st.Sessions, st.Bytes)
			if !st.Converged {
				allConverged = false
			}
		}
		if allConverged {
			fmt.Printf("cluster quiescent after %d sweep(s)\n", sweep)
			break
		}
		if sweep > 8 {
			log.Fatal("no convergence after 8 sweeps")
		}
	}

	// Every node now holds the union.
	sizes := make([]int, nNodes)
	for i, nd := range nodes {
		sizes[i] = nd.srv.ShardedDataset("telemetry").Size()
	}
	fmt.Printf("final sizes: %v (expected %d each)\n", sizes, nBase+nNodes*nExtra)

	// The registry saw every connection and session in the run: the
	// connection count stays at one per replicator-peer edge no matter
	// how many sweeps and shards gossiped over it.
	snap := metrics.Snapshot()
	fmt.Printf("transport: %d mux connection(s), %d stream sessions, max %d streams on one connection, %d decode failures\n",
		snap["server_mux_conns_total"], snap["server_mux_streams_total"],
		snap["server_mux_streams_per_conn_max"], snap["mux_decode_failures_total"])

	for _, nd := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		nd.srv.Shutdown(ctx)
		cancel()
	}
}
