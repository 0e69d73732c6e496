package main

import (
	"bufio"
	"cmp"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"robustset"
	"robustset/internal/localcluster"
)

// cmdCluster runs the N-node anti-entropy demo: every node publishes the
// same sharded dataset seeded with a common base plus its own disjoint
// extra points, replicators gossip until every node holds the identical
// multiset, and the command reports rounds- and bytes-to-convergence.
// It exits non-zero if the deadline passes without convergence, so CI
// can run it as a smoke test.
//
// With -data the nodes are durable: each keeps its datasets in a
// WAL+snapshot directory under the given root and survives restarts.
// -kill-restart turns the demo into a crash-recovery smoke: after the
// cluster converges, churn writes land on node 0, one node is killed
// mid-churn, the survivors re-converge, and the killed node restarts
// from its data directory — its recovery is verified byte-identical
// against a fresh sketch build — and must catch up and re-converge.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	nodes := fs.Int("nodes", 3, "number of nodes")
	n := fs.Int("n", 500, "shared base points")
	extra := fs.Int("extra", 8, "disjoint extra points per node")
	dim := fs.Int("dim", 2, "dimensions")
	delta := fs.Int64("delta", 1<<20, "coordinate range (power of two)")
	shards := fs.Int("shards", 4, "shards per dataset (1 = unsharded)")
	seed := fs.Uint64("seed", 42, "workload and protocol seed")
	selection := fs.String("select", "roundrobin", "peer selection: roundrobin|random")
	fanout := fs.Int("fanout", 0, "peers contacted per round (0 = all)")
	workers := fs.Int("workers", 4, "concurrent shard reconciliations per round")
	maxSweeps := fs.Int("max-rounds", 32, "round sweeps before giving up")
	deadline := fs.Duration("deadline", time.Minute, "overall demo deadline")
	metricsAddr := fs.String("metrics", "127.0.0.1:0", "serve the metrics JSON endpoint here")
	dataDir := fs.String("data", "", "durable storage root: one WAL+snapshot directory per node")
	fsyncMode := fs.String("fsync", "always", "durable log fsync policy: always|none")
	killRestart := fs.Bool("kill-restart", false, "kill one node mid-churn, restart it from its data directory, require re-convergence (needs -data)")
	churn := fs.Int("churn", 120, "churn points written to node 0 around the kill (with -kill-restart)")
	fs.Parse(args)
	if *nodes < 2 {
		return fmt.Errorf("cluster: -nodes %d < 2", *nodes)
	}
	if *extra < 1 {
		return fmt.Errorf("cluster: -extra %d < 1", *extra)
	}
	durable := *dataDir != ""
	if *killRestart {
		if !durable {
			return fmt.Errorf("cluster: -kill-restart needs -data (the restarted node recovers from its directory)")
		}
		if *churn < 2 {
			return fmt.Errorf("cluster: -churn %d < 2", *churn)
		}
	}
	fsync, err := fsyncPolicyFor(*fsyncMode)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	// One stripe of the upper half per node's extras.
	if *delta/2 < int64(*nodes) {
		return fmt.Errorf("cluster: -delta %d too small for %d disjoint extra stripes", *delta, *nodes)
	}
	if *selection != "roundrobin" && *selection != "random" {
		return fmt.Errorf("cluster: unknown -select %q (roundrobin|random)", *selection)
	}
	k := cmp.Or(max(*fanout, 0), *nodes-1) // peers a round contacts
	u := robustset.Universe{Dim: *dim, Delta: *delta}
	// Replication runs Rateless, which streams until it decodes and needs
	// no DiffBudget; the budget only sizes what a robust fetch of a node's
	// dataset would be served.
	params := robustset.Params{Universe: u, Seed: *seed, DiffBudget: *nodes**extra + *churn + 8}

	ctx, cancel := context.WithTimeout(context.Background(), *deadline)
	defer cancel()

	// One shared metrics registry across every node and replicator,
	// served on a debug listener so the smoke run (and anything else)
	// can assert on live counters.
	metrics := robustset.NewMetrics()
	mln, err := net.Listen("tcp", *metricsAddr)
	if err != nil {
		return fmt.Errorf("cluster: metrics listener: %w", err)
	}
	defer mln.Close()
	go metrics.Serve(mln)
	metricsURL := "http://" + mln.Addr().String() + "/metrics"
	fmt.Printf("metrics endpoint: %s\n", metricsURL)

	cfg := localcluster.Config{
		Nodes: *nodes, Base: *n, Extra: *extra, LayoutSeed: *seed,
		Dataset: "demo", Params: params, Shards: *shards, Dir: *dataDir,
		ServerOptions: []robustset.ServerOption{robustset.WithServerMetrics(metrics)},
		Replicator: func(i int) []robustset.ReplicatorOption {
			sel := robustset.SelectRoundRobin(k)
			if *selection == "random" {
				sel = robustset.SelectRandomK(k, *seed+uint64(i))
			}
			return []robustset.ReplicatorOption{
				robustset.WithPeerSelector(sel),
				robustset.WithReplicatorWorkers(*workers),
				robustset.WithRoundTimeout(*deadline),
				robustset.WithReplicatorMetrics(metrics),
			}
		},
	}
	if durable {
		cfg.ServerOptions = append(cfg.ServerOptions, robustset.WithServerFsync(fsync), robustset.WithServerRecoveryVerify())
	}
	cl, err := localcluster.Start(cfg)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	defer cl.Close()

	durability := "in-memory"
	if durable {
		durability = fmt.Sprintf("durable under %s (fsync %s)", *dataDir, *fsyncMode)
	}
	fmt.Printf("cluster: %d nodes, %d base + %d extra points each, %d shard(s), %s, %s selection, %s\n",
		*nodes, *n, *extra, *shards, robustset.Rateless{}.Name(), *selection, durability)

	var totalBytes int64
	totalSweeps := 0
	// converge sweeps rounds over the live nodes until they all hold the
	// identical multiset.
	converge := func(label string) error {
		sweeps, err := cl.Converge(ctx, *maxSweeps, func(sweep int, s localcluster.Sweep) error {
			totalBytes += s.Bytes
			fmt.Printf("  [%s] sweep %2d: +%d points, %d errors, %s total on the wire\n",
				label, sweep, s.Added, s.Errors, byteCount(totalBytes))
			return nil
		})
		totalSweeps += sweeps
		if err != nil {
			return fmt.Errorf("cluster: %s: %w", label, err)
		}
		return nil
	}
	if err := converge("initial"); err != nil {
		return err
	}

	want := *n + *nodes**extra
	if *killRestart {
		if err := runKillRestart(cl, *churn, *seed, *shards, converge, metrics); err != nil {
			return err
		}
		want += *churn
	}

	got := len(cl.Snapshot(0))
	fmt.Printf("converged: %d sweeps, %s on the wire, every node holds %d points (expected %d)\n",
		totalSweeps, byteCount(totalBytes), got, want)
	if got != want {
		return fmt.Errorf("cluster: converged multiset has %d points, want %d", got, want)
	}
	return checkSoak(ctx, metricsURL, cl, *shards)
}

// quiescentStreamBytes bounds what one stream of a converged pair may put
// on the wire: a hello with its root and an accept saying "same", framing
// included, come to about 80 B.
const quiescentStreamBytes = 200

// checkSoak asserts the soak contracts against the live metrics endpoint
// rather than in-process state. Quiescence first: one more round on every
// live node of the converged cluster must open one stream per selected
// peer — the node's one dataset settled by one roots exchange, or one
// session that stopped at the handshake — each under quiescentStreamBytes.
// Then the mux: the run must have carried every shard of a round over ONE
// connection per peer and decoded every frame.
func checkSoak(ctx context.Context, url string, cl *localcluster.Cluster, shards int) error {
	before, err := scrapeMetrics(url)
	if err != nil {
		return err
	}
	peers := 0
	for _, i := range cl.Live() {
		st, err := cl.Replicator(i).RunRound(ctx)
		if err != nil {
			return fmt.Errorf("cluster: node %d quiescent round: %w", i, err)
		}
		if !st.Converged {
			return fmt.Errorf("cluster: node %d: round over the converged cluster: %+v", i, st)
		}
		peers += len(st.Peers)
	}
	num, err := scrapeMetrics(url)
	if err != nil {
		return err
	}
	streams := num("server_mux_streams_total") - before("server_mux_streams_total")
	bytes := num("replicator_bytes_total") - before("replicator_bytes_total")
	fmt.Printf("quiescent sweep: %.0f streams for %d selected peers, %.0f bytes on the wire (%.0f per stream)\n",
		streams, peers, bytes, bytes/max(streams, 1))
	if streams != float64(peers) {
		return fmt.Errorf("cluster: a sweep over the converged cluster opened %.0f streams, want one per node and selected peer (%d)",
			streams, peers)
	}
	if bytes >= quiescentStreamBytes*streams {
		return fmt.Errorf("cluster: a sweep over the converged cluster moved %.0f bytes in %.0f streams, want < %d each (streams did not stop at the handshake)",
			bytes, streams, quiescentStreamBytes)
	}

	muxConns := num("server_mux_conns_total")
	streamsMax := num("server_mux_streams_per_conn_max")
	decodeFailures := num("mux_decode_failures_total")
	fmt.Printf("mux metrics: %.0f connections, %.0f streams total, %.0f max streams/conn, %.0f decode failures\n",
		muxConns, num("server_mux_streams_total"), streamsMax, decodeFailures)
	if decodeFailures != 0 {
		return fmt.Errorf("cluster: %g mux decode failures, want 0", decodeFailures)
	}
	if muxConns < 1 {
		return fmt.Errorf("cluster: no multiplexed connections established")
	}
	if int(streamsMax) < shards {
		return fmt.Errorf("cluster: max %g streams on one connection, want >= %d (all shards on one conn)",
			streamsMax, shards)
	}
	return nil
}

// runKillRestart is the -kill-restart choreography: half the churn lands
// on node 0, the last node dies, the rest lands, the survivors
// re-converge, and the victim restarts from disk and catches up. It fails
// if recovery or re-convergence does not hold up.
func runKillRestart(cl *localcluster.Cluster, churn int, seed uint64, shards int, converge func(label string) error, metrics *robustset.Metrics) error {
	victim := len(cl.Live()) - 1
	half := churn / 2
	if err := cl.AddFresh(0, half, seed); err != nil {
		return fmt.Errorf("cluster: churn: %w", err)
	}
	fmt.Printf("kill: node %d going down after %d/%d churn points\n", victim, half, churn)
	if err := cl.Kill(victim); err != nil {
		return fmt.Errorf("cluster: stopping node %d: %w", victim, err)
	}
	if err := cl.AddFresh(0, churn-half, seed); err != nil {
		return fmt.Errorf("cluster: churn: %w", err)
	}
	if err := converge("survivors"); err != nil {
		return err
	}

	restartStart := time.Now()
	if err := cl.Restart(victim); err != nil {
		return fmt.Errorf("cluster: restarting node %d: %w", victim, err)
	}
	fmt.Printf("restart: node %d recovered from its data directory in %s\n",
		victim, time.Since(restartStart).Round(time.Millisecond))
	if err := converge("rejoined"); err != nil {
		return err
	}

	// Recovery must actually have happened: one recovered dataset per
	// shard of the victim. (checkSoak then finds the mux decode path clean.)
	snap := metrics.Snapshot()
	if got, want := snap["server_recovered_datasets_total"], int64(max(shards, 1)); got < want {
		return fmt.Errorf("cluster: %d datasets recovered from disk, want >= %d", got, want)
	}
	fmt.Printf("recovery: %d datasets recovered, %d log records replayed, %d torn bytes truncated\n",
		snap["server_recovered_datasets_total"], snap["store_replay_records_total"],
		snap["store_torn_truncations_total"])
	return nil
}

// scrapeMetrics reads the Prometheus exposition on the metrics endpoint
// once and returns a lookup of its unlabelled samples by name (0 for a
// name it lacks) — every name the smoke asserts on is unlabelled.
func scrapeMetrics(url string) (func(name string) float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("cluster: metrics endpoint: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: metrics endpoint: %s", resp.Status)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if samples[name], err = strconv.ParseFloat(value, 64); err != nil {
			return nil, fmt.Errorf("cluster: metrics endpoint: sample %q: %w", name, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: metrics endpoint: %w", err)
	}
	return func(name string) float64 { return samples[name] }, nil
}

// byteCount renders a byte total human-readably.
func byteCount(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
