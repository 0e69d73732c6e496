package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"robustset"
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
	// One stripe per node's extras, plus a reserved stripe for churn.
	if *delta/2 < int64(*nodes+1) {
		return fmt.Errorf("cluster: -delta %d too small for %d disjoint extra stripes", *delta, *nodes)
	}

	u := robustset.Universe{Dim: *dim, Delta: *delta}
	// Replication runs Rateless, which streams until it decodes and needs
	// no DiffBudget; the budget only sizes what a robust fetch of a node's
	// dataset would be served.
	params := robustset.Params{Universe: u, Seed: *seed, DiffBudget: *nodes**extra + *churn + 8}

	common, extras := clusterPoints(u, *n, *nodes, *extra, *seed)

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

	// Start the nodes: one Server each, all publishing dataset "demo".
	// startNode also restarts: a node with a recorded address re-listens
	// on it, so peers reconnect without reconfiguration, and a durable
	// node recovers its datasets from disk (pts is ignored then).
	type node struct {
		srv  *robustset.Server
		addr string
	}
	all := make([]*node, *nodes)
	startNode := func(i int, pts []robustset.Point) error {
		opts := []robustset.ServerOption{robustset.WithServerMetrics(metrics)}
		if durable {
			opts = append(opts,
				robustset.WithServerDataDir(filepath.Join(*dataDir, fmt.Sprintf("node%d", i))),
				robustset.WithServerFsync(fsync),
				robustset.WithServerRecoveryVerify(),
			)
		}
		srv := robustset.NewServer(opts...)
		var err error
		switch {
		case *shards > 1 && durable:
			_, err = srv.PublishShardedDurable("demo", params, pts, *shards)
		case *shards > 1:
			_, err = srv.PublishSharded("demo", params, pts, *shards)
		case durable:
			_, err = srv.PublishDurable("demo", params, pts)
		default:
			_, err = srv.Publish("demo", params, pts)
		}
		if err != nil {
			srv.Close()
			return err
		}
		laddr := "127.0.0.1:0"
		if all[i] != nil {
			laddr = all[i].addr
		}
		ln, err := net.Listen("tcp", laddr)
		if err != nil {
			srv.Close()
			return err
		}
		go srv.Serve(ln)
		all[i] = &node{srv: srv, addr: ln.Addr().String()}
		return nil
	}
	for i := range all {
		pts := append(robustset.ClonePoints(common), extras[i]...)
		if err := startNode(i, pts); err != nil {
			return err
		}
		defer func(i int) { all[i].srv.Close() }(i)
	}

	reps := make([]*robustset.Replicator, *nodes)
	newRep := func(i int) (*robustset.Replicator, error) {
		var peers []robustset.Peer
		for j, other := range all {
			if j != i {
				peers = append(peers, robustset.Peer{Name: fmt.Sprintf("node%d", j), Addr: other.addr})
			}
		}
		k := *fanout
		if k <= 0 {
			k = len(peers)
		}
		var sel robustset.PeerSelector
		switch *selection {
		case "roundrobin":
			sel = robustset.SelectRoundRobin(k)
		case "random":
			sel = robustset.SelectRandomK(k, *seed+uint64(i))
		default:
			return nil, fmt.Errorf("cluster: unknown -select %q (roundrobin|random)", *selection)
		}
		return robustset.NewReplicator(all[i].srv, peers,
			robustset.WithPeerSelector(sel),
			robustset.WithReplicatorWorkers(*workers),
			robustset.WithRoundTimeout(*deadline),
			robustset.WithReplicatorMetrics(metrics),
		)
	}
	for i := range reps {
		rep, err := newRep(i)
		if err != nil {
			return err
		}
		defer func(i int) { reps[i].Close() }(i)
		reps[i] = rep
	}

	durability := "in-memory"
	if durable {
		durability = fmt.Sprintf("durable under %s (fsync %s)", *dataDir, *fsyncMode)
	}
	fmt.Printf("cluster: %d nodes, %d base + %d extra points each, %d shard(s), %s, %s selection, %s\n",
		*nodes, *n, *extra, *shards, robustset.Rateless{}.Name(), *selection, durability)

	snapshot := func(nd *node) []robustset.Point {
		var out []robustset.Point
		for _, name := range nd.srv.Datasets() {
			out = append(out, nd.srv.Dataset(name).Snapshot()...)
		}
		return out
	}
	var totalBytes int64
	totalSweeps := 0
	// converge sweeps rounds over the given nodes until they all hold
	// the identical multiset.
	converge := func(idx []int, label string) error {
		for sweep := 1; sweep <= *maxSweeps; sweep++ {
			totalSweeps++
			var added, errs int
			for _, i := range idx {
				st, err := reps[i].RunRound(ctx)
				if err != nil {
					return fmt.Errorf("cluster: node %d round: %w", i, err)
				}
				totalBytes += st.Bytes
				added += st.Added
				errs += st.Errors
			}
			fmt.Printf("  [%s] sweep %2d: +%d points, %d errors, %s total on the wire\n",
				label, sweep, added, errs, byteCount(totalBytes))
			ref := snapshot(all[idx[0]])
			converged := true
			for _, i := range idx[1:] {
				if !robustset.EqualMultisets(ref, snapshot(all[i])) {
					converged = false
					break
				}
			}
			if converged {
				return nil
			}
		}
		return fmt.Errorf("cluster: %s: no convergence after %d sweeps", label, *maxSweeps)
	}
	allIdx := make([]int, *nodes)
	for i := range allIdx {
		allIdx[i] = i
	}
	if err := converge(allIdx, "initial"); err != nil {
		return err
	}

	want := *n + *nodes**extra
	if *killRestart {
		applied, err := runKillRestart(killRestartEnv{
			churn:   churnPoints(u, *nodes, *churn, *seed),
			victim:  *nodes - 1,
			shards:  *shards,
			dataset: "demo",
			srv0:    all[0].srv,
			close: func(i int) error {
				reps[i].Close()
				return all[i].srv.Close()
			},
			restart: func(i int) error {
				if err := startNode(i, nil); err != nil {
					return err
				}
				rep, err := newRep(i)
				if err != nil {
					return err
				}
				reps[i] = rep
				return nil
			},
			converge: converge,
			allIdx:   allIdx,
			metrics:  metrics,
		})
		if err != nil {
			return err
		}
		want += applied
	}

	got := len(snapshot(all[0]))
	fmt.Printf("converged: %d sweeps, %s on the wire, every node holds %d points (expected %d)\n",
		totalSweeps, byteCount(totalBytes), got, want)
	if got != want {
		return fmt.Errorf("cluster: converged multiset has %d points, want %d", got, want)
	}
	// Both soak contracts are asserted against the live HTTP endpoint
	// rather than in-process state. Quiescence first: one more sweep over
	// the converged cluster must cost a handshake per session.
	if err := checkQuiescentSweep(ctx, metricsURL, reps); err != nil {
		return err
	}
	// Then the mux: a converged run must have carried every shard of a
	// round over ONE connection per peer and decoded every frame.
	return checkMuxMetrics(metricsURL, *shards)
}

// quiescentSessionBytes bounds what one session of a converged pair may
// put on the wire: a hello with its root and an accept, framing included,
// come to well under half of it even with a long dataset name.
const quiescentSessionBytes = 256

// checkQuiescentSweep runs one round on every node of a cluster that has
// converged and fails unless every session stopped at the handshake, as
// read off the replicator_bytes_total counter of the metrics endpoint.
func checkQuiescentSweep(ctx context.Context, url string, reps []*robustset.Replicator) error {
	before, err := scrapeMetrics(url)
	if err != nil {
		return err
	}
	sessions := 0
	for i, rep := range reps {
		st, err := rep.RunRound(ctx)
		if err != nil {
			return fmt.Errorf("cluster: node %d quiescent round: %w", i, err)
		}
		if !st.Converged {
			return fmt.Errorf("cluster: node %d: round over the converged cluster: %+v", i, st)
		}
		sessions += st.Sessions
	}
	after, err := scrapeMetrics(url)
	if err != nil {
		return err
	}
	bytes := after("replicator_bytes_total") - before("replicator_bytes_total")
	fmt.Printf("quiescent sweep: %d sessions, %.0f bytes on the wire (%.0f per session)\n",
		sessions, bytes, bytes/float64(max(sessions, 1)))
	if bytes > float64(quiescentSessionBytes*sessions) {
		return fmt.Errorf("cluster: a sweep over the converged cluster moved %.0f bytes in %d sessions, want <= %d each (sessions did not stop at the handshake)",
			bytes, sessions, quiescentSessionBytes)
	}
	return nil
}

// killRestartEnv carries the cluster hooks the crash-recovery smoke
// drives: mutate node 0, kill and restart a victim, re-converge subsets.
type killRestartEnv struct {
	churn    []robustset.Point
	victim   int
	shards   int
	dataset  string
	srv0     *robustset.Server
	close    func(i int) error
	restart  func(i int) error
	converge func(idx []int, label string) error
	allIdx   []int
	metrics  *robustset.Metrics
}

// runKillRestart is the -kill-restart choreography: half the churn
// lands, the victim dies mid-stream, the rest lands, the survivors
// re-converge, and the victim restarts from disk and catches up. It
// returns the number of churn points applied and fails if recovery or
// re-convergence does not hold up.
func runKillRestart(env killRestartEnv) (int, error) {
	addChurn := func(pts []robustset.Point) error {
		if env.shards > 1 {
			return env.srv0.ShardedDataset(env.dataset).AddBatch(pts)
		}
		return env.srv0.Dataset(env.dataset).AddBatch(pts)
	}
	half := len(env.churn) / 2
	if err := addChurn(env.churn[:half]); err != nil {
		return 0, fmt.Errorf("cluster: churn: %w", err)
	}
	fmt.Printf("kill: node %d going down after %d/%d churn points\n", env.victim, half, len(env.churn))
	if err := env.close(env.victim); err != nil {
		return 0, fmt.Errorf("cluster: stopping node %d: %w", env.victim, err)
	}
	if err := addChurn(env.churn[half:]); err != nil {
		return 0, fmt.Errorf("cluster: churn: %w", err)
	}
	survivors := make([]int, 0, len(env.allIdx)-1)
	for _, i := range env.allIdx {
		if i != env.victim {
			survivors = append(survivors, i)
		}
	}
	if err := env.converge(survivors, "survivors"); err != nil {
		return 0, err
	}

	restartStart := time.Now()
	if err := env.restart(env.victim); err != nil {
		return 0, fmt.Errorf("cluster: restarting node %d: %w", env.victim, err)
	}
	fmt.Printf("restart: node %d recovered from its data directory in %s\n",
		env.victim, time.Since(restartStart).Round(time.Millisecond))
	if err := env.converge(env.allIdx, "rejoined"); err != nil {
		return 0, err
	}

	// Recovery must actually have happened (one recovered dataset per
	// shard of the victim), and the mux decode path must be clean.
	snap := env.metrics.Snapshot()
	wantRecovered := int64(1)
	if env.shards > 1 {
		wantRecovered = int64(env.shards)
	}
	if got := snap["server_recovered_datasets_total"]; got < wantRecovered {
		return 0, fmt.Errorf("cluster: %d datasets recovered from disk, want >= %d", got, wantRecovered)
	}
	if f := snap["mux_decode_failures_total"]; f != 0 {
		return 0, fmt.Errorf("cluster: %d mux decode failures during kill-restart, want 0", f)
	}
	fmt.Printf("recovery: %d datasets recovered, %d log records replayed, %d torn bytes truncated\n",
		snap["server_recovered_datasets_total"], snap["store_replay_records_total"],
		snap["store_torn_truncations_total"])
	return len(env.churn), nil
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

// checkMuxMetrics polls the metrics endpoint and enforces the mux soak
// assertions: zero decode failures, and at least `shards` streams
// carried by a single connection.
func checkMuxMetrics(url string, shards int) error {
	num, err := scrapeMetrics(url)
	if err != nil {
		return err
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

// clusterPoints builds the demo workload: a common base multiset plus
// per-node extras drawn from disjoint coordinate stripes so the expected
// union size is exact. The upper coordinate half is cut into nodes+1
// stripes; the last is reserved for kill-restart churn (churnPoints), so
// churn never collides with any node's extras.
func clusterPoints(u robustset.Universe, n, nodes, extra int, seed uint64) ([]robustset.Point, [][]robustset.Point) {
	rng := rand.New(rand.NewPCG(seed, ^seed))
	// Base points live in the lower half of the first coordinate; extras
	// in per-node stripes of the upper half.
	common := make([]robustset.Point, n)
	for i := range common {
		p := make(robustset.Point, u.Dim)
		p[0] = rng.Int64N(u.Delta / 2)
		for j := 1; j < u.Dim; j++ {
			p[j] = rng.Int64N(u.Delta)
		}
		common[i] = p
	}
	extras := make([][]robustset.Point, nodes)
	stripe := u.Delta / 2 / int64(nodes+1)
	for nd := range extras {
		base := u.Delta/2 + int64(nd)*stripe
		for j := 0; j < extra; j++ {
			p := make(robustset.Point, u.Dim)
			p[0] = base + rng.Int64N(stripe)
			for k := 1; k < u.Dim; k++ {
				p[k] = rng.Int64N(u.Delta)
			}
			extras[nd] = append(extras[nd], p)
		}
	}
	return common, extras
}

// churnPoints draws `count` distinct points from the churn stripe — the
// reserved slice of the upper coordinate half no node's extras touch —
// so the converged multiset size stays exactly predictable.
func churnPoints(u robustset.Universe, nodes, count int, seed uint64) []robustset.Point {
	rng := rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, seed))
	stripe := u.Delta / 2 / int64(nodes+1)
	base := u.Delta/2 + int64(nodes)*stripe
	seen := make(map[string]bool, count)
	pts := make([]robustset.Point, 0, count)
	for len(pts) < count {
		p := make(robustset.Point, u.Dim)
		p[0] = base + rng.Int64N(stripe)
		for j := 1; j < u.Dim; j++ {
			p[j] = rng.Int64N(u.Delta)
		}
		key := fmt.Sprint(p)
		if seen[key] {
			continue
		}
		seen[key] = true
		pts = append(pts, p)
	}
	return pts
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
