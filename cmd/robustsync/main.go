// Command robustsync is the command-line front end for robust set
// reconciliation. It can generate workload files, reconcile two local
// files, and run the protocol across real hosts over TCP.
//
// Usage:
//
//	robustsync gen      -out points.txt -n 1000 -dim 2 -delta 1048576 [-from base.txt -noise 4 -outliers 10]
//	robustsync quantize -csv data.csv -cols 1,2 -out points.txt [-delta 16777216] [-min a,b -max c,d]
//	robustsync local    -alice a.txt -bob b.txt [-k 16] [-proto adaptive] [-out sprime.txt]
//	robustsync serve    -data a.txt [-data more.txt ...] -listen :7777 [-k 16] [-data-dir ./state] [-metrics-addr 127.0.0.1:9090]
//	robustsync pull     -dataset a -data b.txt -connect host:7777 [-proto adaptive] [-trace] [-out sprime.txt]
//	robustsync explain  -dataset a -data b.txt -connect host:7777 [-proto adaptive]
//	robustsync cluster  -nodes 3 -n 500 -extra 8 -shards 4 [-metrics 127.0.0.1:9090] [-deadline 1m]
//
// `serve` publishes each -data file as a named dataset (the file's base
// name without extension) on a multi-dataset sync server; it serves every
// strategy concurrently, as streams of multiplexed (MUX1) connections,
// and shuts down gracefully on SIGINT. With
// -data-dir the datasets are durable: every mutation is write-ahead
// logged under the directory, and a restarted server recovers each
// dataset from its snapshot plus log tail (the -data files then only
// name the datasets; disk state wins).
// `pull` dials the server, opens a session naming one dataset and a
// protocol (-proto oneshot|adaptive|rateless|naive) and
// adopts the server's reconciliation parameters automatically. `cluster`
// replicates with rateless sessions, gossips every shard over one
// connection per peer and asserts the
// metrics endpoint afterwards; with -data the nodes are durable, and
// -kill-restart runs the crash-recovery smoke on top.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"robustset"
	"robustset/internal/baseline"
	"robustset/internal/pointio"
	"robustset/internal/points"
	"robustset/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "quantize":
		err = cmdQuantize(os.Args[2:])
	case "local":
		err = cmdLocal(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "pull":
		err = cmdPull(os.Args[2:])
	case "explain":
		// explain is pull with tracing forced on: run the sync and print
		// the phase/byte breakdown of what just happened on the wire.
		err = cmdPull(append([]string{"-trace"}, os.Args[2:]...))
	case "cluster":
		err = cmdCluster(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustsync:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: robustsync <gen|quantize|local|serve|pull|explain|cluster> [flags]
  gen       generate a point file (optionally a noisy copy of another file)
  quantize  ingest float CSV data into a point file
  local     reconcile two local point files in-process
  serve     publish point files as named datasets on a sync server (Alice)
  pull      reconcile the local file against a server dataset (Bob)
  explain   pull with -trace: print the session's phase and wire-byte breakdown
  cluster   run an N-node anti-entropy replication demo to convergence
run "robustsync <cmd> -h" for flags`)
	os.Exit(2)
}

// fsyncPolicyFor maps a -fsync flag value to the store policy.
func fsyncPolicyFor(mode string) (robustset.FsyncPolicy, error) {
	switch mode {
	case "", "always":
		return robustset.SyncAlways, nil
	case "none":
		return robustset.SyncNone, nil
	default:
		return robustset.SyncAlways, fmt.Errorf("unknown -fsync %q (always|none)", mode)
	}
}

// protoUsage is the -proto flag's help text.
const protoUsage = "protocol: oneshot|adaptive|rateless|naive (default oneshot)"

// strategyFor maps a -proto flag value to a Strategy.
func strategyFor(proto string) (robustset.Strategy, error) {
	switch proto {
	case "", "oneshot":
		return robustset.Robust{}, nil
	case "adaptive":
		return robustset.Adaptive{}, nil
	case "rateless":
		return robustset.Rateless{}, nil
	case "naive":
		return robustset.Naive{}, nil
	default:
		return nil, fmt.Errorf("unknown -proto %q (oneshot|adaptive|rateless|naive)", proto)
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output file (required)")
	n := fs.Int("n", 1000, "number of points")
	dim := fs.Int("dim", 2, "dimensions")
	delta := fs.Int64("delta", 1<<20, "coordinate range (power of two)")
	seed := fs.Uint64("seed", 1, "generator seed")
	clusters := fs.Int("clusters", 0, "draw points from this many clusters (0 = uniform)")
	from := fs.String("from", "", "derive a noisy copy of this base file instead of fresh points")
	noise := fs.Float64("noise", 0, "uniform per-coordinate noise amplitude for -from")
	outliers := fs.Int("outliers", 0, "number of fresh replacement points for -from")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	var u points.Universe
	var pts []points.Point
	if *from != "" {
		bu, base, err := readFile(*from)
		if err != nil {
			return err
		}
		u = bu
		rng := rand.New(rand.NewPCG(*seed, ^*seed))
		pts = make([]points.Point, len(base))
		for i, p := range base {
			if i < *outliers {
				q := make(points.Point, u.Dim)
				for j := range q {
					q[j] = rng.Int64N(u.Delta)
				}
				pts[i] = q
				continue
			}
			q := p.Clone()
			s := int64(*noise)
			if s > 0 {
				for j := range q {
					q[j] += rng.Int64N(2*s+1) - s
				}
			}
			pts[i] = u.Clamp(q)
		}
	} else {
		u = points.Universe{Dim: *dim, Delta: *delta}
		inst, err := workload.Generate(workload.Config{
			N: *n, Universe: u, Clusters: *clusters, Seed: *seed,
		})
		if err != nil {
			return err
		}
		pts = inst.Bob
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pointio.Write(f, u, pts); err != nil {
		return err
	}
	fmt.Printf("wrote %d points (dim=%d delta=%d) to %s\n", len(pts), u.Dim, u.Delta, *out)
	return nil
}

func cmdLocal(args []string) error {
	fs := flag.NewFlagSet("local", flag.ExitOnError)
	aliceFile := fs.String("alice", "", "Alice's point file (required)")
	bobFile := fs.String("bob", "", "Bob's point file (required)")
	k := fs.Int("k", 16, "difference budget")
	seed := fs.Uint64("seed", 42, "shared protocol seed")
	proto := fs.String("proto", "", protoUsage)
	out := fs.String("out", "", "write Bob's reconciled set here")
	fs.Parse(args)
	if *aliceFile == "" || *bobFile == "" {
		return fmt.Errorf("local: -alice and -bob are required")
	}
	strat, err := strategyFor(*proto)
	if err != nil {
		return fmt.Errorf("local: %w", err)
	}
	u, alice, err := readFile(*aliceFile)
	if err != nil {
		return err
	}
	ub, bob, err := readFile(*bobFile)
	if err != nil {
		return err
	}
	if u != ub {
		return fmt.Errorf("local: universes differ: %+v vs %+v", u, ub)
	}
	params := robustset.Params{Universe: u, Seed: *seed, DiffBudget: *k}
	res, stats, err := baseline.Exchange(context.Background(), strat, params, alice, bob)
	if err != nil {
		return err
	}
	report(res, stats, u, alice, bob)
	return writeResult(*out, u, res.SPrime)
}

// datasetName derives a dataset name from a point-file path: the base
// name without its extension.
func datasetName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var data multiFlag
	fs.Var(&data, "data", "point file to publish as a dataset (repeatable, required)")
	listen := fs.String("listen", ":7777", "listen address")
	k := fs.Int("k", 16, "difference budget")
	seed := fs.Uint64("seed", 42, "shared protocol seed")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period for in-flight sessions")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/traces on this address")
	dataDir := fs.String("data-dir", "", "durable storage root: WAL+snapshot per dataset, recovered on restart")
	fsyncMode := fs.String("fsync", "always", "durable log fsync policy: always|none")
	snapEvery := fs.Int("snapshot-every", 0, "snapshot after this many log records (0 = store default, <0 = never)")
	fs.Parse(args)
	if len(data) == 0 {
		return fmt.Errorf("serve: at least one -data is required")
	}
	fsync, err := fsyncPolicyFor(*fsyncMode)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	opts := []robustset.ServerOption{robustset.WithServerLogger(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})}
	if *metricsAddr != "" {
		// Bind before the server starts: a taken port is an operator error
		// the process must report and exit on, not serve half-configured.
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "robustsync: serve: metrics endpoint unavailable on %s: %v\n", *metricsAddr, err)
			return fmt.Errorf("serve: metrics listener: %w", err)
		}
		opts = append(opts,
			robustset.WithServerMetrics(robustset.NewMetrics()),
			robustset.WithServerTracing(robustset.NewTraceLog()),
			robustset.WithServerMetricsListener(mln),
		)
		fmt.Printf("observability on http://%s: /metrics /debug/traces\n", mln.Addr())
	}
	durable := *dataDir != ""
	if durable {
		opts = append(opts,
			robustset.WithServerDataDir(*dataDir),
			robustset.WithServerFsync(fsync),
			robustset.WithServerSnapshotEvery(*snapEvery),
		)
	}
	srv := robustset.NewServer(opts...)
	for _, path := range data {
		u, pts, err := readFile(path)
		if err != nil {
			return err
		}
		params := robustset.Params{Universe: u, Seed: *seed, DiffBudget: *k}
		name := datasetName(path)
		var d *robustset.Dataset
		if durable {
			// On a fresh directory the file seeds the dataset; on restart
			// the recovered disk state wins and the file only names it.
			d, err = srv.PublishDurable(name, params, pts)
		} else {
			d, err = srv.Publish(name, params, pts)
		}
		if err != nil {
			return err
		}
		mode := ""
		if durable {
			mode = ", durable"
		}
		fmt.Printf("published dataset %q: %d points (dim=%d delta=%d%s)\n", name, d.Size(), u.Dim, u.Delta, mode)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("sync server listening on %s (k=%d, datasets: %s)\n", ln.Addr(), *k, strings.Join(srv.Datasets(), ", "))

	// Serve until SIGINT/SIGTERM, then drain in-flight sessions.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "robustsync: %v: shutting down (grace %v)\n", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "robustsync: forced shutdown: %v\n", err)
		}
		<-serveErr
		return nil
	}
}

func cmdPull(args []string) error {
	fs := flag.NewFlagSet("pull", flag.ExitOnError)
	data := fs.String("data", "", "local point file (required)")
	connect := fs.String("connect", "", "server address (required)")
	dataset := fs.String("dataset", "", "dataset name on the server (default: derived from -data)")
	proto := fs.String("proto", "", protoUsage)
	timeout := fs.Duration("timeout", time.Minute, "overall session deadline (0 = none)")
	showTrace := fs.Bool("trace", false, "print the session's phase spans and per-frame wire bytes")
	out := fs.String("out", "", "write the reconciled set here")
	fs.Parse(args)
	if *data == "" || *connect == "" {
		return fmt.Errorf("pull: -data and -connect are required")
	}
	strat, err := strategyFor(*proto)
	if err != nil {
		return fmt.Errorf("pull: %w", err)
	}
	u, bob, err := readFile(*data)
	if err != nil {
		return err
	}
	name := *dataset
	if name == "" {
		name = datasetName(*data)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// With -trace the sink captures the completed trace (failed sessions
	// included) and the breakdown prints after the report — or alone, when
	// the session erred and there is nothing else to show.
	var captured *robustset.SessionTrace
	var traceOpts []robustset.Option
	if *showTrace {
		traceOpts = append(traceOpts, robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
			captured = st
		}))
	}
	printTrace := func() {
		if captured != nil {
			captured.Format(os.Stdout)
		}
	}
	cl, err := robustset.DialClient(ctx, *connect)
	if err != nil {
		return err
	}
	defer cl.Close()
	cs, err := cl.Session(name, strat, traceOpts...)
	if err != nil {
		return err
	}
	res, stats, err := cs.Fetch(ctx, bob)
	if err != nil {
		printTrace()
		return err
	}
	// The handshake adopted the server's parameters; write the result
	// under that universe (it may be wider than the local file's).
	u = res.Params.Universe
	report(res, stats, u, nil, bob)
	printTrace()
	// The counterfactual the breakdown is read against: what sending the
	// reconciled set itself would have moved.
	if naive := int64(len(res.SPrime)) * int64(points.EncodedSize(u.Dim)); *showTrace && naive > 0 {
		fmt.Printf("wire %d B · naive %d B (%.2f ×)\n", stats.Total(), naive, float64(stats.Total())/float64(naive))
	}
	return writeResult(*out, u, res.SPrime)
}

func report(res *robustset.SyncResult, stats robustset.TransferStats, u points.Universe, alice, bob []points.Point) {
	if r := res.Robust; r != nil {
		fmt.Printf("reconciled at level %d (cell width %d): %d added, %d removed, |S'_B|=%d\n",
			r.Level, r.CellWidth, len(r.Added), len(r.Removed), len(res.SPrime))
	} else {
		fmt.Printf("reconciled exactly: |S'_B|=%d\n", len(res.SPrime))
	}
	fmt.Printf("transfer: %s\n", stats)
	if alice != nil {
		before, _ := robustset.EMDApprox(alice, bob, u, 987)
		after, _ := robustset.EMDApprox(alice, res.SPrime, u, 987)
		fmt.Printf("grid-EMD estimate to Alice's data: %.0f → %.0f\n", before, after)
	}
}

func writeResult(path string, u points.Universe, pts []points.Point) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pointio.Write(f, u, pts); err != nil {
		return err
	}
	fmt.Printf("wrote %d points to %s\n", len(pts), path)
	return nil
}

func readFile(path string) (points.Universe, []points.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return points.Universe{}, nil, err
	}
	defer f.Close()
	return pointio.Read(f)
}
