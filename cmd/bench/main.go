// Command bench runs the module's fixed reconciliation workload matrix
// over every built-in strategy and writes the timings to a stable JSON
// schema (BENCH_core.json by default), giving the repository a recorded
// performance trajectory: every change to the hot paths is answerable to
// the numbers in version control.
//
// The matrix is deterministic — workload seeds are a function of the
// cell coordinates — so two runs on the same machine measure the same
// work. Sizes span 1e3–1e6 points (the -quick mode trims the matrix for
// CI smoke runs), crossed with diff rates, point dimensions and the
// built-in strategies. A cluster scenario then stands up a 3-node sharded
// anti-entropy cluster over loopback TCP and records its rounds- and
// bytes-to-convergence (mode "cluster" rows; the Replicator runs
// Rateless).
//
// A recovery scenario (mode "recovery" rows) measures the durable
// storage engine. "replay" rows churn a write-ahead-logged dataset,
// restart it, and record write amplification (the -check gate bounds
// wal_bytes/logical_bytes at 4×) plus recovery time against the log
// tail length the snapshot policy left behind. "rejoin" rows kill one
// node of a converged 3-node durable cluster, let the survivors absorb
// writes, restart it from disk and record the rejoin traffic, gated at
// half a naive full-set transfer — delta-proportional recovery.
//
// A paper scenario (mode "paper" rows) regenerates the paper's evaluation
// as cells of the core matrix's kind, one row per strategy per sweep
// point, tagged with its E-id (sweep): communication against k (E1, with
// E10 adding robust-adaptive on the same instances), against n (E2), the
// EMD factor against d (E3), robust against exact sync under growing
// noise (E4), the decoded level against noise (E6), the zero-noise regime
// (E8) and IBLT hash count × table capacity (E11). Rows carry messages,
// the decoded level and, up to n = 512, emd_ratio by exact matching;
// -quick trims every sweep. The -check gate demands a row for every sweep
// and holds E2's one-shot bytes independent of n (largest n ≤ 1.25× the
// smallest).
//
// Every scenario runs a strategy between two parties through one helper,
// baseline.Exchange, the same one the module's tests use.
//
// Usage:
//
//	bench [-quick] [-mode core,cluster,recovery,paper|all] [-out BENCH_core.json]
//	bench -check BENCH_core.json   # validate schema (CI drift gate)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"robustset"
	"robustset/internal/baseline"
	"robustset/internal/iblt"
	"robustset/internal/localcluster"
	"robustset/internal/points"
	"robustset/internal/workload"
)

// SchemaVersion identifies the report layout. The -check mode fails on
// any other value, so accidental schema drift breaks CI instead of
// silently forking the trajectory.
const SchemaVersion = 1

// Report is the top-level BENCH_core.json document.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	CPUs          int    `json:"cpus"`
	Quick         bool   `json:"quick"`
	// Modes lists the scenarios this report ran when -mode selected a
	// subset; empty (or absent, as in every full report) means all of
	// them. The -check gates only demand coverage for listed scenarios,
	// so a -mode recovery report validates without core rows.
	Modes   []string `json:"modes,omitempty"`
	Results []Result `json:"results"`
}

// Result is one matrix cell.
type Result struct {
	Strategy string  `json:"strategy"`
	N        int     `json:"n"`
	DiffRate float64 `json:"diff_rate"`
	Dim      int     `json:"dim"`
	Delta    int64   `json:"delta"`
	Regime   string  `json:"regime"` // "noisy" or "exact"
	// BuildNS times the strategy's summary construction alone (sketch,
	// cell stream or set encoding).
	BuildNS int64 `json:"build_ns"`
	// SyncNS is the wall time of a full serve/fetch exchange over an
	// in-process pipe, fetch side.
	SyncNS int64 `json:"sync_ns"`
	// WireBytes is the fetching connection's total traffic (both ways).
	WireBytes int64 `json:"wire_bytes"`
	// ResultSize is |S'_B| after the exchange.
	ResultSize int    `json:"result_size"`
	Err        string `json:"error,omitempty"`

	// Cluster-scenario rows (Mode == "cluster") reuse the fields above —
	// BuildNS is dataset publication across all nodes, SyncNS the wall
	// time to convergence, WireBytes the cluster-wide traffic and
	// ResultSize the converged multiset size — plus the fields below.
	Mode   string `json:"mode,omitempty"`
	Nodes  int    `json:"nodes,omitempty"`
	Shards int    `json:"shards,omitempty"`
	// Rounds is the number of anti-entropy round sweeps (one round per
	// node each) until every node held the identical multiset.
	Rounds int `json:"rounds,omitempty"`

	// Recovery-scenario rows (Mode == "recovery") come in two phases.
	// "replay" rows measure the durable storage engine: records and
	// bytes appended to the WAL during churn (write amplification =
	// wal_bytes / logical_bytes), snapshot bytes, and the restart's
	// recovery time (recovery_ns) against the log tail it replayed
	// (replay_records — shorter with tighter snapshot_every). "rejoin"
	// rows measure a recovered cluster replica catching up through
	// ordinary rateless sessions: wire_bytes is the rejoin traffic,
	// baseline_bytes the naive full-set transfer it must undercut, and
	// rounds the sweeps to full re-convergence.
	BaselineBytes int64  `json:"baseline_bytes,omitempty"`
	Phase         string `json:"phase,omitempty"`
	SnapshotEvery int    `json:"snapshot_every,omitempty"`
	WALRecords    int    `json:"wal_records,omitempty"`
	WALBytes      int64  `json:"wal_bytes,omitempty"`
	SnapshotBytes int64  `json:"snapshot_bytes,omitempty"`
	LogicalBytes  int64  `json:"logical_bytes,omitempty"`
	ReplayRecords int    `json:"replay_records,omitempty"`
	RecoveryNS    int64  `json:"recovery_ns,omitempty"`

	// Paper-scenario rows (Mode == "paper") are cells of the paper's
	// strategy sweeps: sweep is the E-id, noise the per-coordinate noise
	// scale, msgs the messages exchanged, level the grid level a robust
	// fetch decoded at (−1: no level decoded, a recorded outcome), and
	// emd_ratio EMD(S_A, S'_B) / max(1, EMD_k(S_A, S_B)) by exact matching
	// on robust rows with n ≤ 512. hash_count and table_capacity are the
	// IBLT knobs E11 varies.
	Sweep         string  `json:"sweep,omitempty"`
	Noise         float64 `json:"noise,omitempty"`
	Msgs          int64   `json:"msgs,omitempty"`
	Level         int     `json:"level,omitempty"`
	EMDRatio      float64 `json:"emd_ratio,omitempty"`
	HashCount     int     `json:"hash_count,omitempty"`
	TableCapacity int     `json:"table_capacity,omitempty"`
}

// cell is one measured coordinate before execution: a seeded workload,
// the parameters both sides share and the strategy that reconciles it.
// The core matrix derives k, noise, seed and params from (n, rate, dim);
// the paper sweeps set them as the paper's experiments did and name their
// sweep.
type cell struct {
	strategy robustset.Strategy
	n        int
	rate     float64
	dim      int
	delta    int64
	regime   string
	k        int     // outliers: points genuinely different on Alice's side
	noise    float64 // uniform per-coordinate noise on the other n−k
	seed     uint64  // workload seed
	params   robustset.Params
	sweep    string // paper mode's E-id; empty in the core matrix
}

// matrix enumerates the workload cells. Quick mode trims sizes and
// dimensions for CI smoke runs while still covering every strategy.
func matrix(quick bool) []cell {
	sizes := []int{1_000, 10_000, 100_000, 1_000_000}
	rates := []float64{0.001, 0.01}
	dims := []struct {
		d     int
		delta int64
	}{{2, 1 << 20}, {3, 1 << 16}}
	if quick {
		sizes = []int{1_000, 10_000}
		rates = []float64{0.01}
		dims = dims[:1]
	}
	var cells []cell
	for _, dm := range dims {
		for _, n := range sizes {
			for _, rate := range rates {
				for _, s := range robustset.Strategies() {
					cells = append(cells, coreCell(s, n, rate, dm.d, dm.delta))
				}
			}
		}
	}
	return cells
}

// coreCell derives a core-matrix cell from its coordinates: k = n·rate
// outliers, noise ±4 on the rest, or none for the exact comparators.
func coreCell(s robustset.Strategy, n int, rate float64, dim int, delta int64) cell {
	c := cell{
		strategy: s, n: n, rate: rate,
		dim: dim, delta: delta, regime: "noisy",
		k: outliersFor(n, rate), noise: 4,
		seed: uint64(n)*1_000_003 ^ uint64(dim)<<32 ^ uint64(rate*1e6),
	}
	c.params = robustset.Params{Universe: robustset.Universe{Dim: dim, Delta: delta}, Seed: 77, DiffBudget: c.k + 4}
	switch s.(type) {
	case robustset.Rateless:
		// The exact comparator gets the regime it is designed for;
		// under value noise their cost is Θ(n) by construction, which
		// would measure the degeneracy, not the implementation.
		c.regime, c.noise = "exact", 0
	}
	return c
}

// outliersFor returns k, the number of genuinely different points.
func outliersFor(n int, rate float64) int {
	k := int(float64(n) * rate)
	if k < 1 {
		k = 1
	}
	return k
}

// genWorkload builds the deterministic instance for a cell.
func genWorkload(c cell) (*workload.Instance, error) {
	return workload.Generate(workload.Config{
		N:        c.n,
		Universe: points.Universe{Dim: c.dim, Delta: c.delta},
		Outliers: c.k,
		Noise:    workload.NoiseUniform,
		Scale:    c.noise,
		Seed:     c.seed,
	})
}

// timeBuild measures the strategy's standalone summary construction over
// Alice's points: the hot path each strategy pays before any bytes move.
func timeBuild(c cell, alice []robustset.Point) (int64, error) {
	start := time.Now()
	switch c.strategy.(type) {
	case robustset.Robust, robustset.Adaptive:
		if _, err := robustset.NewSketch(c.params, alice); err != nil {
			return 0, err
		}
	case robustset.Rateless:
		// Occurrence-indexed keys into a rateless cell stream, emitting
		// the cells a well-estimated difference needs — the serving-side
		// cost of the first CELLS answer.
		keyLen := points.EncodedSize(c.dim) + 4
		stream, err := iblt.NewCellStream(iblt.ExtendConfig{KeyLen: keyLen, Seed: 21}, points.OccurrenceKeys(alice, c.dim))
		if err != nil {
			return 0, err
		}
		stream.Emit(2*c.k + 32)
	case robustset.Naive:
		points.EncodeSet(alice, c.dim)
	}
	return time.Since(start).Nanoseconds(), nil
}

// runCell executes one cell end to end.
func runCell(c cell) Result {
	res := Result{
		Strategy: c.strategy.Name(), N: c.n, DiffRate: c.rate,
		Dim: c.dim, Delta: c.delta, Regime: c.regime,
	}
	if c.sweep != "" {
		res.Mode, res.Sweep, res.Noise = "paper", c.sweep, c.noise
		res.HashCount, res.TableCapacity = c.params.HashCount, c.params.TableCapacity
	}
	inst, err := genWorkload(c)
	if err != nil {
		return failed(res, err)
	}
	if res.BuildNS, err = timeBuild(c, inst.Alice); err != nil {
		return failed(res, err)
	}
	out, st, ns, err := exchange(c.strategy, c.params, inst.Alice, inst.Bob)
	res.SyncNS, res.WireBytes = ns, st.Total()
	if c.sweep != "" {
		res.Msgs = st.MsgsSent + st.MsgsRecv
		if errors.Is(err, robustset.ErrNoDecodableLevel) {
			// E11's "failures": a sketch too small for the difference at
			// every level is an outcome of the sweep, not of the harness.
			res.Level = -1
			return res
		}
	}
	if err != nil {
		return failed(res, err)
	}
	res.ResultSize = len(out.SPrime)
	if c.sweep != "" && out.Robust != nil {
		res.Level = out.Robust.Level
		if c.n <= maxEMDPoints {
			if res.EMDRatio, err = emdRatio(inst.Alice, inst.Bob, out.SPrime, c.k); err != nil {
				res.Err = err.Error()
			}
		}
	}
	return res
}

// exchange runs one baseline.Exchange — the harness's only way to run a
// strategy between two parties — and returns its fetch-side wall time.
func exchange(strat robustset.Strategy, p robustset.Params, alice, bob []robustset.Point) (*robustset.SyncResult, robustset.TransferStats, int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	out, st, err := baseline.Exchange(ctx, strat, p, alice, bob)
	return out, st, time.Since(start).Nanoseconds(), err
}

// clusterMatrix enumerates the replication scenarios: nodes replicas of
// one sharded dataset, each seeded with disjoint extra points, gossip
// until every node holds the identical multiset.
func clusterMatrix(quick bool) []localcluster.Config {
	if quick {
		return []localcluster.Config{{Nodes: 3, Base: 1_000, Extra: 10, Shards: 4}}
	}
	return []localcluster.Config{{Nodes: 3, Base: 10_000, Extra: 50, Shards: 8}}
}

// runClusterCell stands up the in-process cluster over loopback TCP and
// drives replicator rounds to convergence.
func runClusterCell(cfg localcluster.Config) Result {
	res := Result{
		Strategy: robustset.Rateless{}.Name(), N: cfg.Base,
		DiffRate: float64(cfg.Extra) / float64(cfg.Base),
		Dim:      2, Delta: 1 << 20, Regime: "exact",
		Mode: "cluster", Nodes: cfg.Nodes, Shards: cfg.Shards,
	}
	cfg.Dataset, cfg.LayoutSeed = "bench", uint64(cfg.Base)*31+uint64(cfg.Extra)
	cfg.Params = robustset.Params{Universe: robustset.Universe{Dim: res.Dim, Delta: res.Delta}, Seed: 1009, DiffBudget: cfg.Nodes*cfg.Extra + 8}
	buildStart := time.Now()
	cl, err := localcluster.Start(cfg)
	if err != nil {
		return failed(res, err)
	}
	defer cl.Close()
	res.BuildNS = time.Since(buildStart).Nanoseconds()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	res.Rounds, err = cl.Converge(ctx, 16, func(sweep int, s localcluster.Sweep) error {
		res.WireBytes += s.Bytes
		if s.Errors > 0 {
			return fmt.Errorf("round %d: %d session errors", sweep, s.Errors)
		}
		return nil
	})
	res.SyncNS = time.Since(start).Nanoseconds()
	if err != nil {
		return failed(res, err)
	}
	if res.ResultSize = len(cl.Snapshot(0)); res.ResultSize != cfg.Base+cfg.Nodes*cfg.Extra {
		res.Err = fmt.Sprintf("converged to %d points, want %d", res.ResultSize, cfg.Base+cfg.Nodes*cfg.Extra)
	}
	return res
}

// recoveryReplayCell is one storage-engine measurement: a durable
// dataset of n base points takes churn mutation batches through the
// WAL, the server restarts, and recovery replays the log tail left by
// the snapshot policy.
type recoveryReplayCell struct {
	n     int // base points
	churn int // mutation batches (one WAL record each)
	every int // snapshot interval in records; <0 never snapshots
}

// recoveryReplayMatrix pairs a snapshotting configuration against a
// snapshot-never one on the same churn, so the report records recovery
// time against both a short and a full-length log. Churn counts avoid
// multiples of the snapshot interval so the snapshotting row still
// replays a non-empty tail.
func recoveryReplayMatrix(quick bool) []recoveryReplayCell {
	if quick {
		return []recoveryReplayCell{
			{n: 2_000, churn: 300, every: 64},
			{n: 2_000, churn: 300, every: -1},
		}
	}
	return []recoveryReplayCell{
		{n: 50_000, churn: 2_000, every: 512},
		{n: 50_000, churn: 2_000, every: -1},
	}
}

// runRecoveryReplayCell measures one replay cell end to end.
func runRecoveryReplayCell(c recoveryReplayCell) Result {
	res := Result{
		Strategy: robustset.Robust{}.Name(), Mode: "recovery", Phase: "replay",
		N: c.n, DiffRate: float64(c.churn) / float64(c.n),
		Dim: 2, Delta: 1 << 20, Regime: "exact",
		SnapshotEvery: c.every,
	}
	dir, err := os.MkdirTemp("", "bench-recovery-*")
	if err != nil {
		return failed(res, err)
	}
	defer os.RemoveAll(dir)
	u := robustset.Universe{Dim: res.Dim, Delta: res.Delta}
	params := robustset.Params{Universe: u, Seed: 501, DiffBudget: 64}
	inst, err := workload.Generate(workload.Config{
		N:        c.n,
		Universe: points.Universe{Dim: u.Dim, Delta: u.Delta},
		Seed:     uint64(c.n)*7 + uint64(c.churn),
	})
	if err != nil {
		return failed(res, err)
	}

	m := robustset.NewMetrics()
	srv := robustset.NewServer(
		robustset.WithServerMetrics(m),
		robustset.WithServerDataDir(dir),
		robustset.WithServerSnapshotEvery(c.every),
	)
	buildStart := time.Now()
	d, err := srv.PublishDurable("bench", params, inst.Bob)
	if err != nil {
		return failed(res, err)
	}
	res.BuildNS = time.Since(buildStart).Nanoseconds()

	// Churn: batches of 1–4 adds or removes, every batch one WAL record.
	// Metrics are read as before/after deltas so the initial snapshot of
	// the publish does not pollute the churn accounting.
	pre := m.Snapshot()
	encSize := int64(points.EncodedSize(u.Dim))
	rng := rand.New(rand.NewPCG(uint64(c.churn), uint64(c.every)+3))
	current := robustset.ClonePoints(inst.Bob)
	var logical int64
	for r := 0; r < c.churn; r++ {
		if len(current) > 8 && rng.IntN(10) < 4 {
			nb := 1 + rng.IntN(3)
			batch := make([]robustset.Point, 0, nb)
			for i := 0; i < nb && len(current) > 0; i++ {
				j := rng.IntN(len(current))
				batch = append(batch, current[j])
				current[j] = current[len(current)-1]
				current = current[:len(current)-1]
			}
			err = d.RemoveBatch(batch)
			logical += int64(len(batch)) * encSize
		} else {
			nb := 1 + rng.IntN(4)
			batch := make([]robustset.Point, 0, nb)
			for i := 0; i < nb; i++ {
				batch = append(batch, robustset.Point{rng.Int64N(u.Delta), rng.Int64N(u.Delta)})
			}
			err = d.AddBatch(batch)
			logical += int64(len(batch)) * encSize
			current = append(current, batch...)
		}
		if err != nil {
			res.Err = fmt.Sprintf("churn record %d: %v", r, err)
			return res
		}
	}
	post := m.Snapshot()
	res.WALRecords = int(post["store_wal_records_total"] - pre["store_wal_records_total"])
	res.WALBytes = post["store_wal_bytes_total"] - pre["store_wal_bytes_total"]
	res.SnapshotBytes = post["store_snapshot_bytes_total"] - pre["store_snapshot_bytes_total"]
	res.LogicalBytes = logical
	if err := srv.Close(); err != nil {
		return failed(res, err)
	}

	// Restart: recovery = open + snapshot load + sketch adoption + tail
	// replay, timed as one PublishDurable call.
	m2 := robustset.NewMetrics()
	srv2 := robustset.NewServer(
		robustset.WithServerMetrics(m2),
		robustset.WithServerDataDir(dir),
		robustset.WithServerSnapshotEvery(c.every),
	)
	defer srv2.Close()
	recStart := time.Now()
	d2, err := srv2.PublishDurable("bench", params, nil)
	res.RecoveryNS = time.Since(recStart).Nanoseconds()
	if err != nil {
		return failed(res, err)
	}
	res.ReplayRecords = int(m2.Snapshot()["store_replay_records_total"])
	if !robustset.EqualMultisets(d2.Snapshot(), current) {
		res.Err = fmt.Sprintf("recovered multiset has %d points, churned state had %d", d2.Size(), len(current))
		return res
	}
	res.ResultSize = d2.Size()
	return res
}

// recoveryRejoinCell is one delta-proportional rejoin measurement: a
// 3-node durable cluster converges, one node goes down, the survivors
// absorb `missed` writes, and the restarted node must catch up in wire
// bytes proportional to the miss, not to the dataset.
type recoveryRejoinCell struct {
	n      int // shared base points
	extra  int // disjoint extras per node
	missed int // writes the downed node misses
}

func recoveryRejoinMatrix(quick bool) []recoveryRejoinCell {
	// The base set must be large enough that the gated ratio measures
	// delta-proportionality, not the fixed per-session overhead (the
	// handshake and a cold rateless session's 32-cell head).
	if quick {
		return []recoveryRejoinCell{{n: 8_000, extra: 12, missed: 48}}
	}
	return []recoveryRejoinCell{{n: 50_000, extra: 12, missed: 400}}
}

// runRecoveryRejoinCell measures one rejoin cell.
func runRecoveryRejoinCell(c recoveryRejoinCell) Result {
	const nodes = 3
	res := Result{
		Strategy: robustset.Rateless{}.Name(), Mode: "recovery", Phase: "rejoin",
		N: c.n, DiffRate: float64(c.missed) / float64(c.n),
		Dim: 2, Delta: 1 << 20, Regime: "exact", Nodes: nodes,
	}
	dir, err := os.MkdirTemp("", "bench-rejoin-*")
	if err != nil {
		return failed(res, err)
	}
	defer os.RemoveAll(dir)
	u := robustset.Universe{Dim: res.Dim, Delta: res.Delta}
	cl, err := localcluster.Start(localcluster.Config{
		Nodes: nodes, Base: c.n, Extra: c.extra, LayoutSeed: uint64(c.n)*41 + uint64(c.missed),
		Dataset: "bench", Dir: dir,
		Params: robustset.Params{Universe: u, Seed: 733, DiffBudget: nodes*c.extra + c.missed + 8},
	})
	if err != nil {
		return failed(res, err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if _, err := cl.Converge(ctx, 16, nil); err != nil {
		return failed(res, err)
	}

	// Node 2 goes down; the survivors absorb the missed delta — distinct
	// points mined against the converged multiset so the expected counts
	// stay exact — and re-converge without it.
	if err := cl.Kill(2); err != nil {
		return failed(res, err)
	}
	if err := cl.AddFresh(0, c.missed, uint64(c.n)); err != nil {
		return failed(res, err)
	}
	if _, err := cl.Converge(ctx, 16, nil); err != nil {
		return failed(res, err)
	}
	downSize := len(cl.Snapshot(0)) - c.missed

	// Restart node 2 from its directory and rejoin: the first round's
	// traffic is the recovery cost on the wire.
	recStart := time.Now()
	if err := cl.Restart(2); err != nil {
		return failed(res, err)
	}
	res.RecoveryNS = time.Since(recStart).Nanoseconds()
	if got := len(cl.Snapshot(2)); got != downSize {
		return failed(res, fmt.Errorf("recovered node holds %d points, held %d at shutdown", got, downSize))
	}
	rejoinStart := time.Now()
	st, err := cl.Replicator(2).RunRound(ctx)
	if err != nil {
		return failed(res, err)
	}
	res.WireBytes = st.Bytes
	sweeps, err := cl.Converge(ctx, 16, nil)
	if err != nil {
		return failed(res, err)
	}
	res.SyncNS = time.Since(rejoinStart).Nanoseconds()
	res.Rounds = 1 + sweeps
	final := cl.Snapshot(0)
	res.ResultSize = len(final)
	// The contracted baseline: a naive full-set transfer of the dataset
	// the node already held on disk.
	res.BaselineBytes = int64(len(points.EncodeSet(final, u.Dim)))
	if want := c.n + nodes*c.extra + c.missed; res.ResultSize != want {
		res.Err = fmt.Sprintf("converged to %d points, want %d", res.ResultSize, want)
	}
	return res
}

// runRecoveryScenario executes the durability matrix: storage-engine
// replay cells, then the cluster rejoin cells.
func runRecoveryScenario(quick bool, logf func(format string, args ...any)) []Result {
	replay := runRows("replay", recoveryReplayMatrix(quick), runRecoveryReplayCell, func(r Result) string {
		return fmt.Sprintf("every=%-5d records=%d wal=%dB (amp ×%.2f) replayed=%d recovery=%-12s",
			r.SnapshotEvery, r.WALRecords, r.WALBytes, float64(r.WALBytes)/float64(r.LogicalBytes),
			r.ReplayRecords, time.Duration(r.RecoveryNS))
	}, logf)
	return append(replay, runRows("rejoin", recoveryRejoinMatrix(quick), runRecoveryRejoinCell, func(r Result) string {
		return fmt.Sprintf("recovery=%-12s wire=%dB full=%dB (×%.3f) rounds=%d", time.Duration(r.RecoveryNS),
			r.WireBytes, r.BaselineBytes, float64(r.WireBytes)/float64(r.BaselineBytes), r.Rounds)
	}, logf)...)
}

// runRows runs every cell of a scenario in order and logs each row under
// label; line tells what a successful row measured.
func runRows[C any](label string, cells []C, run func(C) Result, line func(Result) string, logf func(format string, args ...any)) []Result {
	out := make([]Result, 0, len(cells))
	for i, c := range cells {
		r := run(c)
		out = append(out, r)
		msg := "ERROR: " + r.Err
		if r.Err == "" {
			msg = line(r)
		}
		logf("[%s %3d/%d] %-16s n=%-8d %s", label, i+1, len(cells), r.Strategy, r.N, msg)
	}
	return out
}

// failed returns res carrying err.
func failed(res Result, err error) Result {
	res.Err = err.Error()
	return res
}

// runMatrix executes every cell in order.
func runMatrix(cells []cell, logf func(format string, args ...any)) []Result {
	return runRows("cell", cells, runCell, func(r Result) string {
		return fmt.Sprintf("%-3s rate=%-6g dim=%d build=%-12s sync=%-12s wire=%dB",
			r.Sweep, r.DiffRate, r.Dim, time.Duration(r.BuildNS), time.Duration(r.SyncNS), r.WireBytes)
	}, logf)
}

// scenarios are what -mode selects, in run order.
var scenarios = []struct {
	name string
	run  func(quick bool, logf func(format string, args ...any)) []Result
}{
	{"core", func(quick bool, logf func(string, ...any)) []Result { return runMatrix(matrix(quick), logf) }},
	{"cluster", func(quick bool, logf func(string, ...any)) []Result {
		return runRows("cluster", clusterMatrix(quick), runClusterCell, func(r Result) string {
			return fmt.Sprintf("nodes=%d shards=%d rounds=%d sync=%-12s wire=%dB",
				r.Nodes, r.Shards, r.Rounds, time.Duration(r.SyncNS), r.WireBytes)
		}, logf)
	}},
	{"recovery", runRecoveryScenario},
	{"paper", func(quick bool, logf func(string, ...any)) []Result { return runMatrix(paperMatrix(quick), logf) }},
}

// modeNames lists the scenario names in run order.
func modeNames() []string {
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.name
	}
	return names
}

// newReport is an empty report stamped with this process's environment.
func newReport(quick bool, modes []string) Report {
	return Report{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Quick:         quick,
		Modes:         modes,
	}
}

// checkReport validates a serialized report against the schema contract:
// version match, every strategy covered, and every row carrying real
// measurements. CI runs this as its drift gate.
func checkReport(data []byte) error {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("bench: report is not valid JSON: %w", err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema version %d, tool expects %d", rep.SchemaVersion, SchemaVersion)
	}
	if rep.GoVersion == "" || rep.GOOS == "" || rep.GOARCH == "" || rep.CPUs < 1 {
		return fmt.Errorf("bench: incomplete environment header")
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("bench: empty results")
	}
	known := map[string]bool{}
	for _, m := range modeNames() {
		known[m] = true
	}
	sel := map[string]bool{}
	for _, m := range rep.Modes {
		if !known[m] {
			return fmt.Errorf("bench: report names unknown mode %q", m)
		}
		sel[m] = true
	}
	// has reports whether the scenario's coverage gates apply: an empty
	// mode list is a full report and owes every scenario.
	has := func(m string) bool { return len(rep.Modes) == 0 || sel[m] }
	want := map[string]bool{}
	for _, s := range robustset.Strategies() {
		want[s.Name()] = false
	}
	// robustWire and naiveWire map a core cell's workload to the wire
	// bytes of the two strategies the last gate compares on it.
	type workloadKey struct {
		n, dim int
		rate   float64
	}
	robustWire, naiveWire := map[workloadKey]int64{}, map[workloadKey]int64{}
	clusterRows := 0
	recoveryRows := map[string]int{}
	paperRows := map[string]int{}
	e2Wire := map[int]int64{} // E2's robust-oneshot wire bytes by n
	for i, r := range rep.Results {
		if _, known := want[r.Strategy]; !known {
			return fmt.Errorf("bench: result %d names unknown strategy %q", i, r.Strategy)
		}
		if r.N < 1 || r.Dim < 1 || r.Delta < 2 {
			return fmt.Errorf("bench: result %d (%s) has malformed workload coordinates", i, r.Strategy)
		}
		if r.Err != "" {
			return fmt.Errorf("bench: result %d (%s n=%d) failed: %s", i, r.Strategy, r.N, r.Err)
		}
		// Recovery replay rows measure the storage engine, not a wire
		// exchange; they carry their own measurement gates below.
		if r.Mode != "recovery" && (r.SyncNS <= 0 || r.WireBytes <= 0) {
			return fmt.Errorf("bench: result %d (%s n=%d) carries no measurements", i, r.Strategy, r.N)
		}
		if r.Mode == "" {
			switch k := (workloadKey{r.N, r.Dim, r.DiffRate}); r.Strategy {
			case robustset.Robust{}.Name():
				robustWire[k] = r.WireBytes
			case robustset.Naive{}.Name():
				naiveWire[k] = r.WireBytes
			}
		}
		if r.Mode == "cluster" {
			if r.Rounds < 1 || r.Nodes < 2 || r.Shards < 1 {
				return fmt.Errorf("bench: cluster result %d (%s) carries no convergence measurements", i, r.Strategy)
			}
			clusterRows++
		}
		if r.Mode == "recovery" {
			switch r.Phase {
			case "replay":
				if r.RecoveryNS <= 0 || r.WALRecords < 1 || r.WALBytes <= 0 || r.LogicalBytes <= 0 {
					return fmt.Errorf("bench: recovery result %d carries no storage measurements", i)
				}
				if r.ReplayRecords < 1 {
					return fmt.Errorf("bench: recovery result %d replayed no log records", i)
				}
				// The durability contract on the log itself: framing and
				// batching overhead must stay modest. Snapshot bytes are
				// recorded, not gated — they are the knob snapshot_every
				// exists to trade.
				if amp := float64(r.WALBytes) / float64(r.LogicalBytes); amp > 4 {
					return fmt.Errorf("bench: recovery result %d: write amplification %.2f exceeds 4", i, amp)
				}
			case "rejoin":
				if r.RecoveryNS <= 0 || r.BaselineBytes <= 0 || r.Rounds < 1 {
					return fmt.Errorf("bench: recovery result %d carries no rejoin measurements", i)
				}
				// The rejoin contract: a recovered replica catches up in
				// wire bytes proportional to what it missed — far below a
				// full transfer of the state it already holds on disk.
				if ratio := float64(r.WireBytes) / float64(r.BaselineBytes); ratio > 0.5 {
					return fmt.Errorf("bench: recovery result %d (n=%d): rejoin wire ratio %.2f exceeds 0.5", i, r.N, ratio)
				}
			default:
				return fmt.Errorf("bench: recovery result %d carries phase %q", i, r.Phase)
			}
			recoveryRows[r.Phase]++
		}
		if r.Mode == "paper" {
			paperRows[r.Sweep]++
			if r.Sweep == "E2" && r.Strategy == (robustset.Robust{}).Name() {
				e2Wire[r.N] = r.WireBytes
			}
		}
		want[r.Strategy] = true
	}
	// The trade the paper is about: from ten thousand points up, the
	// one-shot sketch must cross the wire in fewer bytes than the set.
	for k, robust := range robustWire {
		if naive, ok := naiveWire[k]; ok && k.n >= 10_000 && robust >= naive {
			return fmt.Errorf("bench: n=%d rate=%g dim=%d: robust-oneshot moved %d bytes, not below naive's %d",
				k.n, k.rate, k.dim, robust, naive)
		}
	}
	if has("core") {
		for name, seen := range want {
			if !seen {
				return fmt.Errorf("bench: no successful result for strategy %q", name)
			}
		}
	}
	if has("cluster") && clusterRows == 0 {
		return fmt.Errorf("bench: no successful cluster-convergence result")
	}
	if has("recovery") && (recoveryRows["replay"] == 0 || recoveryRows["rejoin"] == 0) {
		return fmt.Errorf("bench: recovery scenario incomplete: %d replay / %d rejoin rows",
			recoveryRows["replay"], recoveryRows["rejoin"])
	}
	if has("paper") {
		for _, sweep := range paperSweeps() {
			if paperRows[sweep] == 0 {
				return fmt.Errorf("bench: paper scenario incomplete: no successful %s row", sweep)
			}
		}
		// The paper's "independent of n": with k held, the one-shot
		// sketch at E2's largest n costs at most 1.25× its smallest
		// (1.11× over n = 256 … 16 384 when the gate was set).
		lo, hi := 0, 0
		for n := range e2Wire {
			if lo == 0 || n < lo {
				lo = n
			}
			hi = max(hi, n)
		}
		if lo == hi || float64(e2Wire[hi]) > 1.25*float64(e2Wire[lo]) {
			return fmt.Errorf("bench: E2: robust-oneshot wire bytes by n %v are not independent of n (want ≥ 2 sizes, largest ≤ 1.25× smallest)", e2Wire)
		}
	}
	return nil
}

// parseModes resolves the -mode flag into the scenario set to run and
// the Modes list to stamp into the report (nil for a full run, so full
// reports keep their historical shape).
func parseModes(s string) (map[string]bool, []string, error) {
	names := modeNames()
	known := map[string]bool{}
	for _, m := range names {
		known[m] = true
	}
	sel := map[string]bool{}
	var list []string
	for _, m := range strings.Split(s, ",") {
		m = strings.TrimSpace(m)
		switch {
		case m == "":
		case m == "all":
			for _, k := range names {
				sel[k] = true
			}
		case known[m]:
			if !sel[m] {
				sel[m] = true
				list = append(list, m)
			}
		default:
			return nil, nil, fmt.Errorf("bench: unknown mode %q (have %s, or all)", m, strings.Join(names, ","))
		}
	}
	if len(sel) == 0 {
		return nil, nil, fmt.Errorf("bench: -mode selected no scenarios")
	}
	if len(sel) == len(names) {
		list = nil // a full run; omit the field like every historical report
	}
	return sel, list, nil
}

// writeHeapProfile collects a post-GC heap profile at path — the
// artifact the nightly bench job uploads when a gate fails.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func main() {
	quick := flag.Bool("quick", false, "trimmed matrix for CI smoke runs")
	out := flag.String("out", "BENCH_core.json", "output path")
	check := flag.String("check", "", "validate an existing report instead of running")
	mode := flag.String("mode", "all", "comma-separated scenarios to run: "+strings.Join(modeNames(), ",")+", or all")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile (pprof) to this path")
	flag.Parse()

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := checkReport(data); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: schema v%d ok\n", *check, SchemaVersion)
		return
	}

	sel, modeList, err := parseModes(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	rep := newReport(*quick, modeList)
	for _, sc := range scenarios {
		if sel[sc.name] {
			rep.Results = append(rep.Results, sc.run(*quick, logf)...)
		}
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := checkReport(data); err != nil {
		fmt.Fprintln(os.Stderr, "self-check failed:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d cells)\n", *out, len(rep.Results))
}
