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
// built-in strategies. Cells whose protocol cost would be pathological
// for the
// configuration (CPI beyond its capacity budget) are recorded as skipped
// with a reason rather than silently dropped. A cluster scenario then
// stands up a 3-node sharded anti-entropy cluster over loopback TCP and
// records rounds- and bytes-to-convergence for the replication-grade
// strategies (mode "cluster" rows).
//
// A rateless scenario (mode "rateless" rows) pairs the rateless cell
// stream against the exact-IBLT doubling-retry path on the same
// workloads, twice per cell: once with an honest difference (the strata
// estimate lands within its ~2× band) and once with the difference
// skewed entirely into stratum 0, which collapses the estimate to ~0 —
// the estimator's blind spot. Each row records the rateless wire bytes
// (wire_bytes) against the doubling path's (baseline_bytes); the -check
// gate enforces the robustness contract on them: at most 0.6× the
// doubling bytes when the estimate undershoots, at most 1.1× when it is
// accurate.
//
// A ranges scenario (mode "ranges" rows) pins the divide-and-conquer
// strategy's contract in its headline regime — huge sets, tiny
// differences: ranged wire bytes beside the exact-IBLT doubling path's
// on the identical workload (wire_bytes vs baseline_bytes; the -check
// gate holds wire_bytes under 1 KB a differing key and records the
// ratio), and the sequential round-trip depth of the same
// reconciliation pipelined as sibling-range mux streams against a
// serial one-probe-per-frame run (rounds vs baseline_rounds, gated at
// ≤0.6× on quick reports).
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
//	bench [-quick] [-mode core,cluster,rateless,ranges,recovery,paper|all] [-out BENCH_core.json]
//	bench -check BENCH_core.json   # validate schema (CI drift gate)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"robustset"
	"robustset/internal/baseline"
	"robustset/internal/cpi"
	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/ranges"
	"robustset/internal/sketch"
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
	// so a -mode ranges report validates without core rows.
	Modes   []string `json:"modes,omitempty"`
	Results []Result `json:"results"`
}

// Result is one matrix cell.
type Result struct {
	Strategy   string  `json:"strategy"`
	N          int     `json:"n"`
	DiffRate   float64 `json:"diff_rate"`
	Dim        int     `json:"dim"`
	Delta      int64   `json:"delta"`
	Regime     string  `json:"regime"` // "noisy" or "exact"
	Skipped    bool    `json:"skipped,omitempty"`
	SkipReason string  `json:"skip_reason,omitempty"`
	// BuildNS times the strategy's summary construction alone (sketch,
	// table, polynomial evaluations, or set encoding).
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

	// Rateless-scenario rows (Mode == "rateless") additionally carry the
	// estimate regime ("accurate" or "undershoot" — the latter forced by
	// a stratum-0-skewed difference) and the doubling-retry path's total
	// wire bytes on the identical workload, the baseline wire_bytes is
	// contracted against.
	Estimate      string `json:"estimate,omitempty"`
	BaselineBytes int64  `json:"baseline_bytes,omitempty"`

	// Ranges-scenario rows (Mode == "ranges") compare the ranged
	// divide-and-conquer strategy's wire bytes against the exact-IBLT
	// doubling path's (baseline_bytes) on an identical tiny-difference
	// workload, plus the sequential round-trip depth of the same
	// reconciliation pipelined as sibling-range mux streams (rounds,
	// mux_streams) against a serial one-probe-per-frame run
	// (baseline_rounds).
	BaselineRounds int `json:"baseline_rounds,omitempty"`
	MuxStreams     int `json:"mux_streams,omitempty"`

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
	case robustset.ExactIBLT, robustset.Rateless, robustset.Ranged, robustset.CPI:
		// The exact comparators get the regime they are designed for;
		// under value noise their cost is Θ(n) by construction, which
		// would measure the degeneracy, not the implementation.
		c.regime, c.noise = "exact", 0
	}
	if _, isCPI := s.(robustset.CPI); isCPI {
		c.strategy = robustset.CPI{Capacity: cpiCapacityFor(c.k)}
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

// cpiCapacityFor mirrors the capacity the CPI strategy needs for the
// exact-regime workload: |AΔB| = 2k plus slack.
func cpiCapacityFor(k int) int { return 4*k + 16 }

// skipReason returns a non-empty reason when the cell's protocol cost
// would be pathological rather than informative.
func skipReason(c cell) string {
	if cp, isCPI := c.strategy.(robustset.CPI); isCPI {
		if cp.Capacity > 512 {
			return fmt.Sprintf("cpi capacity %d > 512 (root finding is quadratic in capacity)", cp.Capacity)
		}
		if int64(c.n)*int64(cp.Capacity) > 1_000_000_000 {
			return fmt.Sprintf("cpi evaluation cost n·m = %d exceeds budget", int64(c.n)*int64(cp.Capacity))
		}
	}
	return ""
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
	switch s := c.strategy.(type) {
	case robustset.Robust, robustset.Adaptive:
		if _, err := robustset.NewSketch(c.params, alice); err != nil {
			return 0, err
		}
	case robustset.ExactIBLT:
		// Occurrence-indexed point keys into an IBLT sized for the diff —
		// the shape of the exact protocol's table construction.
		keyLen := points.EncodedSize(c.dim) + 4
		t, err := iblt.New(iblt.Config{
			Cells:     iblt.RecommendedCells(4*c.k+16, 4),
			HashCount: 4,
			KeyLen:    keyLen,
			Seed:      21,
		})
		if err != nil {
			return 0, err
		}
		for _, k := range points.OccurrenceKeys(alice, c.dim) {
			t.Insert(k)
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
	case robustset.CPI:
		h := hashutil.NewHasher(hashutil.DeriveSeed(23, "bench/elem"))
		elems := make([]uint64, len(alice))
		buf := make([]byte, 0, points.EncodedSize(c.dim)+4)
		for i, pt := range alice {
			buf = points.Encode(buf[:0], pt)
			buf = append(buf, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
			elems[i] = h.Hash(buf) % (1<<61 - 1)
		}
		if _, err := cpi.NewSketch(elems, s.Capacity, 5); err != nil {
			return 0, err
		}
	case robustset.Ranged:
		// The ordered fingerprint tree over Morton-interleaved occurrence
		// keys the divide-and-conquer protocol probes.
		u := points.Universe{Dim: c.dim, Delta: c.delta}
		if _, err := ranges.NewFromSorted(ranges.KeyLen(c.dim), 21, ranges.Keys(u, alice)); err != nil {
			return 0, err
		}
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
	if reason := skipReason(c); reason != "" {
		res.Skipped, res.SkipReason = true, reason
		return res
	}
	inst, err := genWorkload(c)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if res.BuildNS, err = timeBuild(c, inst.Alice); err != nil {
		res.Err = err.Error()
		return res
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
		res.Err = err.Error()
		return res
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

// clusterCell is one anti-entropy convergence scenario: nodes replicas
// of one sharded dataset, each seeded with disjoint extra points, gossip
// until every node holds the identical multiset.
type clusterCell struct {
	strategy robustset.Strategy
	n        int // shared base points
	extra    int // disjoint extra points per node
	nodes    int
	shards   int
}

// clusterMatrix enumerates the replication scenarios. The two strategies
// with exact finest-level diffs — Robust and ExactIBLT — are the ones a
// replication layer deploys; rounds- and bytes-to-convergence are the
// numbers that compare them.
func clusterMatrix(quick bool) []clusterCell {
	n, extra, shards := 10_000, 50, 8
	if quick {
		n, extra, shards = 1_000, 10, 4
	}
	var cells []clusterCell
	for _, s := range []robustset.Strategy{robustset.Robust{}, robustset.ExactIBLT{}} {
		cells = append(cells, clusterCell{strategy: s, n: n, extra: extra, nodes: 3, shards: shards})
	}
	return cells
}

// clusterWorkload builds the deterministic cluster instance: a common
// base multiset plus per-node extras in disjoint coordinate stripes, so
// the expected converged size is exact.
func clusterWorkload(u robustset.Universe, n, nodes, extra int, seed uint64) ([]robustset.Point, [][]robustset.Point) {
	inst, err := workload.Generate(workload.Config{
		N:        n,
		Universe: points.Universe{Dim: u.Dim, Delta: u.Delta / 2},
		Seed:     seed,
	})
	if err != nil {
		panic("bench: cluster workload: " + err.Error())
	}
	common := inst.Bob
	h := hashutil.NewHasher(hashutil.DeriveSeed(seed, "bench/cluster-extra"))
	extras := make([][]robustset.Point, nodes)
	stripe := u.Delta / 2 / int64(nodes)
	for nd := range extras {
		base := u.Delta/2 + int64(nd)*stripe
		for j := 0; j < extra; j++ {
			p := make(robustset.Point, u.Dim)
			p[0] = base + int64(h.HashUint64(uint64(nd)<<32|uint64(j))%uint64(stripe))
			for k := 1; k < u.Dim; k++ {
				p[k] = int64(h.HashUint64(uint64(k)<<48|uint64(nd)<<32|uint64(j)) % uint64(u.Delta))
			}
			extras[nd] = append(extras[nd], p)
		}
	}
	return common, extras
}

// runClusterCell stands up the in-process cluster over loopback TCP and
// drives replicator rounds to convergence.
func runClusterCell(c clusterCell) Result {
	res := Result{
		Strategy: c.strategy.Name(), N: c.n,
		DiffRate: float64(c.extra) / float64(c.n),
		Dim:      2, Delta: 1 << 20, Regime: "exact",
		Mode: "cluster", Nodes: c.nodes, Shards: c.shards,
	}
	u := robustset.Universe{Dim: res.Dim, Delta: res.Delta}
	params := robustset.Params{Universe: u, Seed: 1009, DiffBudget: c.nodes*c.extra + 8}
	common, extras := clusterWorkload(u, c.n, c.nodes, c.extra, uint64(c.n)*31+uint64(c.extra))

	type node struct {
		srv  *robustset.Server
		addr string
	}
	buildStart := time.Now()
	nodes := make([]*node, c.nodes)
	for i := range nodes {
		srv := robustset.NewServer()
		defer srv.Close()
		pts := append(append([]robustset.Point{}, common...), extras[i]...)
		if _, err := srv.PublishSharded("bench", params, pts, c.shards); err != nil {
			res.Err = err.Error()
			return res
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			res.Err = err.Error()
			return res
		}
		go srv.Serve(ln)
		nodes[i] = &node{srv: srv, addr: ln.Addr().String()}
	}
	res.BuildNS = time.Since(buildStart).Nanoseconds()

	reps := make([]*robustset.Replicator, c.nodes)
	for i, nd := range nodes {
		var peers []robustset.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, robustset.Peer{Name: fmt.Sprintf("n%d", j), Addr: other.addr})
			}
		}
		rep, err := robustset.NewReplicator(nd.srv, peers,
			robustset.WithReplicatorStrategy(c.strategy),
			robustset.WithPeerSelector(robustset.SelectRoundRobin(len(peers))),
			robustset.WithRoundTimeout(5*time.Minute),
		)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		defer rep.Close()
		reps[i] = rep
	}

	snapshot := func(nd *node) []robustset.Point {
		var out []robustset.Point
		for _, name := range nd.srv.Datasets() {
			out = append(out, nd.srv.Dataset(name).Snapshot()...)
		}
		return out
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	const maxSweeps = 16
	start := time.Now()
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		for i, rep := range reps {
			st, err := rep.RunRound(ctx)
			if err != nil {
				res.Err = fmt.Sprintf("node %d round %d: %v", i, sweep, err)
				return res
			}
			res.WireBytes += st.Bytes
			if st.Errors > 0 {
				res.Err = fmt.Sprintf("node %d round %d: %d session errors", i, sweep, st.Errors)
				return res
			}
		}
		ref := snapshot(nodes[0])
		converged := true
		for _, nd := range nodes[1:] {
			if !robustset.EqualMultisets(ref, snapshot(nd)) {
				converged = false
				break
			}
		}
		if converged {
			res.Rounds = sweep
			res.ResultSize = len(ref)
			break
		}
	}
	res.SyncNS = time.Since(start).Nanoseconds()
	if res.Rounds == 0 {
		res.Err = fmt.Sprintf("no convergence after %d sweeps", maxSweeps)
		return res
	}
	if want := c.n + c.nodes*c.extra; res.ResultSize != want {
		res.Err = fmt.Sprintf("converged to %d points, want %d", res.ResultSize, want)
	}
	return res
}

// runClusterScenario executes the replication matrix.
func runClusterScenario(quick bool, logf func(format string, args ...any)) []Result {
	cells := clusterMatrix(quick)
	out := make([]Result, 0, len(cells))
	for i, c := range cells {
		r := runClusterCell(c)
		out = append(out, r)
		if r.Err != "" {
			logf("[cluster %d/%d] %-16s n=%-8d nodes=%d shards=%d ERROR: %s",
				i+1, len(cells), r.Strategy, r.N, r.Nodes, r.Shards, r.Err)
			continue
		}
		logf("[cluster %d/%d] %-16s n=%-8d nodes=%d shards=%d rounds=%d sync=%-12s wire=%dB",
			i+1, len(cells), r.Strategy, r.N, r.Nodes, r.Shards, r.Rounds,
			time.Duration(r.SyncNS), r.WireBytes)
	}
	return out
}

// ratelessCell is one rateless-vs-doubling comparison scenario: n shared
// base points plus diff Alice-only extras, optionally skewed so the
// strata estimate collapses.
type ratelessCell struct {
	n      int
	diff   int
	skewed bool
}

// ratelessMatrix enumerates the comparison scenarios. Differences are
// kept ≥ a couple thousand keys so the fixed strata-estimator bytes —
// identical on both paths — do not wash out the cell-stream comparison.
func ratelessMatrix(quick bool) []ratelessCell {
	grid := []struct{ n, diff int }{{10_000, 2_000}, {100_000, 8_000}, {1_000_000, 10_000}}
	if quick {
		grid = []struct{ n, diff int }{{2_000, 800}}
	}
	var cells []ratelessCell
	for _, g := range grid {
		cells = append(cells,
			ratelessCell{n: g.n, diff: g.diff, skewed: false},
			ratelessCell{n: g.n, diff: g.diff, skewed: true},
		)
	}
	return cells
}

// ratelessSeed is the shared session seed of the rateless scenario; the
// skew miner must derive the same strata sampling hash the protocols
// will, so it is fixed here.
const ratelessSeed = 77

// ratelessWorkload builds the comparison instance: identical base sets in
// the lower coordinate stripe plus diff Alice-only extras in the upper
// stripe. With skewed set, every extra is rejection-sampled onto stratum
// 0 of the protocols' strata estimator — half the key space, so the skew
// is cheap to mine yet collapses the difference estimate toward zero
// (everything above stratum 0 sees nothing, and stratum 0 itself is far
// too loaded to decode).
func ratelessWorkload(u robustset.Universe, n, diff int, skewed bool, seed uint64) (alice, bob []robustset.Point, err error) {
	inst, err := workload.Generate(workload.Config{
		N:        n,
		Universe: points.Universe{Dim: u.Dim, Delta: u.Delta / 2},
		Seed:     seed,
	})
	if err != nil {
		return nil, nil, err
	}
	bob = inst.Bob
	alice = robustset.ClonePoints(bob)

	st, err := sketch.NewStrata(sketch.StrataConfig{
		KeyLen: points.EncodedSize(u.Dim) + 4,
		Seed:   hashutil.DeriveSeed(ratelessSeed, "exact/strata"),
	})
	if err != nil {
		return nil, nil, err
	}
	h := hashutil.NewHasher(hashutil.DeriveSeed(seed, "bench/rateless-extra"))
	seen := make(map[string]bool, diff)
	stripe := u.Delta - u.Delta/2
	for i, attempt := 0, uint64(0); i < diff; attempt++ {
		p := make(robustset.Point, u.Dim)
		for k := 0; k < u.Dim; k++ {
			p[k] = u.Delta/2 + int64(h.HashUint64(uint64(k)<<48|attempt)%uint64(stripe))
		}
		enc := points.EncodeNew(p)
		if seen[string(enc)] {
			continue
		}
		// Occurrence index 0: extras are distinct and disjoint from the
		// base stripe, so this is the exact wire key both protocols hash.
		key := points.OccurrenceKeys([]robustset.Point{p}, u.Dim)[0]
		if skewed && st.StratumOf(key) != 0 {
			continue
		}
		seen[string(enc)] = true
		alice = append(alice, p)
		i++
	}
	return alice, bob, nil
}

// runRatelessCell measures one comparison: the rateless stream and the
// doubling-retry path on the identical workload, both required to
// converge exactly (the doubling path gets unlimited-in-practice retries,
// so the comparison is bytes at equal decode success).
func runRatelessCell(c ratelessCell) Result {
	res := Result{
		Strategy: robustset.Rateless{}.Name(), Mode: "rateless",
		N: c.n, DiffRate: float64(c.diff) / float64(c.n),
		Dim: 2, Delta: 1 << 20, Regime: "exact",
		Estimate: "accurate",
	}
	if c.skewed {
		res.Estimate = "undershoot"
	}
	u := robustset.Universe{Dim: res.Dim, Delta: res.Delta}
	params := robustset.Params{Universe: u, Seed: ratelessSeed, DiffBudget: c.diff + 4}
	alice, bob, err := ratelessWorkload(u, c.n, c.diff, c.skewed, uint64(c.n)*17+uint64(c.diff))
	if err != nil {
		res.Err = err.Error()
		return res
	}
	rOut, rSt, rNS, err := exchange(robustset.Rateless{}, params, alice, bob)
	if err != nil {
		res.Err = "rateless: " + err.Error()
		return res
	}
	dOut, dSt, _, err := exchange(robustset.ExactIBLT{MaxRetries: 24}, params, alice, bob)
	if err != nil {
		res.Err = "doubling: " + err.Error()
		return res
	}
	if !robustset.EqualMultisets(rOut.SPrime, alice) || !robustset.EqualMultisets(dOut.SPrime, alice) {
		res.Err = "paths did not converge to Alice's multiset"
		return res
	}
	res.WireBytes, res.BaselineBytes = rSt.Total(), dSt.Total()
	res.SyncNS = rNS
	res.ResultSize = len(rOut.SPrime)
	return res
}

// runRatelessScenario executes the comparison matrix.
func runRatelessScenario(quick bool, logf func(format string, args ...any)) []Result {
	cells := ratelessMatrix(quick)
	out := make([]Result, 0, len(cells))
	for i, c := range cells {
		r := runRatelessCell(c)
		out = append(out, r)
		if r.Err != "" {
			logf("[rateless %d/%d] n=%-8d diff=%-6d %-10s ERROR: %s",
				i+1, len(cells), r.N, c.diff, r.Estimate, r.Err)
			continue
		}
		logf("[rateless %d/%d] n=%-8d diff=%-6d %-10s wire=%dB baseline=%dB (×%.2f)",
			i+1, len(cells), r.N, c.diff, r.Estimate, r.WireBytes, r.BaselineBytes,
			float64(r.WireBytes)/float64(r.BaselineBytes))
	}
	return out
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
		res.Err = err.Error()
		return res
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
		res.Err = err.Error()
		return res
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
		res.Err = err.Error()
		return res
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
		res.Err = err.Error()
		return res
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
		res.Err = err.Error()
		return res
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
	// delta-proportionality, not the fixed per-session strata overhead.
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
	u := robustset.Universe{Dim: res.Dim, Delta: res.Delta}
	params := robustset.Params{Universe: u, Seed: 733, DiffBudget: nodes*c.extra + c.missed + 8}
	common, extras := clusterWorkload(u, c.n, nodes, c.extra, uint64(c.n)*41+uint64(c.missed))

	dirs := make([]string, nodes)
	for i := range dirs {
		dir, err := os.MkdirTemp("", "bench-rejoin-*")
		if err != nil {
			res.Err = err.Error()
			return res
		}
		defer os.RemoveAll(dir)
		dirs[i] = dir
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	srvs := make([]*robustset.Server, nodes)
	addrs := make([]string, nodes)
	start := func(i int, pts []robustset.Point) error {
		srv := robustset.NewServer(robustset.WithServerDataDir(dirs[i]))
		if _, err := srv.PublishDurable("bench", params, pts); err != nil {
			return err
		}
		laddr := "127.0.0.1:0"
		if addrs[i] != "" {
			laddr = addrs[i]
		}
		ln, err := net.Listen("tcp", laddr)
		if err != nil {
			srv.Close()
			return err
		}
		go srv.Serve(ln)
		srvs[i], addrs[i] = srv, ln.Addr().String()
		return nil
	}
	for i := range srvs {
		pts := append(append([]robustset.Point{}, common...), extras[i]...)
		if err := start(i, pts); err != nil {
			res.Err = err.Error()
			return res
		}
		defer func(i int) { srvs[i].Close() }(i)
	}
	reps := make([]*robustset.Replicator, nodes)
	newRep := func(i int) (*robustset.Replicator, error) {
		var peers []robustset.Peer
		for j := range srvs {
			if j != i {
				peers = append(peers, robustset.Peer{Name: fmt.Sprintf("n%d", j), Addr: addrs[j]})
			}
		}
		return robustset.NewReplicator(srvs[i], peers,
			robustset.WithReplicatorStrategy(robustset.Rateless{}),
			robustset.WithPeerSelector(robustset.SelectRoundRobin(nodes-1)),
			robustset.WithRoundTimeout(5*time.Minute),
		)
	}
	for i := range reps {
		rep, err := newRep(i)
		if err != nil {
			res.Err = err.Error()
			return res
		}
		defer func(i int) { reps[i].Close() }(i)
		reps[i] = rep
	}
	converge := func(idx []int) (int, error) {
		for sweep := 1; sweep <= 16; sweep++ {
			for _, i := range idx {
				if _, err := reps[i].RunRound(ctx); err != nil {
					return 0, fmt.Errorf("node %d round: %w", i, err)
				}
			}
			ref := srvs[idx[0]].Dataset("bench").Snapshot()
			ok := true
			for _, i := range idx[1:] {
				if !robustset.EqualMultisets(ref, srvs[i].Dataset("bench").Snapshot()) {
					ok = false
					break
				}
			}
			if ok {
				return sweep, nil
			}
		}
		return 0, fmt.Errorf("no convergence after 16 sweeps")
	}
	if _, err := converge([]int{0, 1, 2}); err != nil {
		res.Err = err.Error()
		return res
	}

	// Node 2 goes down; the survivors absorb the missed delta — distinct
	// points mined against the converged multiset so the expected counts
	// stay exact — and re-converge without it.
	reps[2].Close()
	if err := srvs[2].Close(); err != nil {
		res.Err = err.Error()
		return res
	}
	seen := make(map[string]bool, c.n+nodes*c.extra)
	for _, pt := range srvs[0].Dataset("bench").Snapshot() {
		seen[string(points.EncodeNew(pt))] = true
	}
	h := hashutil.NewHasher(hashutil.DeriveSeed(uint64(c.n), "bench/rejoin-delta"))
	delta := make([]robustset.Point, 0, c.missed)
	for attempt := uint64(0); len(delta) < c.missed; attempt++ {
		p := robustset.Point{
			int64(h.HashUint64(attempt) % uint64(u.Delta)),
			int64(h.HashUint64(attempt^0x5bf03635) % uint64(u.Delta)),
		}
		enc := string(points.EncodeNew(p))
		if seen[enc] {
			continue
		}
		seen[enc] = true
		delta = append(delta, p)
	}
	if err := srvs[0].Dataset("bench").AddBatch(delta); err != nil {
		res.Err = err.Error()
		return res
	}
	if _, err := converge([]int{0, 1}); err != nil {
		res.Err = err.Error()
		return res
	}
	downSize := srvs[0].Dataset("bench").Size() - c.missed

	// Restart node 2 from its directory and rejoin: the first round's
	// traffic is the recovery cost on the wire.
	recStart := time.Now()
	if err := start(2, nil); err != nil {
		res.Err = err.Error()
		return res
	}
	res.RecoveryNS = time.Since(recStart).Nanoseconds()
	if got := srvs[2].Dataset("bench").Size(); got != downSize {
		res.Err = fmt.Sprintf("recovered node holds %d points, held %d at shutdown", got, downSize)
		return res
	}
	rep, err := newRep(2)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	reps[2] = rep
	rejoinStart := time.Now()
	st, err := reps[2].RunRound(ctx)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.WireBytes = st.Bytes
	sweeps, err := converge([]int{0, 1, 2})
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.SyncNS = time.Since(rejoinStart).Nanoseconds()
	res.Rounds = 1 + sweeps
	res.ResultSize = srvs[0].Dataset("bench").Size()
	// The contracted baseline: a naive full-set transfer of the dataset
	// the node already held on disk.
	res.BaselineBytes = int64(len(points.EncodeSet(srvs[0].Dataset("bench").Snapshot(), u.Dim)))
	if want := c.n + nodes*c.extra + c.missed; res.ResultSize != want {
		res.Err = fmt.Sprintf("converged to %d points, want %d", res.ResultSize, want)
	}
	return res
}

// runRecoveryScenario executes the durability matrix: storage-engine
// replay cells, then the cluster rejoin cells.
func runRecoveryScenario(quick bool, logf func(format string, args ...any)) []Result {
	var out []Result
	replay := recoveryReplayMatrix(quick)
	for i, c := range replay {
		r := runRecoveryReplayCell(c)
		out = append(out, r)
		if r.Err != "" {
			logf("[recovery %d/%d] replay n=%-8d every=%-5d ERROR: %s",
				i+1, len(replay)+1, r.N, c.every, r.Err)
			continue
		}
		logf("[recovery %d/%d] replay n=%-8d every=%-5d records=%d wal=%dB (amp ×%.2f) replayed=%d recovery=%-12s",
			i+1, len(replay)+1, r.N, c.every, r.WALRecords, r.WALBytes,
			float64(r.WALBytes)/float64(r.LogicalBytes), r.ReplayRecords, time.Duration(r.RecoveryNS))
	}
	rejoin := recoveryRejoinMatrix(quick)
	for i, c := range rejoin {
		r := runRecoveryRejoinCell(c)
		out = append(out, r)
		if r.Err != "" {
			logf("[recovery %d/%d] rejoin n=%-8d missed=%-5d ERROR: %s",
				len(replay)+i+1, len(replay)+len(rejoin), r.N, c.missed, r.Err)
			continue
		}
		logf("[recovery %d/%d] rejoin n=%-8d missed=%-5d recovery=%-12s wire=%dB full=%dB (×%.3f) rounds=%d",
			len(replay)+i+1, len(replay)+len(rejoin), r.N, c.missed,
			time.Duration(r.RecoveryNS), r.WireBytes, r.BaselineBytes,
			float64(r.WireBytes)/float64(r.BaselineBytes), r.Rounds)
	}
	return out
}

// runMatrix executes every cell in order.
func runMatrix(cells []cell, logf func(format string, args ...any)) []Result {
	out := make([]Result, 0, len(cells))
	for i, c := range cells {
		r := runCell(c)
		out = append(out, r)
		at := fmt.Sprintf("[%3d/%d] %-3s %-16s n=%-8d rate=%-6g dim=%d", i+1, len(cells), r.Sweep, r.Strategy, r.N, r.DiffRate, r.Dim)
		switch {
		case r.Skipped:
			logf("%s SKIP: %s", at, r.SkipReason)
		case r.Err != "":
			logf("%s ERROR: %s", at, r.Err)
		default:
			logf("%s build=%-12s sync=%-12s wire=%dB", at, time.Duration(r.BuildNS), time.Duration(r.SyncNS), r.WireBytes)
		}
	}
	return out
}

// scenarios are what -mode selects, in run order.
var scenarios = []struct {
	name string
	run  func(quick bool, logf func(format string, args ...any)) []Result
}{
	{"core", func(quick bool, logf func(string, ...any)) []Result { return runMatrix(matrix(quick), logf) }},
	{"cluster", runClusterScenario},
	{"rateless", runRatelessScenario},
	{"ranges", runRangesScenario},
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
// version match, every strategy covered, and every non-skipped row
// carrying real measurements. CI runs this as its drift gate.
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
	rangesRows := 0
	ratelessRows := map[string]int{}
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
		if r.Skipped {
			if r.SkipReason == "" {
				return fmt.Errorf("bench: result %d (%s) skipped without a reason", i, r.Strategy)
			}
			continue
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
		if r.Mode == "ranges" {
			if r.BaselineBytes <= 0 {
				return fmt.Errorf("bench: ranges result %d carries no exact-IBLT baseline", i)
			}
			if r.Rounds < 1 || r.BaselineRounds < 1 || r.MuxStreams < 2 {
				return fmt.Errorf("bench: ranges result %d carries no pipelined round-depth comparison", i)
			}
			// The divide-and-conquer contract: the probe tree has no fixed
			// cost, so the matrix's tiny differences move under 1 KB a
			// differing key (0.57–0.83 KB from 2·10^4 to 10^6 points).
			// The ratio to the exact-IBLT path is recorded, not gated: it
			// reads 0.78–1.05× since the cell codec took that path's
			// strata estimator from 17 KB to 7 (DESIGN.md "Range-based
			// reconciliation").
			if delta := int64(r.DiffRate*float64(r.N) + 0.5); r.WireBytes > delta<<10 {
				return fmt.Errorf("bench: ranges result %d (n=%d): %d wire bytes for %d differing keys exceeds 1 KB a key",
					i, r.N, r.WireBytes, delta)
			}
			// The pipelining contract: reconciling sibling subranges as
			// concurrent mux streams must cut the sequential round-trip
			// depth well below the serial run's. It is enforced on the
			// quick reports CI measures fresh and recorded, not gated, in
			// the committed trajectory.
			if rep.Quick {
				if ratio := float64(r.Rounds) / float64(r.BaselineRounds); ratio > 0.6 {
					return fmt.Errorf("bench: ranges result %d (n=%d): pipelined/serial round ratio %.2f exceeds 0.6", i, r.N, ratio)
				}
			}
			rangesRows++
		}
		if r.Mode == "rateless" {
			if r.Estimate != "accurate" && r.Estimate != "undershoot" {
				return fmt.Errorf("bench: rateless result %d carries estimate regime %q", i, r.Estimate)
			}
			if r.BaselineBytes <= 0 {
				return fmt.Errorf("bench: rateless result %d carries no doubling baseline", i)
			}
			// The robustness contract: streaming increments must beat the
			// doubling-retry path decisively when the estimate collapses,
			// and must never cost materially more when it is accurate.
			ratio := float64(r.WireBytes) / float64(r.BaselineBytes)
			switch r.Estimate {
			case "undershoot":
				if ratio > 0.6 {
					return fmt.Errorf("bench: rateless result %d (n=%d): undershoot wire ratio %.2f exceeds 0.6", i, r.N, ratio)
				}
			case "accurate":
				if ratio > 1.1 {
					return fmt.Errorf("bench: rateless result %d (n=%d): accurate wire ratio %.2f exceeds 1.1", i, r.N, ratio)
				}
			}
			ratelessRows[r.Estimate]++
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
	if has("rateless") && (ratelessRows["accurate"] == 0 || ratelessRows["undershoot"] == 0) {
		return fmt.Errorf("bench: rateless scenario incomplete: %d accurate / %d undershoot rows",
			ratelessRows["accurate"], ratelessRows["undershoot"])
	}
	if has("ranges") && rangesRows == 0 {
		return fmt.Errorf("bench: no successful range-reconciliation comparison result")
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
