package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"

	"robustset"
	"robustset/internal/emd"
	"robustset/internal/hashutil"
	"robustset/internal/points"
	"robustset/internal/workload"
)

// universe is d = 2, Δ = 2^20 on every workload.
var universe = robustset.Universe{Dim: 2, Delta: 1 << 20}

const (
	// noisyBudget is the DiffBudget of the two noisy workloads. With
	// n = 20 000, k = 64 and noise ±4 a level of cell width w holds about
	// 128 + 160000/w difference keys; 2·160 keys of capacity sit between
	// width 1024 (≈284 keys, always decodes) and width 512 (≈440, never),
	// so every seed reconciles at level 10. A budget of 84 sits on the
	// 4096/2048 boundary and flips level from seed to seed.
	noisyBudget = 160
	// adaptiveMaxLevel clamps adaptive_noisy to the level robust_noisy
	// decodes at — the "party that knows the noise scale" configuration.
	// Unclamped, the bottom-k estimators resolve a 284-key difference of
	// 40 000 keys too coarsely to pick the same level twice.
	adaptiveMaxLevel = 10
	// adaptiveEstimatorK follows core.ChooseLevel's advice (k ≈ n/32).
	adaptiveEstimatorK = 1024
	// noisyInstances independent instances are served side by side and
	// fetched in rotation, so one run averages over them.
	noisyInstances = 4

	churnBatch  = 32 // points per AddBatch / RemoveBatch
	churnPeriod = 64 // cycles after which the server set repeats

	clusterShards  = 16
	clusterWorkers = 2
	clusterBudget  = 16 // DiffBudget of a shard's sketch: ~44 KB per session
)

// sizes are the point counts of a run; smoke divides them by ten.
type sizes struct {
	n        int // points per party on the session workloads
	outliers int
	perShard int
}

func (c config) sizes() sizes {
	if c.smoke {
		return sizes{n: 2000, outliers: 64, perShard: 200}
	}
	return sizes{n: 20000, outliers: 64, perShard: 2000}
}

// live is one set-up serving stack with its closed-loop caller.
type live interface {
	// op runs op number i — ops are numbered from 0 and run in order —
	// and checks what every op can afford to check.
	op(ctx context.Context, i int) error
	// verify checks the most recent op's result completely.
	verify() error
	// wireBytes is what the sessions' streams have carried so far, both
	// directions. Mux framing and its credit frames are not in it: when
	// a credit frame is due depends on timing, and a count must repeat.
	wireBytes() int64
	// emdRatio is computed from the verified results, after the window.
	emdRatio() (float64, error)
	close()
}

// observers are the program's own tracing and metrics switches, off in
// every measurement except trace.overhead_ratio.
type observers struct {
	server     []robustset.ServerOption
	session    []robustset.Option
	replicator []robustset.ReplicatorOption
}

func observed() observers {
	tl := robustset.NewTraceLog()
	m := robustset.NewMetrics()
	return observers{
		server:     []robustset.ServerOption{robustset.WithServerTracing(tl), robustset.WithServerMetrics(m)},
		session:    []robustset.Option{robustset.WithSessionTrace(func(*robustset.SessionTrace) {})},
		replicator: []robustset.ReplicatorOption{robustset.WithReplicatorTracing(tl), robustset.WithReplicatorMetrics(m)},
	}
}

// workloadDef names one workload. generate builds its inputs from the
// seed alone; the returned function sets the stack up, through the first
// verified op, in a fresh directory.
type workloadDef struct {
	name   string
	why    string
	period int // ops after which the schedule repeats; counts are taken over whole periods
	// generate returns the set-up function and the inputs the layer
	// probes run on.
	generate func(c config) (setupFunc, probeInputs, error)
}

type setupFunc func(ctx context.Context, dir string, obs observers) (live, error)

var workloads = []workloadDef{
	{
		name:   "robust_noisy",
		why:    "paper's headline regime: one-shot sketch of a cached blob, so client-side core, iblt and grid do the work and ~340 KB crosses the wire",
		period: noisyInstances,
		generate: func(c config) (setupFunc, probeInputs, error) {
			return genNoisy(c, robustset.Robust{}, 0)
		},
	},
	{
		name:   "adaptive_noisy",
		why:    "same instances estimate-first: fewer bytes, but the server snapshots and rebuilds estimators and a level table per session",
		period: noisyInstances,
		generate: func(c config) (setupFunc, probeInputs, error) {
			opts := robustset.AdaptiveOptions{EstimatorK: adaptiveEstimatorK}
			return genNoisy(c, robustset.Adaptive{Options: opts}, adaptiveMaxLevel)
		},
	},
	{
		name:     "exact_churn_durable",
		why:      "write path beside read path: WAL, snapshots and maintainer updates between rateless fetches that track a 64-point difference",
		period:   churnPeriod,
		generate: genChurn,
	},
	{
		name:     "cluster_quiescent",
		why:      "anti-entropy steady state: 16 converged shard sessions per round, so handshake, mux and cluster overhead dominate and peeling is idle",
		period:   1,
		generate: genCluster,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// serve publishes nothing itself: it starts srv on a loopback listener
// and returns the address. Server.Close stops the accept loop.
func serve(srv *robustset.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// ---------------------------------------------------------------------
// robust_noisy and adaptive_noisy

type noisyLive struct {
	insts  []*workload.Instance
	params []robustset.Params
	srv    *robustset.Server
	cl     *robustset.Client
	sess   []*robustset.ClientSession
	// ref[j] is instance j's first result; every later one must equal it.
	ref   []*robustset.SyncResult
	bytes int64
}

func genNoisy(c config, strat robustset.Strategy, maxLevel int) (setupFunc, probeInputs, error) {
	sz := c.sizes()
	insts := make([]*workload.Instance, noisyInstances)
	params := make([]robustset.Params, noisyInstances)
	for j := range insts {
		inst, err := workload.Generate(workload.Config{
			N: sz.n, Universe: universe, Outliers: sz.outliers,
			Noise: workload.NoiseUniform, Scale: 4,
			Seed: hashutil.DeriveSeedN(c.seed, "noisy/instance", j),
		})
		if err != nil {
			return nil, probeInputs{}, err
		}
		insts[j] = inst
		params[j] = robustset.Params{
			Universe:   universe,
			Seed:       hashutil.DeriveSeedN(c.seed, "noisy/params", j),
			DiffBudget: noisyBudget,
		}
		if maxLevel > 0 {
			params[j] = params[j].WithLevels(0, maxLevel)
		}
	}
	setup := func(ctx context.Context, _ string, obs observers) (live, error) {
		e := &noisyLive{insts: insts, params: params, ref: make([]*robustset.SyncResult, len(insts))}
		e.srv = robustset.NewServer(obs.server...)
		for j, inst := range insts {
			if _, err := e.srv.Publish(noisyName(j), params[j], inst.Alice); err != nil {
				return nil, err
			}
		}
		addr, err := serve(e.srv)
		if err != nil {
			return nil, err
		}
		if e.cl, err = robustset.DialClient(ctx, addr); err != nil {
			e.close()
			return nil, err
		}
		for j := range insts {
			cs, err := e.cl.Session(noisyName(j), strat, obs.session...)
			if err != nil {
				e.close()
				return nil, err
			}
			e.sess = append(e.sess, cs)
		}
		if err := e.op(ctx, 0); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}
	pi := probeInputs{params: params[0], alice: insts[0].Alice, bob: insts[0].Bob, strategy: strat, sessions: 1, workers: 1}
	return setup, pi, nil
}

func noisyName(j int) string { return fmt.Sprintf("noisy/%d", j) }

func (e *noisyLive) op(ctx context.Context, i int) error {
	j := i % len(e.sess)
	res, st, err := e.sess[j].Fetch(ctx, e.insts[j].Bob)
	e.bytes += st.Total()
	if err != nil {
		return err
	}
	switch {
	case res.Robust == nil || len(res.SPrime) != len(e.insts[j].Bob):
		return fmt.Errorf("instance %d: result of %d points, want %d", j, len(res.SPrime), len(e.insts[j].Bob))
	case e.ref[j] == nil:
		e.ref[j] = res
	case !samePoints(res.SPrime, e.ref[j].SPrime):
		return fmt.Errorf("instance %d: result differs from its first result", j)
	}
	return nil
}

// verify has nothing to add: op already compares every result, point by
// point, with the instance's first one.
func (e *noisyLive) verify() error { return nil }

func (e *noisyLive) wireBytes() int64 { return e.bytes }

// emdRatio is the mean over instances of EMD(S_A, S′_B) / EMD(S_A, S*_B),
// both under the instance's own pairing; see pairedEMD.
func (e *noisyLive) emdRatio() (float64, error) {
	var sum float64
	for j, inst := range e.insts {
		if e.ref[j] == nil {
			return 0, fmt.Errorf("instance %d was never fetched", j)
		}
		got, err := pairedEMD(inst, e.ref[j].Robust)
		if err != nil {
			return 0, err
		}
		// PairNoiseL1 is the cost of S*_B: Bob's paired points stay, his
		// k unpaired points become Alice's outliers at cost 0.
		sum += got / inst.PairNoiseL1
	}
	return max(1, sum/float64(len(e.insts))), nil
}

func (e *noisyLive) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	e.srv.Close()
}

// samePoints reports whether a and b hold equal points in equal order.
func samePoints(a, b []robustset.Point) bool {
	return slices.EqualFunc(a, b, robustset.Point.Equal)
}

// pairedEMD is the ℓ1 cost of matching Alice's set to S′_B = Bob −
// Removed + Added when every pair (Alice[i], Bob[i]) the protocol left
// alone stays matched and the rest — Alice's outliers and the partners
// of removed points against the added cell centres and Bob's surviving
// unpaired points — is assigned exactly. Noise (≤ 8) is far below the
// point spacing (≈ 7000), so this is the EMD for all practical purposes;
// it is exact where emd.GridApprox is off by O(d·logΔ) with a heavy tail
// that made the ratio swing between 1.4 and 3.1 from seed to seed.
func pairedEMD(inst *workload.Instance, res *robustset.Result) (float64, error) {
	byValue := make(map[string][]int, len(inst.Bob))
	for i, pt := range inst.Bob {
		k := string(points.EncodeNew(pt))
		byValue[k] = append(byValue[k], i)
	}
	removed := make([]bool, len(inst.Bob))
	for _, pt := range res.Removed {
		k := string(points.EncodeNew(pt))
		idx := byValue[k]
		if len(idx) == 0 {
			return 0, fmt.Errorf("removed point %v is not one of Bob's", pt)
		}
		removed[idx[len(idx)-1]] = true
		byValue[k] = idx[:len(idx)-1]
	}
	outlier := make([]bool, len(inst.Bob))
	for _, i := range inst.OutlierIdx {
		outlier[i] = true
	}
	restA, restB := []robustset.Point{}, robustset.ClonePoints(res.Added)
	var cost float64
	for i := range inst.Bob {
		switch {
		case !outlier[i] && !removed[i]:
			cost += points.L1.Distance(inst.Alice[i], inst.Bob[i])
		case outlier[i] && !removed[i]:
			restA, restB = append(restA, inst.Alice[i]), append(restB, inst.Bob[i])
		default:
			restA = append(restA, inst.Alice[i])
		}
	}
	rest, err := emd.Exact(restA, restB, points.L1)
	if err != nil {
		return 0, fmt.Errorf("residual assignment (%d × %d): %w", len(restA), len(restB), err)
	}
	return cost + rest, nil
}

// ---------------------------------------------------------------------
// exact_churn_durable

type churnLive struct {
	n     int
	pool  []robustset.Point // churnPeriod batches of churnBatch points
	srv   *robustset.Server
	d     *robustset.Dataset
	cl    *robustset.Client
	sess  *robustset.ClientSession
	local []robustset.Point // the client's set: the previous fetch's result
	bytes int64
}

// genChurn draws n + 32·32 points: a base every cycle keeps and a pool
// of 64 batches of which the server always holds 32 consecutive ones,
// batches 32..63 to begin with. Cycle i adds batch i and removes batch
// i+32 (mod 64), so after 64 cycles the server set is the initial one
// again and every period does identical work.
func genChurn(c config) (setupFunc, probeInputs, error) {
	sz := c.sizes()
	half := churnPeriod / 2 * churnBatch
	inst, err := workload.Generate(workload.Config{
		N: sz.n + half, Universe: universe, Noise: workload.NoiseNone,
		Seed: hashutil.DeriveSeed(c.seed, "churn/points"),
	})
	if err != nil {
		return nil, probeInputs{}, err
	}
	pool := inst.Bob[:churnPeriod*churnBatch]
	initial := inst.Bob[half:] // batches 32..63 and the base
	p := robustset.Params{Universe: universe, Seed: hashutil.DeriveSeed(c.seed, "churn/params"), DiffBudget: 84}
	setup := func(ctx context.Context, dir string, obs observers) (live, error) {
		e := &churnLive{n: sz.n, pool: pool, local: robustset.ClonePoints(initial)}
		opts := append([]robustset.ServerOption{
			robustset.WithServerDataDir(dir),
			// SyncNone: the cycle time measures the program, not a shared disk.
			robustset.WithServerFsync(robustset.SyncNone),
			robustset.WithServerSnapshotEvery(256),
		}, obs.server...)
		e.srv = robustset.NewServer(opts...)
		if e.d, err = e.srv.PublishDurable("churn", p, initial); err != nil {
			return nil, err
		}
		addr, err := serve(e.srv)
		if err != nil {
			e.close()
			return nil, err
		}
		if e.cl, err = robustset.DialClient(ctx, addr); err != nil {
			e.close()
			return nil, err
		}
		if e.sess, err = e.cl.Session("churn", robustset.Rateless{}, obs.session...); err != nil {
			e.close()
			return nil, err
		}
		if err := errors.Join(e.op(ctx, 0), e.verify()); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}
	// The probes see one cycle's difference: the server after cycle 0
	// against the client before it.
	after := append(robustset.ClonePoints(inst.Bob[:churnBatch]), inst.Bob[half+churnBatch:]...)
	pi := probeInputs{params: p, alice: after, bob: initial, strategy: robustset.Rateless{}, sessions: 1, workers: 1}
	return setup, pi, nil
}

// batch returns pool batch i mod 64.
func (e *churnLive) batch(i int) []robustset.Point {
	i %= churnPeriod
	return e.pool[i*churnBatch : (i+1)*churnBatch]
}

func (e *churnLive) op(ctx context.Context, i int) error {
	if err := e.d.AddBatch(e.batch(i)); err != nil {
		return err
	}
	if err := e.d.RemoveBatch(e.batch(i + churnPeriod/2)); err != nil {
		return err
	}
	res, st, err := e.sess.Fetch(ctx, e.local)
	e.bytes += st.Total()
	if err != nil {
		return err
	}
	if len(res.SPrime) != e.n {
		return fmt.Errorf("cycle %d: result of %d points, want %d", i, len(res.SPrime), e.n)
	}
	e.local = res.SPrime
	return nil
}

func (e *churnLive) verify() error {
	if !robustset.EqualMultisets(e.local, e.d.Snapshot()) {
		return errors.New("fetched set differs from the server's snapshot")
	}
	return nil
}

func (e *churnLive) wireBytes() int64 { return e.bytes }

// emdRatio is 1 by construction: verify has shown the sets equal.
func (e *churnLive) emdRatio() (float64, error) { return 1, e.verify() }

func (e *churnLive) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	e.srv.Close()
}

// ---------------------------------------------------------------------
// cluster_quiescent

type clusterLive struct {
	nodes [2]*robustset.Server
	addrs [2]string
	sets  [2]*robustset.ShardedDataset
	rep   *robustset.Replicator
	bytes int64
	last  robustset.RoundStats
}

func genCluster(c config) (setupFunc, probeInputs, error) {
	sz := c.sizes()
	inst, err := workload.Generate(workload.Config{
		N: clusterShards * sz.perShard, Universe: universe, Noise: workload.NoiseNone,
		Seed: hashutil.DeriveSeed(c.seed, "cluster/points"),
	})
	if err != nil {
		return nil, probeInputs{}, err
	}
	p := robustset.Params{Universe: universe, Seed: hashutil.DeriveSeed(c.seed, "cluster/params"), DiffBudget: clusterBudget}
	setup := func(ctx context.Context, _ string, obs observers) (live, error) {
		return setupCluster(ctx, p, inst.Bob, obs)
	}
	pi := probeInputs{params: p, alice: inst.Bob, bob: inst.Bob, strategy: robustset.Robust{}, sessions: clusterShards, workers: clusterWorkers}
	return setup, pi, nil
}

// setupCluster starts two nodes publishing pts in 16 shards and a
// replicator on the first that pulls from the second: mux transport,
// default Robust strategy, two workers.
func setupCluster(ctx context.Context, p robustset.Params, pts []robustset.Point, obs observers) (*clusterLive, error) {
	e := &clusterLive{}
	for i := range e.nodes {
		e.nodes[i] = robustset.NewServer(obs.server...)
		var err error
		if e.sets[i], err = e.nodes[i].PublishSharded("cluster", p, pts, clusterShards); err == nil {
			e.addrs[i], err = serve(e.nodes[i])
		}
		if err != nil {
			e.close()
			return nil, err
		}
	}
	opts := append([]robustset.ReplicatorOption{
		robustset.WithReplicatorMux(), robustset.WithReplicatorWorkers(clusterWorkers),
	}, obs.replicator...)
	var err error
	if e.rep, err = robustset.NewReplicator(e.nodes[0], []robustset.Peer{{Name: "peer", Addr: e.addrs[1]}}, opts...); err != nil {
		e.close()
		return nil, err
	}
	if err := errors.Join(e.op(ctx, 0), e.verify()); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *clusterLive) op(ctx context.Context, _ int) error {
	st, err := e.rep.RunRound(ctx)
	e.bytes += st.Bytes
	e.last = st
	if err != nil {
		return err
	}
	if !st.Converged || st.Errors != 0 || st.Sessions != clusterShards {
		return fmt.Errorf("round %d: converged=%v errors=%d sessions=%d, want a clean round of %d sessions",
			st.Round, st.Converged, st.Errors, st.Sessions, clusterShards)
	}
	return nil
}

func (e *clusterLive) verify() error {
	if !robustset.EqualMultisets(e.sets[0].Snapshot(), e.sets[1].Snapshot()) {
		return errors.New("the two nodes hold different sets")
	}
	return nil
}

func (e *clusterLive) wireBytes() int64 { return e.bytes } // the sum of RoundStats.Bytes

func (e *clusterLive) emdRatio() (float64, error) { return 1, e.verify() }

func (e *clusterLive) close() {
	if e.rep != nil {
		e.rep.Close()
	}
	for _, srv := range e.nodes {
		if srv != nil {
			srv.Close()
		}
	}
}

// freshDir makes an empty directory under the run's output directory;
// nothing the benchmark writes lands anywhere else.
func freshDir(c config, pattern string) (string, error) {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.outDir, pattern)
}
