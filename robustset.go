// Package robustset implements robust set reconciliation (Chen, Konrad,
// Yi, Yu, Zhang — SIGMOD 2014): one-way synchronization of point
// multisets that treats close points as equal.
//
// Two parties, Alice and Bob, each hold n points in a discretized metric
// space [Δ]^d. Most of Alice's points are noisy copies of Bob's (sensor
// noise, float rounding, lossy compression); at most k are genuinely new.
// Classic set reconciliation counts every noisy pair as two differences
// and therefore costs Θ(n); this package lets Bob compute a multiset S'_B
// whose Earth Mover's Distance to Alice's data is within an O(d) factor
// of the unavoidable optimum EMD_k, at a communication cost proportional
// to k — independent of n.
//
// The construction combines a randomly shifted hierarchical grid (a
// randomly offset quadtree) with Invertible Bloom Lookup Tables: for each
// grid resolution Alice sends an O(k)-cell IBLT of her points rounded to
// grid cells; Bob subtracts his own and repairs his multiset at the
// finest resolution that decodes. See DESIGN.md for the full architecture
// and internal/core for the protocol implementation.
//
// # Quick start
//
//	u := robustset.Universe{Dim: 2, Delta: 1 << 20}
//	params := robustset.Params{Universe: u, Seed: 42, DiffBudget: 16}
//
//	sketch, err := robustset.NewSketch(params, alicePoints) // Alice
//	blob, err := sketch.MarshalBinary()                     // → network
//
//	var sk robustset.Sketch                                 // Bob
//	err = sk.UnmarshalBinary(blob)
//	res, err := robustset.Reconcile(&sk, bobPoints)
//	// res.SPrime ≈ alicePoints in Earth Mover's Distance.
//
// For connection-oriented use, build a Session: a Strategy value picks
// the wire protocol. Robust (one-shot) and Adaptive (estimate-first,
// multi-round) are the paper's; Rateless (difference digest over an
// extendable-IBLT cell stream, whose wire cost tracks the actual
// difference even when the estimate is wrong) and Naive (full transfer)
// are the classic exact schemes it benchmarks against. Session.Serve /
// Session.Fetch run it peer to peer over any net.Conn, under parameters
// both sides agree on, with context cancellation and deadlines:
//
//	sess, _ := robustset.NewSession(robustset.Robust{}, robustset.WithParams(params))
//	res, stats, err := sess.Fetch(ctx, conn, bobPoints)
//
// A Server publishes many named datasets, each backed by an
// incrementally maintained sketch (Maintainer):
//
//	srv := robustset.NewServer()
//	srv.Publish("telemetry", params, pts)
//	go srv.Serve(ln)
//
// and there is one way to reach it: DialClient opens a multiplexed
// connection, Client.Session names a dataset and a strategy, and every
// Fetch is one stream of that connection, adopting the server's
// parameters through the handshake:
//
//	cl, _ := robustset.DialClient(ctx, addr)
//	sess, _ := cl.Session("telemetry", robustset.Robust{})
//	res, stats, err := sess.Fetch(ctx, bobPoints)
//
// Datasets can be sharded (Server.PublishSharded) and retired at runtime
// (Server.Unpublish).
//
// A Replicator turns N such servers into an anti-entropy cluster: each
// node continuously reconciles every shared dataset shard with a
// rotating selection of peers and applies the diffs locally, converging
// the nodes to the identical multiset at a per-round cost that tracks
// the live delta per shard — see NewReplicator and DESIGN.md's
// "Replication & sharding".
//
// # Performance
//
// Sketch construction is the hot path of a serving deployment and is
// engineered accordingly: points are presorted once in Morton (Z-order)
// so per-level occurrence indexing is a run scan instead of a hash-map
// lookup per point per level; IBLT inserts derive all bucket indices and
// the checksum from a single keyed digest and perform no allocations;
// and the levels of the multiresolution sketch are built in parallel
// across a bounded worker pool (NewSketch uses GOMAXPROCS workers —
// byte-identical output at every worker count). On one 2.1 GHz core,
// building the default sketch over 100k 2-d points takes ~150 ms, about
// 3× faster than the naive build, and scales further with cores.
// The fetching side runs every per-level pass — the adaptive strategy's
// estimators, Bob's level tables, the repair — over the same presort,
// and builds his table for a level only when the finest-to-coarsest
// scan gets there, so reconciling equal sets costs one level. A Client
// that fetches a dataset robust again with the same local multiset
// subtracts the tables its last fetch built instead, and then neither
// keys nor presorts its points.
//
// cmd/bench runs a fixed workload matrix over all four strategies and
// writes BENCH_core.json — the repository's recorded performance
// trajectory; see DESIGN.md for the harness and the hot-path
// architecture.
package robustset

import (
	"robustset/internal/core"
	"robustset/internal/emd"
	"robustset/internal/grid"
	"robustset/internal/points"
)

// Point is a point of the universe: one int64 coordinate per dimension.
type Point = points.Point

// Universe is the discretized domain [Δ]^d. Delta must be a power of two.
type Universe = points.Universe

// Metric measures distances between points.
type Metric = points.Metric

// Ground metrics.
var (
	// L1 is the Manhattan metric (the paper's primary metric).
	L1 = points.L1
	// L2 is the Euclidean metric.
	L2 = points.L2
	// LInf is the Chebyshev metric.
	LInf = points.LInf
)

// Quantizer maps real-valued records into a Universe and back; see
// NewQuantizer for the ingestion workflow.
type Quantizer = points.Quantizer

// NewQuantizer builds the affine float→grid quantizer that turns real
// data (database rows, sensor readings) into reconcilable points: each
// coordinate's [min, max] range is mapped onto [0, Δ). A roundtrip moves
// a value by at most half a quantization step, which simply adds to the
// noise floor the protocol absorbs.
func NewQuantizer(u Universe, min, max []float64) (*Quantizer, error) {
	return points.NewQuantizer(u, min, max)
}

// Params configures a reconciliation; both parties must agree on it
// (sketches carry their Params on the wire, so in practice Bob adopts
// Alice's).
type Params = core.Params

// Sketch is Alice's transmissible summary: one IBLT per grid level.
type Sketch = core.Sketch

// Result is Bob's reconciliation outcome.
type Result = core.Result

// LevelOutcome records one level's decode attempt inside a Result.
type LevelOutcome = core.LevelOutcome

// Errors surfaced by Reconcile. See the core package for details.
var (
	// ErrNoDecodableLevel means the difference exceeded the sketch's
	// budget at every resolution; retry with a larger DiffBudget.
	ErrNoDecodableLevel = core.ErrNoDecodableLevel
	// ErrInconsistentSketch means a decoded difference contradicted the
	// local set — corruption or mismatched parameters.
	ErrInconsistentSketch = core.ErrInconsistentSketch
)

// NewSketch summarizes pts under p (Alice's side of the one-shot
// protocol). The sketch costs O(DiffBudget · levels) cells on the wire.
func NewSketch(p Params, pts []Point) (*Sketch, error) {
	return core.BuildSketch(p, pts)
}

// Maintainer keeps a sketch synchronized with a changing multiset:
// Add/Remove cost O(levels) instead of an O(n·levels) rebuild. See
// NewMaintainer.
type Maintainer = core.Maintainer

// ErrNotPresent is returned by Maintainer.Remove for points that are not
// in the maintained multiset.
var ErrNotPresent = core.ErrNotPresent

// NewMaintainer builds the sketch for the initial multiset together with
// the sorted index of its points that incremental Add/Remove updates
// read. A sync server ingesting an update stream keeps one Maintainer per
// dataset and serves Maintainer.Sketch() on demand; the maintained sketch
// is always bitwise identical to a fresh NewSketch of the current
// multiset.
func NewMaintainer(p Params, pts []Point) (*Maintainer, error) {
	return core.NewMaintainer(p, pts)
}

// Reconcile computes S'_B from Alice's sketch and Bob's points (Bob's
// side of the one-shot protocol).
func Reconcile(s *Sketch, local []Point) (*Result, error) {
	return core.Reconcile(s, local)
}

// EMD returns the exact Earth Mover's Distance between two equal-sized
// multisets under m — the objective robust reconciliation optimizes. It
// solves an assignment problem in O(n³); use EMDApprox for large n.
func EMD(x, y []Point, m Metric) (float64, error) {
	return emd.Exact(x, y, m)
}

// EMDk returns EMD_k: the minimum EMD after excluding k points from each
// side — the baseline the protocol's accuracy is measured against.
func EMDk(x, y []Point, m Metric, k int) (float64, error) {
	return emd.Partial(x, y, m, k)
}

// EMDApprox estimates the ℓ1 Earth Mover's Distance in O(n·logΔ) time
// via a randomly shifted grid embedding (O(d·logΔ) expected distortion).
func EMDApprox(x, y []Point, u Universe, seed uint64) (float64, error) {
	g, err := grid.New(u, seed)
	if err != nil {
		return 0, err
	}
	return emd.GridApprox(x, y, g)
}

// ValidateSet checks that every point belongs to the universe; protocols
// run this implicitly, but callers building pipelines may want the check
// at ingestion time.
func ValidateSet(u Universe, pts []Point) error {
	return u.CheckSet(pts)
}

// ClonePoints deep-copies a point slice.
func ClonePoints(pts []Point) []Point { return points.Clone(pts) }

// EqualMultisets reports whether two point slices contain the same points
// with the same multiplicities.
func EqualMultisets(a, b []Point) bool { return points.EqualMultisets(a, b) }
