package robustset_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"robustset"
	"robustset/internal/store"
)

// durableParams is the shared configuration of the durability tests.
var durableParams = robustset.Params{
	Universe:   robustset.Universe{Dim: 2, Delta: 1 << 16},
	Seed:       77,
	DiffBudget: 16,
}

// churnPoints drives steps random add/remove batches (with duplicates)
// through a mutable dataset, returning the surviving multiset.
type batcher interface {
	AddBatch([]robustset.Point) error
	RemoveBatch([]robustset.Point) error
}

func churnPoints(t *testing.T, d batcher, current []robustset.Point, rng *rand.Rand, steps int) []robustset.Point {
	t.Helper()
	delta := durableParams.Universe.Delta
	for s := 0; s < steps; s++ {
		if len(current) > 4 && rng.IntN(10) < 4 {
			n := 1 + rng.IntN(3)
			batch := make([]robustset.Point, 0, n)
			for i := 0; i < n && len(current) > 0; i++ {
				j := rng.IntN(len(current))
				batch = append(batch, current[j])
				current[j] = current[len(current)-1]
				current = current[:len(current)-1]
			}
			if err := d.RemoveBatch(batch); err != nil {
				t.Fatalf("churn step %d: remove: %v", s, err)
			}
		} else {
			n := 1 + rng.IntN(4)
			batch := make([]robustset.Point, 0, n)
			for i := 0; i < n; i++ {
				var pt robustset.Point
				if len(current) > 0 && rng.IntN(4) == 0 {
					pt = current[rng.IntN(len(current))].Clone()
				} else {
					pt = robustset.Point{rng.Int64N(delta), rng.Int64N(delta)}
				}
				batch = append(batch, pt)
			}
			if err := d.AddBatch(batch); err != nil {
				t.Fatalf("churn step %d: add: %v", s, err)
			}
			current = append(current, batch...)
		}
	}
	return current
}

// TestPublishDurableRecovery is the recovery oracle at the server layer:
// a durable dataset is churned, the server closed, and a second server
// recovers the dataset from disk. WithServerRecoveryVerify makes the
// recovery itself assert sketch byte-identity against a fresh build —
// the promoted churn oracle — across snapshot intervals from
// snapshot-per-record to never.
func TestPublishDurableRecovery(t *testing.T) {
	for _, every := range []int{1, 4, 1000, -1} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewPCG(uint64(every)+99, 5))
			srv := robustset.NewServer(
				robustset.WithServerDataDir(dir),
				robustset.WithServerSnapshotEvery(every),
				robustset.WithServerRecoveryVerify(),
			)
			seed, _ := deterministicPair(41, 120, 0, 0)
			d, err := srv.PublishDurable("data", durableParams, seed)
			if err != nil {
				t.Fatal(err)
			}
			current := churnPoints(t, d, append([]robustset.Point(nil), seed...), rng, 150)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart: the seed points are ignored, disk state wins.
			srv2 := robustset.NewServer(
				robustset.WithServerDataDir(dir),
				robustset.WithServerSnapshotEvery(every),
				robustset.WithServerRecoveryVerify(),
				WithTestLogger(t),
			)
			defer srv2.Close()
			d2, err := srv2.PublishDurable("data", durableParams, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !robustset.EqualMultisets(d2.Snapshot(), current) {
				t.Fatalf("recovered multiset differs: %d points, want %d", d2.Size(), len(current))
			}

			// The recovered dataset stays fully live: more churn, another
			// restart, still byte-identical.
			current = churnPoints(t, d2, current, rng, 60)
			// Drain to empty — the final snapshot interval stress.
			if err := d2.RemoveBatch(current); err != nil {
				t.Fatal(err)
			}
			if err := srv2.Close(); err != nil {
				t.Fatal(err)
			}
			srv3 := robustset.NewServer(
				robustset.WithServerDataDir(dir),
				robustset.WithServerSnapshotEvery(every),
				robustset.WithServerRecoveryVerify(),
			)
			defer srv3.Close()
			d3, err := srv3.PublishDurable("data", durableParams, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d3.Size() != 0 {
				t.Fatalf("drained dataset recovered %d points", d3.Size())
			}
		})
	}
}

// TestDurableRecoveryOutlivesSketchFormat: the sketch in a snapshot is a
// cache of the CRC-covered points beside it, so a data directory whose
// snapshot carries a sketch this build cannot parse — the fixed-width
// "RSK1" encoding a build before the cell codec wrote, or plain garbage
// under a valid CRC — recovers by rebuilding the sketch, says so once,
// and passes the fresh-build oracle; the next snapshot rewrites it.
func TestDurableRecoveryOutlivesSketchFormat(t *testing.T) {
	for name, spoil := range map[string]func(sketch []byte) []byte{
		"old magic": func(sketch []byte) []byte { return append([]byte("RSK1"), sketch[4:]...) },
		"truncated": func(sketch []byte) []byte { return sketch[:len(sketch)/2] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv := robustset.NewServer(robustset.WithServerDataDir(dir), robustset.WithServerSnapshotEvery(1))
			seed, _ := deterministicPair(43, 200, 0, 0)
			d, err := srv.PublishDurable("data", durableParams, seed)
			if err != nil {
				t.Fatal(err)
			}
			current := churnPoints(t, d, append([]robustset.Point(nil), seed...), rand.New(rand.NewPCG(7, 7)), 40)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "data", "snapshot.rsnap")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := store.ParseSnapshot(raw)
			if err != nil || len(snap.Sketch) < 8 {
				t.Fatalf("snapshot on disk: %v, %d sketch bytes", err, len(snap.Sketch))
			}
			raw, err = store.AppendSnapshot(nil, snap.Seq, snap.PointSize, snap.Points, spoil(snap.Sketch))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			var logged []string
			srv2 := robustset.NewServer(robustset.WithServerDataDir(dir), robustset.WithServerSnapshotEvery(1),
				robustset.WithServerRecoveryVerify(),
				robustset.WithServerLogger(func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }))
			d2, err := srv2.PublishDurable("data", durableParams, nil)
			if err != nil {
				t.Fatalf("recovery with an unreadable sketch: %v", err)
			}
			if !robustset.EqualMultisets(d2.Snapshot(), current) {
				t.Fatalf("recovered %d points, want %d", d2.Size(), len(current))
			}
			rebuilt := 0
			for _, l := range logged {
				if strings.Contains(l, "rebuilding the sketch") {
					rebuilt++
				}
			}
			if rebuilt != 1 {
				t.Errorf("%d rebuild lines logged, want 1: %q", rebuilt, logged)
			}
			// One mutation writes the next snapshot; after it the directory
			// recovers without a rebuild.
			if err := d2.AddBatch([]robustset.Point{{1, 2}}); err != nil {
				t.Fatal(err)
			}
			if err := srv2.Close(); err != nil {
				t.Fatal(err)
			}
			logged = nil
			srv3 := robustset.NewServer(robustset.WithServerDataDir(dir), robustset.WithServerRecoveryVerify(),
				robustset.WithServerLogger(func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }))
			defer srv3.Close()
			if d3, err := srv3.PublishDurable("data", durableParams, nil); err != nil || d3.Size() != len(current)+1 {
				t.Fatalf("second recovery: %v", err)
			}
			for _, l := range logged {
				if strings.Contains(l, "rebuilding the sketch") {
					t.Errorf("the rewritten snapshot still needs a rebuild: %s", l)
				}
			}
		})
	}
}

// TestRefusedDurablePublishKeepsLiveDataset: publishes refused because
// a live durable dataset holds the name must not touch its directory. A
// duplicate that opened the store before checking the name re-snapshotted
// the directory and truncated the log under the live engine, and a
// restart lost acknowledged points to a torn tail.
func TestRefusedDurablePublishKeepsLiveDataset(t *testing.T) {
	dir := t.TempDir()
	srv := robustset.NewServer(robustset.WithServerDataDir(dir))
	d, err := srv.PublishDurable("x", durableParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One log record that no snapshot holds yet.
	acked := []robustset.Point{{1, 1}, {2, 2}}
	if err := d.AddBatch(acked); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.PublishDurable("x", durableParams, nil); err == nil {
		t.Fatal("duplicate PublishDurable accepted")
	}
	if _, err := srv.PublishShardedDurable("x", durableParams, nil, 2); err == nil {
		t.Fatal("PublishShardedDurable over a live dataset accepted")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Errorf("data dir holds %d entries after refused publishes, want 1 (%v)", len(ents), err)
	}
	more := []robustset.Point{{3, 3}, {4, 4}, {5, 5}}
	if err := d.AddBatch(more); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, more...)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	m := robustset.NewMetrics()
	srv2 := robustset.NewServer(robustset.WithServerDataDir(dir), robustset.WithServerMetrics(m), WithTestLogger(t))
	defer srv2.Close()
	d2, err := srv2.PublishDurable("x", durableParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(d2.Snapshot(), acked) {
		t.Fatalf("recovered %d points, want the %d acknowledged", d2.Size(), len(acked))
	}
	if got := m.Snapshot()["store_torn_truncations_total"]; got != 0 {
		t.Fatalf("recovery truncated %d torn log tails, want 0", got)
	}
}

// TestRefusedDurablePublishWritesNothing: a durable publish refused
// because an in-memory dataset holds the name leaves no directory, so a
// later durable publish of the name starts from its own points, not the
// refused ones.
func TestRefusedDurablePublishWritesNothing(t *testing.T) {
	dir := t.TempDir()
	srv := robustset.NewServer(robustset.WithServerDataDir(dir))
	defer srv.Close()
	if _, err := srv.Publish("y", durableParams, []robustset.Point{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.PublishDurable("y", durableParams, []robustset.Point{{7, 7}, {8, 8}}); err == nil {
		t.Fatal("PublishDurable over an in-memory dataset accepted")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("refused publish left %d entries in the data dir (%v)", len(ents), err)
	}
	if err := srv.Unpublish("y"); err != nil {
		t.Fatal(err)
	}
	pts := []robustset.Point{{2, 2}, {3, 3}, {4, 4}}
	d, err := srv.PublishDurable("y", durableParams, pts)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(d.Snapshot(), pts) {
		t.Fatalf("durable %q holds %v, want %v", "y", d.Snapshot(), pts)
	}
}

// TestConcurrentDurablePublishOneWinner: goroutines racing to publish one
// fresh durable name claim it one at a time. Exactly one wins, the rest
// are refused as duplicates, and a restart recovers the winner's points.
func TestConcurrentDurablePublishOneWinner(t *testing.T) {
	const racers = 8
	dir := t.TempDir()
	srv := robustset.NewServer(robustset.WithServerDataDir(dir))
	racerPoints := func(i int) []robustset.Point {
		return []robustset.Point{{int64(i), 0}, {int64(i), 1}, {int64(i), 2}}
	}
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = srv.PublishDurable("z", durableParams, racerPoints(i))
		}()
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner >= 0:
			t.Fatalf("racers %d and %d both published %q", winner, i, "z")
		case err == nil:
			winner = i
		case !strings.Contains(err.Error(), "already published"):
			t.Fatalf("racer %d: %v, want the duplicate error", i, err)
		}
	}
	if winner < 0 {
		t.Fatal("no racer published")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := robustset.NewServer(robustset.WithServerDataDir(dir))
	defer srv2.Close()
	d, err := srv2.PublishDurable("z", durableParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(d.Snapshot(), racerPoints(winner)) {
		t.Fatalf("recovered %v, want racer %d's points", d.Snapshot(), winner)
	}
}

// TestPublishShardedDurableRecovery churns a sharded durable dataset and
// restarts it: every shard recovers from its own WAL+snapshot directory.
func TestPublishShardedDurableRecovery(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(7, 13))
	srv := robustset.NewServer(
		robustset.WithServerDataDir(dir),
		robustset.WithServerSnapshotEvery(8),
		robustset.WithServerRecoveryVerify(),
	)
	seed, _ := deterministicPair(43, 200, 0, 0)
	sd, err := srv.PublishShardedDurable("pts", durableParams, seed, shards)
	if err != nil {
		t.Fatal(err)
	}
	current := churnPoints(t, sd, append([]robustset.Point(nil), seed...), rng, 200)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// One storage directory per shard.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != shards {
		t.Fatalf("%d storage directories, want %d", len(ents), shards)
	}
	for _, e := range ents {
		if _, err := os.Stat(filepath.Join(dir, e.Name(), "wal.log")); err != nil {
			t.Fatalf("shard dir %s has no WAL: %v", e.Name(), err)
		}
	}

	srv2 := robustset.NewServer(
		robustset.WithServerDataDir(dir),
		robustset.WithServerSnapshotEvery(8),
		robustset.WithServerRecoveryVerify(),
		WithTestLogger(t),
	)
	defer srv2.Close()
	sd2, err := srv2.PublishShardedDurable("pts", durableParams, nil, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(sd2.Snapshot(), current) {
		t.Fatalf("recovered sharded multiset differs: %d points, want %d", sd2.Size(), len(current))
	}
}

// TestDurableUnpublishFreesDir asserts Unpublish closes the storage
// engine so the directory can be reopened (e.g. republished).
func TestDurableUnpublishFreesDir(t *testing.T) {
	dir := t.TempDir()
	srv := robustset.NewServer(robustset.WithServerDataDir(dir), robustset.WithServerRecoveryVerify())
	defer srv.Close()
	seed, _ := deterministicPair(47, 50, 0, 0)
	d, err := srv.PublishDurable("data", durableParams, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Unpublish("data"); err != nil {
		t.Fatal(err)
	}
	// The retained handle rejects mutations (retired before closed).
	if err := d.Add(robustset.Point{1, 1}); !errors.Is(err, robustset.ErrUnknownDataset) {
		t.Fatalf("mutation on unpublished durable dataset: %v", err)
	}
	// Republishing recovers the persisted state.
	d2, err := srv.PublishDurable("data", durableParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(d2.Snapshot(), seed) {
		t.Fatalf("republished dataset lost state: %d points, want %d", d2.Size(), len(seed))
	}
}

// TestDurableRejoinDeltaProportional is the tentpole's acceptance
// scenario: a 3-node durable cluster converges, one node goes down,
// the survivors take writes, the node restarts from its data directory
// and rejoins — converging through ordinary rateless sessions in wire
// bytes proportional to what it missed, not to dataset size.
func TestDurableRejoinDeltaProportional(t *testing.T) {
	const nodes = 3
	common, perNode := clusterWorkload(nodes, 4000, 12)
	dirs := make([]string, nodes)
	srvs := make([]*robustset.Server, nodes)
	addrs := make([]string, nodes)
	start := func(i int, seedPts []robustset.Point) *robustset.Server {
		srv := robustset.NewServer(
			robustset.WithServerDataDir(dirs[i]),
			robustset.WithServerRecoveryVerify(),
			WithTestLogger(t),
		)
		if _, err := srv.PublishDurable("data", durableParams, seedPts); err != nil {
			t.Fatal(err)
		}
		addrs[i] = startServer(t, srv).String()
		return srv
	}
	for i := range srvs {
		dirs[i] = t.TempDir()
		srvs[i] = start(i, append(append([]robustset.Point(nil), common...), perNode[i]...))
	}
	newRep := func(i int) *robustset.Replicator {
		var peers []robustset.Peer
		for j := range srvs {
			if j != i {
				peers = append(peers, robustset.Peer{Name: fmt.Sprintf("n%d", j), Addr: addrs[j]})
			}
		}
		rep, err := robustset.NewReplicator(srvs[i], peers,
			robustset.WithReplicatorWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rep.Close() })
		return rep
	}
	reps := make([]*robustset.Replicator, nodes)
	for i := range reps {
		reps[i] = newRep(i)
	}
	cnodes := make([]*clusterNode, nodes)
	for i := range cnodes {
		cnodes[i] = &clusterNode{srv: srvs[i], addr: addrs[i]}
	}
	runConvergence(t, cnodes, reps, 5)

	// Node 2 goes down (flushes and closes its store with it).
	reps[2].Close()
	if err := srvs[2].Close(); err != nil {
		t.Fatal(err)
	}
	downSize := 0 // dataset size node 2 held when it went down

	// The survivors take a small delta of writes and re-converge.
	const missed = 25
	var delta []robustset.Point
	for j := 0; j < missed; j++ {
		delta = append(delta, robustset.Point{int64(20_000 + j), int64(j)})
	}
	if err := srvs[0].Dataset("data").AddBatch(delta); err != nil {
		t.Fatal(err)
	}
	runConvergence(t, cnodes[:2], reps[:2], 5)
	downSize = srvs[0].Dataset("data").Size() - missed

	// Restart node 2 from its directory: recovery must reproduce the
	// pre-downtime state (verified byte-identical via the oracle).
	srvs[2] = start(2, nil)
	cnodes[2].srv, cnodes[2].addr = srvs[2], addrs[2]
	if got := srvs[2].Dataset("data").Size(); got != downSize {
		t.Fatalf("recovered node holds %d points, held %d at shutdown", got, downSize)
	}
	reps[2] = newRep(2)

	// The rejoin round catches up on exactly the missed delta.
	st, err := reps[2].RunRound(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != missed {
		t.Fatalf("rejoin round applied %d points, missed %d", st.Added, missed)
	}
	rejoinBytes := st.Bytes

	// Delta-proportionality: the rejoin traffic must be far below a full
	// transfer of the dataset (16 encoded bytes per point, pre-framing).
	full := int64(srvs[0].Dataset("data").Size() * 16)
	if rejoinBytes >= full/2 {
		t.Fatalf("rejoin cost %d bytes, full transfer ≈ %d — not delta-proportional", rejoinBytes, full)
	}
	runConvergence(t, cnodes, reps, 5)
}
