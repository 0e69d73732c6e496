package robustset

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/store"
	"robustset/internal/transport"
)

// freshRoot is the oracle of the root tests: the fingerprint of pts,
// computed in one pass under d's root key.
func freshRoot(d *Dataset, pts []Point) points.Print { return d.rootKey.Of(pts) }

// rootChurn drives steps seeded mutations through d — single adds and
// removes, batches with duplicate points, and batches that must fail
// whole (a point outside the universe; more removes of a point than the
// dataset holds) — calling check after each. It returns the survivors.
func rootChurn(t *testing.T, d *Dataset, current []Point, rng *rand.Rand, steps int, check func(step int, current []Point)) []Point {
	t.Helper()
	u := d.Params().Universe
	fresh := func() Point { return randomPoint(rng, u) }
	outside := make(Point, u.Dim)
	outside[0] = u.Delta
	take := func() Point {
		i := rng.IntN(len(current))
		pt := current[i]
		current[i] = current[len(current)-1]
		current = current[:len(current)-1]
		return pt
	}
	for step := 0; step < steps; step++ {
		switch op := rng.IntN(6); {
		case op == 0 || len(current) < 8:
			pt := fresh()
			if rng.IntN(3) == 0 && len(current) > 0 {
				pt = current[rng.IntN(len(current))].Clone() // a duplicate
			}
			if err := d.Add(pt); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			current = append(current, pt)
		case op == 1:
			if err := d.Remove(take()); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
		case op == 2:
			batch := []Point{fresh(), fresh()}
			batch = append(batch, batch[0].Clone(), current[rng.IntN(len(current))].Clone())
			if err := d.AddBatch(batch); err != nil {
				t.Fatalf("step %d: add batch: %v", step, err)
			}
			current = append(current, batch...)
		case op == 3:
			batch := []Point{take(), take(), take()}
			if err := d.RemoveBatch(batch); err != nil {
				t.Fatalf("step %d: remove batch: %v", step, err)
			}
		case op == 4:
			// All or nothing: two good points, then one outside.
			if err := d.AddBatch([]Point{fresh(), fresh(), outside}); err == nil {
				t.Fatalf("step %d: add batch with a point outside the universe applied", step)
			}
		default:
			// One more occurrence of a point than the dataset holds.
			pt, n := current[rng.IntN(len(current))], 0
			for _, q := range current {
				if q.Equal(pt) {
					n++
				}
			}
			batch := []Point{current[0]}
			for i := 0; i <= n; i++ {
				batch = append(batch, pt)
			}
			if err := d.RemoveBatch(batch); !errors.Is(err, ErrNotPresent) {
				t.Fatalf("step %d: over-removing batch: %v, want ErrNotPresent", step, err)
			}
		}
		check(step, current)
	}
	return current
}

// randomPoint draws a point of u, its coordinates in order.
func randomPoint(rng *rand.Rand, u Universe) Point {
	pt := make(Point, u.Dim)
	for j := range pt {
		pt[j] = rng.Int64N(u.Delta)
	}
	return pt
}

// TestDatasetRootTracksMultiset is the root's property test: after every
// step of a seeded mutation sequence the running root equals a fresh
// build over Snapshot(); it does not depend on the order the points
// arrived in, the roots of the multiset's shards sum to it, and any
// single add or remove moves it. The hello carries the
// root, so one published root is pinned by value: a change to its hash
// must come with a MuxVersion bump. After every step the dataset's
// points, size and sketch are also the model's, in the plane and in a
// universe whose Morton codes take two words (4 × 17 bits) with a trimmed
// level range.
func TestDatasetRootTracksMultiset(t *testing.T) {
	for _, params := range []Params{
		{Universe: Universe{Dim: 2, Delta: 1 << 10}, Seed: 31, DiffBudget: 8},
		Params{Universe: Universe{Dim: 4, Delta: 1 << 16}, Seed: 31, DiffBudget: 8}.WithLevels(2, 9),
	} {
		testDatasetRootTracksMultiset(t, params)
	}
}

func testDatasetRootTracksMultiset(t *testing.T, params Params) {
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		initial := make([]Point, 0, 60)
		for i := 0; i < 40; i++ {
			pt := randomPoint(rng, params.Universe)
			initial = append(initial, pt)
			if i%4 == 0 {
				initial = append(initial, pt.Clone())
			}
		}
		srv := NewServer()
		d, err := srv.Publish("d", params, initial)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := d.rootPrint(), freshRoot(d, initial); got != want {
			t.Fatalf("seed %d: published root %+v, fresh build %+v", seed, got, want)
		}
		if pinned := (points.Print{Count: 50, Sum: 0xf1e58ce728b9cd28}); seed == 1 && params.Universe.Dim == 2 && d.rootPrint() != pinned {
			t.Fatalf("published root %+v, pinned %+v: the hello root's hash moved", d.rootPrint(), pinned)
		}
		check := func(step int, current []Point) {
			t.Helper()
			got := d.rootPrint()
			if want := freshRoot(d, d.Snapshot()); got != want {
				t.Fatalf("seed %d step %d: running root %+v, fresh build over the snapshot %+v", seed, step, got, want)
			}
			if int(got.Count) != len(current) || d.Size() != len(current) {
				t.Fatalf("seed %d step %d: root counts %d, size %d, model %d", seed, step, got.Count, d.Size(), len(current))
			}
			if !points.EqualMultisets(d.Snapshot(), current) {
				t.Fatalf("seed %d step %d: the snapshot is not the model's multiset", seed, step)
			}
			d.mu.Lock()
			err := d.maintainer.VerifyFreshBuild(current)
			d.mu.Unlock()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		current := rootChurn(t, d, append([]Point(nil), initial...), rng, 300, check)

		// The same multiset published in another order has the same root.
		shuffled := append([]Point(nil), current...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		d2, err := srv.Publish("d2", params, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if d2.rootPrint() != d.rootPrint() {
			t.Fatalf("seed %d: root depends on arrival order: %+v vs %+v", seed, d2.rootPrint(), d.rootPrint())
		}
		// Sharded, its shards' roots sum to the whole multiset's.
		sd, err := srv.PublishSharded("sharded", params, current, 4)
		if err != nil {
			t.Fatal(err)
		}
		var sum points.Print
		for _, shard := range sd.Shards() {
			r := shard.rootPrint()
			sum.Count, sum.Sum = sum.Count+r.Count, sum.Sum+r.Sum
		}
		if sum != d.rootPrint() {
			t.Fatalf("seed %d: shard roots sum to %+v, the whole multiset's root is %+v", seed, sum, d.rootPrint())
		}
		// Another seed is another fingerprint space.
		other := params
		other.Seed++
		d3, err := srv.Publish("d3", other, current)
		if err != nil {
			t.Fatal(err)
		}
		if d3.rootPrint().Sum == d.rootPrint().Sum {
			t.Fatalf("seed %d: roots under two Params.Seed values collide", seed)
		}
		// One add, or one remove, and the roots part.
		if err := d2.Add(current[0]); err != nil {
			t.Fatal(err)
		}
		if d2.rootPrint() == d.rootPrint() {
			t.Fatalf("seed %d: a duplicate add left the root unchanged", seed)
		}
		if err := d2.Remove(current[0]); err != nil {
			t.Fatal(err)
		}
		if d2.rootPrint() != d.rootPrint() {
			t.Fatalf("seed %d: add then remove did not restore the root", seed)
		}
		if err := d2.Remove(current[1]); err != nil {
			t.Fatal(err)
		}
		if d2.rootPrint() == d.rootPrint() {
			t.Fatalf("seed %d: a remove left the root unchanged", seed)
		}
		srv.Close()
	}
}

// TestDurableRootSurvivesRecovery: a recovered dataset has the root it
// had — from a snapshot plus a replayed log tail at every snapshot
// interval, and, with the log cut inside its last record, the root it
// had before that record's batch.
func TestDurableRootSurvivesRecovery(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 10}, Seed: 77, DiffBudget: 8}
	open := func(dir string, every int, pts []Point) (*Server, *Dataset) {
		t.Helper()
		srv := NewServer(WithServerDataDir(dir), WithServerSnapshotEvery(every), WithServerRecoveryVerify())
		d, err := srv.PublishDurable("data", params, pts)
		if err != nil {
			t.Fatal(err)
		}
		return srv, d
	}
	for _, every := range []int{1, 4, 1000} {
		dir := t.TempDir()
		rng := rand.New(rand.NewPCG(uint64(every), 3))
		initial := make([]Point, 30)
		for i := range initial {
			initial[i] = Point{rng.Int64N(1 << 10), rng.Int64N(1 << 10)}
		}
		srv, d := open(dir, every, initial)
		var roots []points.Print // after each mutation that applied
		rootChurn(t, d, append([]Point(nil), initial...), rng, 90, func(int, []Point) {
			if r := d.rootPrint(); len(roots) == 0 || r != roots[len(roots)-1] {
				roots = append(roots, r)
			}
		})
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		srv, d = open(dir, every, nil)
		if got := d.rootPrint(); got != roots[len(roots)-1] {
			t.Fatalf("every=%d: recovered root %+v, had %+v", every, got, roots[len(roots)-1])
		}
		if got, want := d.rootPrint(), freshRoot(d, d.Snapshot()); got != want {
			t.Fatalf("every=%d: recovered root %+v, fresh build %+v", every, got, want)
		}
		// Recovery re-snapshots, so put one more record in the log, then
		// crash-cut it: the batch is lost and the root is the one before.
		before := d.rootPrint()
		if err := d.AddBatch([]Point{{1, 2}, {3, 4}, {1, 2}}); err != nil {
			t.Fatal(err)
		}
		if d.rootPrint() == before {
			t.Fatalf("every=%d: a batch left the root unchanged", every)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if every == 1 {
			continue // the batch went straight into a snapshot; nothing to cut
		}
		wal := filepath.Join(srv.datasetDir("data"), "wal.log")
		st, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(wal, st.Size()-5); err != nil {
			t.Fatal(err)
		}
		srv, d = open(dir, every, nil)
		if got := d.rootPrint(); got != before {
			t.Fatalf("every=%d: root after a crash-cut tail %+v, want the pre-batch %+v", every, got, before)
		}
		srv.Close()
	}
}

// hookedTransport runs before, once, ahead of its first Send — for a
// fetching session that is the hello, whose root has been read by then.
type hookedTransport struct {
	transport.Transport
	before func()
}

func (h *hookedTransport) Send(ctx context.Context, msg []byte) error {
	if h.before != nil {
		h.before()
		h.before = nil
	}
	return h.Transport.Send(ctx, msg)
}

// TestFetchDatasetMutationAfterRootRead pins what a local mutation that
// lands between the root read and the hello does, in both directions.
// The hello carries the root as read. If the server differs from it, the
// session takes the full path against a snapshot taken after the
// mutation — here the mutation is the very point the server had extra, so
// the reconciled set is the server's and nothing is left to apply. If
// the server equals it, the fetch is Unchanged: the answer for the
// multiset as it was read, which is all any fetch can promise.
func TestFetchDatasetMutationAfterRootRead(t *testing.T) {
	params := Params{Universe: Universe{Dim: 2, Delta: 1 << 12}, Seed: 5, DiffBudget: 8}
	base := []Point{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {3, 4}}
	extra := Point{100, 200}
	srv := NewServer()
	defer srv.Close()
	if _, err := srv.Publish("d", params, append(ClonePoints(base), extra)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, strat := range []Strategy{Robust{}, Rateless{}, Naive{}} {
		mine := NewServer()
		local, err := mine.Publish("local", params, base)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(strat)
		if err != nil {
			t.Fatal(err)
		}
		sess.dataset = "d"
		fetch := func(before func()) *SyncResult {
			t.Helper()
			at, bt := transport.Pair()
			done := make(chan struct{})
			go func() {
				defer close(done)
				if hello, err := protocol.RecvHello(ctx, bt); err == nil {
					srv.serveSession(ctx, bt, hello, &net.TCPAddr{})
				}
			}()
			res, err := sess.fetchOver(ctx, &hookedTransport{Transport: at, before: before}, strat, local, nil)
			at.Close()
			<-done
			if err != nil {
				t.Fatalf("%s: %v", strat.Name(), err)
			}
			return res
		}
		// local lacks extra when its root is read and gains it before the
		// hello leaves.
		res := fetch(func() {
			if err := local.Add(extra); err != nil {
				t.Error(err)
			}
		})
		if res.Unchanged {
			t.Fatalf("%s: a stale root matched", strat.Name())
		}
		if !EqualMultisets(res.SPrime, append(ClonePoints(base), extra)) || len(res.local) != len(base)+1 {
			t.Fatalf("%s: full path reconciled %d points against a snapshot of %d", strat.Name(), len(res.SPrime), len(res.local))
		}
		if add, rem := points.MultisetDiff(res.SPrime, res.local); len(add)+len(rem) != 0 {
			t.Fatalf("%s: diff to apply +%d/-%d; the snapshot already held the point", strat.Name(), len(add), len(rem))
		}
		// local equals the server when its root is read and moves on.
		res = fetch(func() {
			if err := local.Add(Point{9, 9}); err != nil {
				t.Error(err)
			}
		})
		if !res.Unchanged || res.SPrime != nil {
			t.Fatalf("%s: root equal at the read, result %+v", strat.Name(), res)
		}
		mine.Close()
	}
}

// TestRecoveryRefusesRemoveOfAbsentPoint: a log record that removes a
// point the recovered state does not hold fails the publish with
// ErrNotPresent, naming the record — in a universe whose Morton codes
// take one word and in one whose take two, with a trimmed level range.
func TestRecoveryRefusesRemoveOfAbsentPoint(t *testing.T) {
	for _, params := range []Params{
		{Universe: Universe{Dim: 2, Delta: 1 << 10}, Seed: 5, DiffBudget: 4},
		Params{Universe: Universe{Dim: 4, Delta: 1 << 16}, Seed: 5, DiffBudget: 4}.WithLevels(2, 9),
	} {
		dim := params.Universe.Dim
		present, absent := make(Point, dim), make(Point, dim)
		for j := range present {
			present[j], absent[j] = int64(100*(j+1)), int64(100*(j+1)+1)
		}
		dir := t.TempDir()
		srv := NewServer(WithServerDataDir(dir))
		if _, err := srv.PublishDurable("data", params, []Point{present, present}); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		eng, _, err := store.Open(srv.datasetDir("data"), points.EncodedSize(dim), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Append(store.OpRemove, [][]byte{points.EncodeNew(present), points.EncodeNew(absent)}); err != nil {
			t.Fatal(err)
		}
		seq := eng.Seq()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		srv = NewServer(WithServerDataDir(dir))
		_, err = srv.PublishDurable("data", params, nil)
		if !errors.Is(err, ErrNotPresent) || !strings.Contains(err.Error(), fmt.Sprintf("replaying log record %d:", seq)) {
			t.Fatalf("dim %d: recovery over a log that removes an absent point: %v, want ErrNotPresent at record %d", dim, err, seq)
		}
		srv.Close()
	}
}
