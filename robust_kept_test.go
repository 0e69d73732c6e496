package robustset_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"robustset"
	"robustset/internal/hashutil"
	"robustset/internal/workload"
)

// keptUniverse is the ruler's universe; keptInstance is the ruler's
// robust_noisy instance scaled to 2 000 points.
var keptUniverse = robustset.Universe{Dim: 2, Delta: 1 << 20}

func keptInstance(t *testing.T, i int) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		N: 2000, Universe: keptUniverse, Outliers: 6, Noise: workload.NoiseUniform, Scale: 4,
		Seed: hashutil.DeriveSeedN(101, "kept/instance", i),
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func keptParams(i int) robustset.Params {
	return robustset.Params{Universe: keptUniverse, Seed: hashutil.DeriveSeedN(101, "kept/params", i), DiffBudget: 16}
}

// robustFetcher is one Client's traced robust session of a dataset. A
// keyed one forgets its kept tables before every fetch, so each fetch
// opens on the window a kept one would and keys its points.
type robustFetcher struct {
	cl      *robustset.Client
	sess    *robustset.ClientSession
	dataset string
	keyed   bool
	snaps   traceLog
}

func newRobustFetcher(t *testing.T, ctx context.Context, addr, dataset string, keyed bool) *robustFetcher {
	t.Helper()
	f := &robustFetcher{dataset: dataset, keyed: keyed}
	var err error
	if f.cl, err = robustset.DialClient(ctx, addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.cl.Close() })
	if f.sess, err = f.cl.Session(dataset, robustset.Robust{}, robustset.WithSessionTrace(f.snaps.sink)); err != nil {
		t.Fatal(err)
	}
	return f
}

// fetch runs one Fetch and returns its result with its sessions' traces.
func (f *robustFetcher) fetch(t *testing.T, ctx context.Context, local []robustset.Point) (*robustset.SyncResult, []*robustset.SessionTrace) {
	t.Helper()
	if f.keyed {
		robustset.ForgetKeptTables(f.cl, f.dataset)
	}
	from := f.snaps.len()
	res, _, err := f.sess.Fetch(ctx, local)
	if err != nil {
		t.Fatal(err)
	}
	return res, f.snaps.since(from)
}

// keptLevels is a session's kept_levels stat; every robust session of a
// Client records one.
func keptLevels(t *testing.T, snap *robustset.SessionTrace) int64 {
	t.Helper()
	n, ok := snap.Stat("kept_levels")
	if !ok {
		t.Fatal("a Client's robust session recorded no kept_levels")
	}
	return n
}

// sameKeptResult reports whether two fetches returned the same result:
// S'_B in the same order, the same robust result field for field —
// Added, Removed, Level, Outcomes — and the same parameters.
func sameKeptResult(a, b *robustset.SyncResult) bool {
	return reflect.DeepEqual(a.SPrime, b.SPrime) && reflect.DeepEqual(a.Robust, b.Robust) && reflect.DeepEqual(a.Params, b.Params)
}

// TestRobustKeptTables follows, over 20 seeded noisy instances, a Client
// that keeps its robust tables beside one that forgets them before every
// fetch and so keys its points on the same windows. An unchanged local
// set, and the same set permuted, take every table of the window from
// the kept state (kept_levels = 3, no level built) and return the keyed
// fetch's result: S'_B in the same order, Added, Removed, Level and
// Outcomes. A set with one point moved, one with a point added, and the
// dataset republished under another seed key their points (kept_levels =
// 0) and still return the keyed result. A downward miss — the dataset
// republished noisier — reruns cold reading the kept tables, and an
// upward one, back to the first data, reruns from the window's finest
// level reading them too: both return the keyed fetch's result.
func TestRobustKeptTables(t *testing.T) {
	const instances = 20
	srv := robustset.NewServer()
	insts := make([]*workload.Instance, instances)
	for i := range insts {
		insts[i] = keptInstance(t, i)
		if _, err := srv.Publish(fmt.Sprint("d", i), keptParams(i), insts[i].Alice); err != nil {
			t.Fatal(err)
		}
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var misses, ups int
	for i, inst := range insts {
		name := fmt.Sprint("d", i)
		kept := newRobustFetcher(t, ctx, addr, name, false)
		keyed := newRobustFetcher(t, ctx, addr, name, true)
		step := func(what string, local []robustset.Point, wantKept bool) []*robustset.SessionTrace {
			t.Helper()
			got, snaps := kept.fetch(t, ctx, local)
			want, keyedSnaps := keyed.fetch(t, ctx, local)
			if !sameKeptResult(got, want) {
				t.Fatalf("instance %d, %s: the kept fetch (level %d) differs from the keyed one (level %d)", i, what, got.Robust.Level, want.Robust.Level)
			}
			if len(snaps) != len(keyedSnaps) {
				t.Fatalf("instance %d, %s: the kept fetch ran %d sessions, the keyed one %d", i, what, len(snaps), len(keyedSnaps))
			}
			for _, s := range keyedSnaps {
				if n := keptLevels(t, s); n != 0 {
					t.Fatalf("instance %d, %s: a fetch that forgot its tables says kept_levels=%d", i, what, n)
				}
			}
			if n := keptLevels(t, snaps[len(snaps)-1]); (n > 0) != wantKept {
				t.Fatalf("instance %d, %s: kept_levels=%d, want kept %v", i, what, n, wantKept)
			}
			return snaps
		}
		step("first fetch", inst.Bob, false)
		for _, local := range [][]robustset.Point{inst.Bob, permuted(inst.Bob, uint64(i))} {
			snaps := step("unchanged", local, true)
			var out strings.Builder
			snaps[0].Format(&out)
			if len(snaps) != 1 || keptLevels(t, snaps[0]) != 3 ||
				!strings.Contains(out.String(), "local tables: 3 levels kept from the last fetch, no points keyed") {
				t.Fatalf("instance %d: an unchanged set ran %d sessions; want one that kept 3 levels and keyed none:\n%s", i, len(snaps), out.String())
			}
		}
		moved := robustset.ClonePoints(inst.Bob)
		moved[i][0] ^= 1
		step("one point moved", moved, false)
		step("unchanged after the move", moved, true)
		step("one point added", append(robustset.ClonePoints(moved), robustset.Point{int64(i), 5}), false)
		step("back to the first set", inst.Bob, false)

		republish := func(p robustset.Params, pts []robustset.Point) {
			t.Helper()
			if err := srv.Unpublish(name); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Publish(name, p, pts); err != nil {
				t.Fatal(err)
			}
		}
		reseeded := keptParams(i)
		reseeded.Seed++
		republish(reseeded, inst.Alice)
		step("republished under another seed", inst.Bob, false)
		step("unchanged after the reseed", inst.Bob, true)

		// The same local set against noisier server data: the scan goes
		// coarser than the window, and the cold rerun reads the kept tables.
		republish(reseeded, jitterIn(inst.Alice, 2000, uint64(i)))
		if snaps := step("a downward miss", inst.Bob, true); len(snaps) == 2 {
			misses++
		}
		// Back to the first server data: the level rises past the window.
		republish(reseeded, inst.Alice)
		if snaps := step("an upward miss", inst.Bob, true); len(snaps) == 2 {
			if up, _ := snaps[0].Stat("window_up"); up == 1 {
				ups++
			}
		}
	}
	t.Logf("%d downward and %d upward misses over %d instances", misses, ups, instances)
	if misses < instances/2 || ups < instances/2 {
		t.Fatalf("%d downward and %d upward misses over %d instances; the test needs them in most", misses, ups, instances)
	}
}

// permuted returns pts shuffled by a seeded permutation.
func permuted(pts []robustset.Point, seed uint64) []robustset.Point {
	out := append([]robustset.Point(nil), pts...)
	rand.New(rand.NewPCG(seed, 1)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// jitterIn is jitter in keptUniverse.
func jitterIn(pts []robustset.Point, noise int64, seed uint64) []robustset.Point {
	rng := rand.New(rand.NewPCG(seed, 2))
	out := make([]robustset.Point, len(pts))
	for i, p := range pts {
		q := make(robustset.Point, len(p))
		for j, x := range p {
			q[j] = x + rng.Int64N(2*noise+1) - noise
		}
		out[i] = keptUniverse.Clamp(q)
	}
	return out
}

// TestRobustKeptConcurrentFetches: two Fetches of one dataset at once. One
// holds the kept tables and the other keys its points — each session's
// trace sink waits for the other's, so both took what the hint held
// before either gave it back — and both return the keyed result.
func TestRobustKeptConcurrentFetches(t *testing.T) {
	inst := keptInstance(t, 0)
	srv := robustset.NewServer()
	if _, err := srv.Publish("d", keptParams(0), inst.Alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := newRobustFetcher(t, ctx, addr, "d", false)
	f.fetch(t, ctx, inst.Bob) // leaves the kept tables
	keyed := newRobustFetcher(t, ctx, addr, "d", true)
	keyed.fetch(t, ctx, inst.Bob)
	want, _ := keyed.fetch(t, ctx, inst.Bob)

	var (
		mu   sync.Mutex
		kept []int64
		both = make(chan struct{})
	)
	// A session of the same Client, whose sink holds each of the two
	// sessions until both have run.
	sess, err := f.cl.Session("d", robustset.Robust{}, robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
		n, _ := st.Stat("kept_levels")
		mu.Lock()
		if kept = append(kept, n); len(kept) == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
		case <-ctx.Done():
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*robustset.SyncResult, 2)
	var fetches sync.WaitGroup
	for j := range results {
		fetches.Add(1)
		go func() {
			defer fetches.Done()
			res, _, err := sess.Fetch(ctx, inst.Bob)
			if err != nil {
				t.Error(err)
				return
			}
			results[j] = res
		}()
	}
	fetches.Wait()
	if t.Failed() {
		return
	}
	for _, res := range results {
		if !sameKeptResult(res, want) {
			t.Fatalf("a concurrent fetch (level %d) differs from the keyed one (level %d)", res.Robust.Level, want.Robust.Level)
		}
	}
	if len(kept) != 2 || (kept[0] > 0) == (kept[1] > 0) {
		t.Fatalf("the two concurrent sessions say kept_levels %v; want one kept and one keyed", kept)
	}
}

// TestRobustKeptStaleRerun: kept tables that are not the local set's —
// here, another multiset's, with one point more, planted under the
// local set's fingerprint — make the decoded difference name a local
// point the cell lacks. The session fails with
// protocol.ErrKeptTablesStale, and the fetch reruns it once, keyed, on a
// new stream: two sessions, the first failed with kept_levels > 0, the
// second keyed, the stats their sum, and the result a keyed fetch's. The
// rerun's tables are good: the next fetch takes them.
func TestRobustKeptStaleRerun(t *testing.T) {
	inst := keptInstance(t, 1)
	srv := robustset.NewServer()
	if _, err := srv.Publish("d", keptParams(1), inst.Alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := newRobustFetcher(t, ctx, addr, "d", false)
	keyed := newRobustFetcher(t, ctx, addr, "d", true)
	f.fetch(t, ctx, inst.Bob)
	keyed.fetch(t, ctx, inst.Bob)
	want, _ := keyed.fetch(t, ctx, inst.Bob)

	ghost := append(robustset.ClonePoints(inst.Bob), robustset.Point{3, 3})
	if err := robustset.PlantKeptTables(f.cl, "d", ghost); err != nil {
		t.Fatal(err)
	}
	sessions := f.cl.Sessions()
	from := f.snaps.len()
	res, st, err := f.sess.Fetch(ctx, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	snaps := f.snaps.since(from)
	if !sameKeptResult(res, want) {
		t.Fatal("the rerun did not return the keyed fetch's result")
	}
	if ran := f.cl.Sessions() - sessions; ran != 2 || len(snaps) != 2 {
		t.Fatalf("%d sessions, %d traces; want the stale one and one keyed rerun", ran, len(snaps))
	}
	stale, rerun := snaps[0], snaps[1]
	if n := keptLevels(t, stale); n == 0 || !strings.Contains(stale.Err, "kept tables") {
		t.Fatalf("the first session: kept_levels=%d, err %q; want kept tables subtracted and found stale", n, stale.Err)
	}
	if n := keptLevels(t, rerun); n != 0 || rerun.Err != "" {
		t.Fatalf("the rerun: kept_levels=%d, err %q; want a keyed session that succeeds", n, rerun.Err)
	}
	if sum := stale.TotalBytes() + rerun.TotalBytes(); st.Total() != sum {
		t.Fatalf("the fetch reports %d bytes, its two sessions moved %d", st.Total(), sum)
	}
	if res, snaps = f.fetch(t, ctx, inst.Bob); keptLevels(t, snaps[0]) == 0 || !sameKeptResult(res, want) {
		t.Fatal("the fetch after the rerun keyed its points, or returned another result")
	}
}
