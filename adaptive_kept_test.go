package robustset_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"robustset"
)

// adaptiveFetcher is one Client's traced adaptive session of a dataset. A
// cold one forgets its hints before every fetch, so each fetch builds its
// estimators and table from its points.
type adaptiveFetcher struct {
	cl      *robustset.Client
	sess    *robustset.ClientSession
	dataset string
	cold    bool
	snaps   traceLog
}

func newAdaptiveFetcher(t *testing.T, ctx context.Context, addr, dataset string, cold bool) *adaptiveFetcher {
	t.Helper()
	f := &adaptiveFetcher{dataset: dataset, cold: cold}
	var err error
	if f.cl, err = robustset.DialClient(ctx, addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.cl.Close() })
	if f.sess, err = f.cl.Session(dataset, robustset.Adaptive{}, robustset.WithSessionTrace(f.snaps.sink)); err != nil {
		t.Fatal(err)
	}
	return f
}

// fetch runs one Fetch and returns its result with its sessions' traces.
func (f *adaptiveFetcher) fetch(t *testing.T, ctx context.Context, local []robustset.Point) (*robustset.SyncResult, []*robustset.SessionTrace) {
	t.Helper()
	if f.cold {
		robustset.ForgetHints(f.cl, f.dataset)
	}
	from := f.snaps.len()
	res, _, err := f.sess.Fetch(ctx, local)
	if err != nil {
		t.Fatal(err)
	}
	return res, f.snaps.since(from)
}

// estimateBuilt is the built attribute of a client trace's estimate span:
// how many of its own estimators the session built.
func estimateBuilt(t *testing.T, snap *robustset.SessionTrace) int64 {
	t.Helper()
	for _, sp := range snap.Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "estimate" && a.K == "built" {
				return a.V
			}
		}
	}
	t.Fatal("a client's adaptive trace has no estimate span with built")
	return 0
}

// TestAdaptiveKeptState follows, over 8 seeded noisy instances, a Client
// that keeps its adaptive estimators and table beside one that forgets its
// hints before every fetch and so builds them from its points. Each fetch
// returns the cold fetch's result: S'_B in the same order, Added,
// Removed, Level and Outcomes. An unchanged local set, and the same set
// permuted, take the estimators from the kept state (kept_levels > 0, no
// estimator built) in one session; a set with one point moved keys its
// points (kept_levels = 0), and the next fetch of it takes what that one
// kept.
func TestAdaptiveKeptState(t *testing.T) {
	const instances = 8
	srv := robustset.NewServer()
	for i := range instances {
		if _, err := srv.Publish(fmt.Sprint("d", i), keptParams(i), keptInstance(t, i).Alice); err != nil {
			t.Fatal(err)
		}
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := range instances {
		inst, name := keptInstance(t, i), fmt.Sprint("d", i)
		kept := newAdaptiveFetcher(t, ctx, addr, name, false)
		cold := newAdaptiveFetcher(t, ctx, addr, name, true)
		step := func(what string, local []robustset.Point, wantKept bool) {
			t.Helper()
			got, snaps := kept.fetch(t, ctx, local)
			want, coldSnaps := cold.fetch(t, ctx, local)
			if !sameKeptResult(got, want) {
				t.Fatalf("instance %d, %s: the kept fetch (level %d) differs from the cold one (level %d)", i, what, got.Robust.Level, want.Robust.Level)
			}
			if len(snaps) != 1 || len(coldSnaps) != 1 {
				t.Fatalf("instance %d, %s: the kept fetch ran %d sessions, the cold one %d; want one each", i, what, len(snaps), len(coldSnaps))
			}
			if n := keptLevels(t, coldSnaps[0]); n != 0 {
				t.Fatalf("instance %d, %s: a fetch that forgot its hints says kept_levels=%d", i, what, n)
			}
			n, built := keptLevels(t, snaps[0]), estimateBuilt(t, snaps[0])
			if (n > 0) != wantKept || (wantKept && built != 0) {
				t.Fatalf("instance %d, %s: kept_levels=%d with %d estimators built, want kept %v", i, what, n, built, wantKept)
			}
		}
		step("first fetch", inst.Bob, false)
		step("unchanged", inst.Bob, true)
		step("permuted", permuted(inst.Bob, uint64(i)), true)
		moved := robustset.ClonePoints(inst.Bob)
		moved[i][0] ^= 1
		step("one point moved", moved, false)
		step("unchanged after the move", moved, true)
	}
}

// TestAdaptiveKeptStaleRerun: kept estimators and a kept table that are
// not the local set's — another multiset's, with one point more, planted
// under the local set's fingerprint — make the decoded difference name a
// local point the cell lacks. The session fails with
// protocol.ErrKeptTablesStale, and the fetch reruns it once, keyed, on a
// new stream: two sessions, the first failed with kept_levels > 0, the
// second keyed, the stats their sum, and the result a cold fetch's. The
// next fetch takes what the rerun kept.
func TestAdaptiveKeptStaleRerun(t *testing.T) {
	inst := keptInstance(t, 1)
	srv := robustset.NewServer()
	if _, err := srv.Publish("d", keptParams(1), inst.Alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv).String()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := newAdaptiveFetcher(t, ctx, addr, "d", false)
	f.fetch(t, ctx, inst.Bob)
	want, _ := newAdaptiveFetcher(t, ctx, addr, "d", true).fetch(t, ctx, inst.Bob)

	ghost := append(robustset.ClonePoints(inst.Bob), robustset.Point{3, 3})
	if err := robustset.PlantKeptEstimates(f.cl, "d", ghost); err != nil {
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
		t.Fatal("the rerun did not return the cold fetch's result")
	}
	if ran := f.cl.Sessions() - sessions; ran != 2 || len(snaps) != 2 {
		t.Fatalf("%d sessions, %d traces; want the stale one and one keyed rerun", ran, len(snaps))
	}
	stale, rerun := snaps[0], snaps[1]
	if n := keptLevels(t, stale); n == 0 || !strings.Contains(stale.Err, "kept tables") {
		t.Fatalf("the first session: kept_levels=%d, err %q; want kept state taken and found stale", n, stale.Err)
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
