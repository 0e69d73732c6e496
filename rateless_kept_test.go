package robustset_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"robustset"
	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
)

// keptFetcher is one Client's rateless session of dataset "d", traced.
type keptFetcher struct {
	cl    *robustset.Client
	sess  *robustset.ClientSession
	snaps []*robustset.SessionTrace // every session of the last fetch
}

func newKeptFetcher(t *testing.T, ctx context.Context, addr string) *keptFetcher {
	t.Helper()
	f := &keptFetcher{}
	var err error
	if f.cl, err = robustset.DialClient(ctx, addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.cl.Close() })
	f.sess, err = f.cl.Session("d", robustset.Rateless{},
		robustset.WithSessionTrace(func(st *robustset.SessionTrace) { f.snaps = append(f.snaps, st) }))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *keptFetcher) fetch(t *testing.T, ctx context.Context, local []robustset.Point) (*robustset.SyncResult, robustset.TransferStats) {
	t.Helper()
	f.snaps = f.snaps[:0]
	res, st, err := f.sess.Fetch(ctx, local)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// lastFrontier is the frontier of a rateless session's last cells round:
// how many cells of the stream it used.
func lastFrontier(st *robustset.SessionTrace) (frontier int64) {
	for _, sp := range st.Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "cells_round" && a.K == "frontier" {
				frontier = a.V
			}
		}
	}
	return frontier
}

// keptStat is the last session's kept_cells, and its last round's
// frontier.
func (f *keptFetcher) keptStat(t *testing.T) (kept, frontier int64) {
	t.Helper()
	snap := f.snaps[len(f.snaps)-1]
	kept, ok := snap.Stat("kept_cells")
	if !ok {
		t.Fatal("a Client's rateless fetch recorded no kept_cells")
	}
	return kept, lastFrontier(snap)
}

// checkKeptCells: the cells cl keeps of dataset "d" are the first cells
// of the rateless stream over sprime's occurrence keys, cell for cell.
func checkKeptCells(t *testing.T, cl *robustset.Client, p robustset.Params, sprime []robustset.Point) int {
	t.Helper()
	kept := robustset.KeptCells(cl, "d")
	if kept == nil || kept.Len() == 0 {
		t.Fatal("the Client keeps no cells of the multiset it fetched")
	}
	cfg := iblt.ExtendConfig{KeyLen: points.EncodedSize(p.Universe.Dim) + 4, Seed: hashutil.DeriveSeed(p.Seed, "rateless/cells")}
	s, err := iblt.NewCellStream(cfg, points.OccurrenceKeys(sprime, p.Universe.Dim))
	if err != nil {
		t.Fatal(err)
	}
	got, want := kept.Cells(), s.Emit(kept.Len())
	if !slices.Equal(got.Counts, want.Counts) || !bytes.Equal(got.KeySums, want.KeySums) || !slices.Equal(got.Checks, want.Checks) {
		t.Fatalf("the %d kept cells are not the first cells of the fetched multiset's stream", kept.Len())
	}
	return kept.Len()
}

// TestRatelessKeptCells follows a Client that hands every rateless fetch
// the set the one before returned, over real TCP, against a dataset that
// churns — duplicate points added, a point's every copy removed. Beside
// it a second Client fetches the same local set with the same hint but
// no kept cells, keying its points. After every fetch the two results
// are slice-equal and the wire bytes equal; the cells the first Client
// keeps are the first cells of its result's stream; and it subtracted
// them — kept_cells > 0, no keys built — whenever its set was the last
// result, reordered or not. A caller-edited set, a dataset republished
// under another seed and a difference whose stream runs past the kept
// cells each key the points (all of them, or those past the kept cells)
// and return the same result as the keyed fetch.
func TestRatelessKeptCells(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 7))
	pt := func() robustset.Point {
		return robustset.Point{rng.Int64N(testU.Delta), rng.Int64N(testU.Delta)}
	}
	initial := make([]robustset.Point, 3000)
	for i := range initial {
		initial[i] = pt()
	}
	for i := 0; i < 300; i += 3 { // duplicates, up to four copies
		initial = append(initial, initial[i], initial[i/2])
	}
	params := robustset.Params{Universe: testU, Seed: 59, DiffBudget: 20}
	srv := robustset.NewServer()
	d, err := srv.Publish("d", params, initial)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	kept, keyed := newKeptFetcher(t, ctx, addr.String()), newKeptFetcher(t, ctx, addr.String())

	// snapshot is the dataset's multiset in a fixed order, so that churn
	// picks the same points on every run.
	snapshot := func() []robustset.Point {
		snap := d.Snapshot()
		slices.SortFunc(snap, slices.Compare)
		return snap
	}
	// churn adds k fresh points and k copies of held ones, removes k held
	// points, and removes every copy of one point held more than once.
	churn := func(k int) {
		t.Helper()
		snap := snapshot()
		var add, rem []robustset.Point
		for _, j := range rng.Perm(len(snap))[:k] {
			add = append(add, pt(), snap[rng.IntN(len(snap))])
			rem = append(rem, snap[j])
		}
		if err := errors.Join(d.AddBatch(add), d.RemoveBatch(rem)); err != nil {
			t.Fatal(err)
		}
		snap = snapshot()
		copies := map[[2]int64]int{}
		for _, p := range snap {
			copies[[2]int64{p[0], p[1]}]++
		}
		for _, p := range snap {
			if n := copies[[2]int64{p[0], p[1]}]; n > 1 {
				for range n {
					if err := d.Remove(p); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
		}
	}
	// step fetches local on both Clients and checks everything but whether
	// the kept cells were used, which it returns with the frontier.
	step := func(what string, local []robustset.Point) (*robustset.SyncResult, int64, int64) {
		t.Helper()
		res, st := kept.fetch(t, ctx, local)
		robustset.ForgetKeptCells(keyed.cl, "d")
		ref, refSt := keyed.fetch(t, ctx, local)
		if !robustset.EqualMultisets(res.SPrime, d.Snapshot()) {
			t.Fatalf("%s: the result is not the server's multiset", what)
		}
		if !slices.EqualFunc(res.SPrime, ref.SPrime, robustset.Point.Equal) {
			t.Fatalf("%s: the result is not slice-equal to a keyed fetch of the same set", what)
		}
		if st != refSt {
			t.Fatalf("%s: %+v on the wire, a keyed fetch %+v", what, st, refSt)
		}
		if n, _ := keyed.keptStat(t); n != 0 {
			t.Fatalf("%s: the fetch with no kept cells says kept_cells=%d", what, n)
		}
		n, frontier := kept.keptStat(t)
		if l := checkKeptCells(t, kept.cl, res.Params, res.SPrime); int64(l) < frontier && l < 1024 {
			t.Fatalf("%s: %d cells kept after a fetch that received %d", what, l, frontier)
		}
		return res, n, frontier
	}
	// subtracted checks that a fetch that began with before cells kept
	// subtracted them as far as its stream reached.
	subtracted := func(what string, before int, n, frontier int64) {
		t.Helper()
		if n == 0 || n != min(int64(before), frontier) {
			t.Fatalf("%s: kept_cells=%d at frontier %d with %d cells kept; want them subtracted", what, n, frontier, before)
		}
	}

	churn(8)
	res, n, frontier := step("first fetch", initial)
	if n != 0 {
		t.Fatalf("first fetch: kept_cells=%d", n)
	}
	// The kept cells grow to the longest stream a fetch needed, so a fetch
	// may still run past them now and then; it subtracts those it has.
	whole := 0
	for i := range 12 {
		churn(4 + i%5)
		before := robustset.KeptCells(kept.cl, "d").Len()
		res, n, frontier = step("churn", res.SPrime)
		subtracted("churn", before, n, frontier)
		if frontier <= n {
			whole++
		}
	}
	t.Logf("%d of 12 churn fetches subtracted kept cells only", whole)
	if whole < 7 {
		t.Fatalf("%d of 12 churn fetches subtracted kept cells only; want most", whole)
	}
	// The same multiset in another order still subtracts the kept cells.
	churn(3)
	local := slices.Clone(res.SPrime)
	slices.Reverse(local)
	before := robustset.KeptCells(kept.cl, "d").Len()
	res, n, frontier = step("reordered", local)
	subtracted("reordered", before, n, frontier)

	// A caller-edited set keys its points.
	churn(3)
	edited := append(slices.Clone(res.SPrime[1:]), pt())
	if res, n, _ = step("edited", edited); n != 0 {
		t.Fatalf("edited set: kept_cells=%d, want its points keyed", n)
	}

	// A dataset republished under another seed keys the points.
	snap := d.Snapshot()
	if err := srv.Unpublish("d"); err != nil {
		t.Fatal(err)
	}
	p2 := params
	p2.Seed++
	if d, err = srv.Publish("d", p2, snap); err != nil {
		t.Fatal(err)
	}
	churn(2)
	if res, n, _ = step("republished", res.SPrime); n != 0 {
		t.Fatalf("republished under another seed: kept_cells=%d, want the points keyed", n)
	}
	churn(2)
	before = robustset.KeptCells(kept.cl, "d").Len()
	res, n, frontier = step("after the republish", res.SPrime)
	subtracted("after the republish", before, n, frontier)

	// A difference whose stream runs past the kept cells keys the points
	// for the cells past them, and the kept cells grow.
	before = robustset.KeptCells(kept.cl, "d").Len()
	churn(150)
	res, n, frontier = step("past the kept cells", res.SPrime)
	if n != int64(before) || frontier <= n {
		t.Fatalf("past the kept cells: kept_cells=%d at frontier %d, want all %d kept cells and more past them", n, frontier, before)
	}
	if after := robustset.KeptCells(kept.cl, "d").Len(); after != min(int(frontier), 1024) {
		t.Fatalf("%d cells kept after a fetch to frontier %d that began with %d", after, frontier, before)
	}
	churn(2)
	step("after the long fetch", res.SPrime)
}

// TestRatelessKeptStaleRerun: kept cells that are not the local set's —
// here, one occurrence key too many folded into them — make the decoded
// difference remove a point the set lacks. The session fails with
// protocol.ErrKeptStale, and the fetch reruns it once, keyed, on a new
// stream: two sessions, the first failed with kept_cells > 0, the second
// keyed, the stats their sum, and the result the server's multiset.
func TestRatelessKeptStaleRerun(t *testing.T) {
	alice, bob := ratelessExactPair(2000, 20)
	params := robustset.Params{Universe: testU, Seed: 61, DiffBudget: 20}
	srv := robustset.NewServer()
	d, err := srv.Publish("d", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := newKeptFetcher(t, ctx, addr.String())
	res, _ := f.fetch(t, ctx, bob)

	ghost := binary.LittleEndian.AppendUint32(points.EncodeNew(points.Point{7, 7}), 0)
	robustset.KeptCells(f.cl, "d").Add(ghost)
	if err := d.Add(robustset.Point{1, 1}); err != nil {
		t.Fatal(err)
	}
	sessions := f.cl.Sessions()
	res, st := f.fetch(t, ctx, res.SPrime)
	if !robustset.EqualMultisets(res.SPrime, d.Snapshot()) {
		t.Fatal("the rerun did not return the server's multiset")
	}
	if ran := f.cl.Sessions() - sessions; ran != 2 || len(f.snaps) != 2 {
		t.Fatalf("%d sessions, %d traces; want the stale one and one keyed rerun", ran, len(f.snaps))
	}
	stale, rerun := f.snaps[0], f.snaps[1]
	if n, _ := stale.Stat("kept_cells"); n == 0 || !strings.Contains(stale.Err, "kept cells") {
		t.Fatalf("the first session: kept_cells=%d, err %q; want kept cells subtracted and found stale", n, stale.Err)
	}
	if n, _ := rerun.Stat("kept_cells"); n != 0 || rerun.Err != "" {
		t.Fatalf("the rerun: kept_cells=%d, err %q; want a keyed session that succeeds", n, rerun.Err)
	}
	if sum := stale.TotalBytes() + rerun.TotalBytes(); st.Total() != sum {
		t.Fatalf("the fetch reports %d bytes, its two sessions moved %d", st.Total(), sum)
	}
	// The rerun's kept cells are good: the next fetch subtracts them.
	if err := d.Add(robustset.Point{2, 2}); err != nil {
		t.Fatal(err)
	}
	f.fetch(t, ctx, res.SPrime)
	if n, _ := f.keptStat(t); n == 0 {
		t.Fatal("the fetch after the rerun keyed its points")
	}
	checkKeptCells(t, f.cl, params, d.Snapshot())
}
