package robustset_test

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustset"
)

// TestRangedAgainstServer fetches a server dataset with the Ranged
// strategy and asserts (a) exact convergence and (b) that the range
// probe protocol actually ran, by spotting the RANGE_FPS frames in the
// session trace.
func TestRangedAgainstServer(t *testing.T) {
	alice, bob := ratelessExactPair(500, 15)
	params := robustset.Params{Universe: testU, Seed: 11, DiffBudget: 15}

	srv := robustset.NewServer()
	defer srv.Close()
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	var snap *robustset.SessionTrace
	sink := robustset.WithSessionTrace(func(st *robustset.SessionTrace) { snap = st })
	res, stats, err := fetchOnce(t, addr.String(), "d", robustset.Ranged{}, bob, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(res.SPrime, alice) {
		t.Error("ranged fetch did not reproduce the dataset")
	}
	if stats.Total() == 0 {
		t.Error("no traffic accounted")
	}
	if snap == nil {
		t.Fatal("no session trace captured")
	}
	if snap.Strategy != "ranged" {
		t.Errorf("trace strategy %q, want ranged", snap.Strategy)
	}
	var sawRangeFrames bool
	for _, f := range snap.Frames {
		if f.Type == "RANGE_FPS" {
			sawRangeFrames = true
		}
	}
	if !sawRangeFrames {
		t.Error("no RANGE_FPS frames on the wire; the server served another protocol")
	}
	if v, ok := snap.Stat("wall_rounds"); !ok || v < 1 {
		t.Errorf("wall_rounds stat = %d, %v", v, ok)
	}
	// The incrementally maintained server tree must track mutations: a
	// second fetch after a server-side batch converges to the new state.
	d := srv.Dataset("d")
	added := []robustset.Point{{7001, 13}, {7003, 17}}
	if err := d.AddBatch(added); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveBatch(alice[:3]); err != nil {
		t.Fatal(err)
	}
	res, _, err = fetchOnce(t, addr.String(), "d", robustset.Ranged{}, res.SPrime)
	if err != nil {
		t.Fatal(err)
	}
	want := append(robustset.ClonePoints(alice[3:]), added...)
	if !robustset.EqualMultisets(res.SPrime, want) {
		t.Error("ranged fetch diverged from the mutated dataset")
	}
}

// TestRobustClientAgainstRangedServer: a server that has served ranged
// sessions from its range tree still answers a Robust client with the
// one-shot push.
func TestRobustClientAgainstRangedServer(t *testing.T) {
	alice, bob := ratelessExactPair(300, 10)
	params := robustset.Params{Universe: testU, Seed: 23, DiffBudget: 10}

	srv := robustset.NewServer()
	defer srv.Close()
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	if _, _, err := fetchOnce(t, addr.String(), "d", robustset.Ranged{}, bob); err != nil {
		t.Fatal(err)
	}
	res, _, err := fetchOnce(t, addr.String(), "d", robustset.Robust{}, bob)
	if err != nil {
		t.Fatal(err)
	}
	if res.Robust == nil {
		t.Error("robust client did not get the one-shot push")
	}
}

// TestRangedHugeNWireBudget pins the headline regime of the strategy at
// full scale: one million points with a symmetric difference of ten must
// reconcile in under 1 KB a differing key — the probe tree's cost model,
// with no estimator up front (8 550 bytes here). The budget is absolute:
// at five replaced points in a million ranged and rateless sync, which
// pays a strata estimator up front, are about level, so the ratio is
// logged, not asserted.
func TestRangedHugeNWireBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("million-point instance")
	}
	const n, replaced = 1_000_000, 5
	u := robustset.Universe{Dim: 2, Delta: 1 << 12}
	alice := make([]robustset.Point, n)
	for i := range alice {
		// A dense deterministic population; duplicates are fine (multiset).
		alice[i] = robustset.Point{int64(i*7919) % u.Delta, int64(i/4096) % u.Delta}
	}
	bob := robustset.ClonePoints(alice)
	for i := 0; i < replaced; i++ {
		bob[i*131071] = robustset.Point{int64(4000 + i), int64(i)}
	}
	params := robustset.Params{Universe: u, Seed: 47, DiffBudget: 16}

	run := func(strat robustset.Strategy) int64 {
		sess, err := robustset.NewSession(strat, robustset.WithParams(params))
		if err != nil {
			t.Fatal(err)
		}
		c1, c2 := net.Pipe()
		defer c1.Close()
		defer c2.Close()
		done := make(chan error, 1)
		go func() {
			_, err := sess.Serve(context.Background(), c1, alice)
			done <- err
		}()
		res, stats, err := sess.Fetch(context.Background(), c2, bob)
		if err != nil {
			t.Fatalf("%s fetch: %v", strat.Name(), err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s serve: %v", strat.Name(), err)
		}
		if !robustset.EqualMultisets(res.SPrime, alice) {
			t.Fatalf("%s did not converge", strat.Name())
		}
		return stats.Total()
	}
	rangedBytes := run(robustset.Ranged{})
	ratelessBytes := run(robustset.Rateless{})
	if budget := int64(2*replaced) << 10; rangedBytes > budget {
		t.Errorf("ranged moved %d bytes at n=%d delta=%d: above 1 KB a differing key (%d)",
			rangedBytes, n, 2*replaced, budget)
	}
	t.Logf("n=%d delta=%d: ranged %dB, rateless %dB (%.2fx)",
		n, 2*replaced, rangedBytes, ratelessBytes, float64(ratelessBytes)/float64(rangedBytes))
}

// TestRangedMuxPipelined reconciles sibling subranges as parallel
// pipelined streams of one multiplexed connection — under the race
// detector this is also the interleaving test for the shared client
// tree and the lock-per-round server tree view — and asserts the
// pipelined wall-clock round depth beats a serial ranged run.
func TestRangedMuxPipelined(t *testing.T) {
	alice, bob := ratelessExactPair(4000, 48)
	params := robustset.Params{Universe: testU, Seed: 29, DiffBudget: 48}

	srv := robustset.NewServer(WithTestLogger(t))
	defer srv.Close()
	d, err := srv.Publish("d", params, alice)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	var last *robustset.SessionTrace
	sink := robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
		mu.Lock()
		last = st
		mu.Unlock()
	})
	cs, err := cl.Session("d", robustset.Ranged{Streams: 4}, sink)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := cs.Fetch(ctx, bob)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(res.SPrime, alice) {
		t.Error("pipelined ranged fetch diverged")
	}
	if stats.Total() == 0 {
		t.Error("no traffic accounted across streams")
	}
	if v, ok := last.Stat("streams"); !ok || v < 2 {
		t.Errorf("streams stat = %d (%v), want >= 2", v, ok)
	}
	pipelined, ok := last.Stat("wall_rounds")
	if !ok || pipelined < 1 {
		t.Fatalf("wall_rounds stat = %d (%v)", pipelined, ok)
	}

	// Serial comparator: one stream, one probe per round trip.
	serialSess, err := cl.Session("d", robustset.Ranged{Serial: true}, sink)
	if err != nil {
		t.Fatal(err)
	}
	sres, _, err := serialSess.Fetch(ctx, bob)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(sres.SPrime, alice) {
		t.Error("serial ranged fetch diverged")
	}
	serial, ok := last.Stat("wall_rounds")
	if !ok {
		t.Fatal("serial run recorded no wall_rounds")
	}
	if pipelined >= serial {
		t.Errorf("pipelined wall rounds %d not below serial %d", pipelined, serial)
	}

	// Interleaving: concurrent pipelined fetches race against dataset
	// churn that nets to zero. Every fetch must succeed and return a
	// multiset between the churned states; the final quiescent fetch is
	// exact again. Run under -race this exercises the shared read-only
	// client tree and the per-round-locked server tree concurrently.
	churn := []robustset.Point{{8009, 21}, {8011, 23}, {8013, 27}}
	stop := make(chan struct{})
	var churned atomic.Int64
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.AddBatch(churn); err != nil {
				t.Error(err)
				return
			}
			if err := d.RemoveBatch(churn); err != nil {
				t.Error(err)
				return
			}
			churned.Add(1)
		}
	}()
	var fwg sync.WaitGroup
	for i := 0; i < 3; i++ {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			res, _, err := cs.Fetch(ctx, bob)
			if err != nil {
				t.Errorf("churned fetch: %v", err)
				return
			}
			if n := len(res.SPrime); n < len(alice) || n > len(alice)+len(churn) {
				t.Errorf("churned fetch returned %d points, want within [%d,%d]",
					n, len(alice), len(alice)+len(churn))
			}
		}()
	}
	fwg.Wait()
	close(stop)
	cwg.Wait()
	if churned.Load() == 0 {
		t.Log("churn goroutine never completed a cycle; interleaving weak on this run")
	}
	final, _, err := cs.Fetch(ctx, bob)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(final.SPrime, alice) {
		t.Error("post-churn fetch did not converge to the quiescent dataset")
	}
}
