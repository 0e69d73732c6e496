package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"robustset"
	"robustset/internal/ranges"
)

// rangesCell is one divide-and-conquer comparison scenario: n shared
// base points with `replaced` of them swapped on the fetching side — a
// symmetric difference of 2·replaced, the huge-N/tiny-delta regime the
// ranged strategy exists for. Each cell measures twice: the ranged
// wire bytes against the rateless strategy on an identical in-process
// pipe (the strata estimator's fixed cost is exactly what range probing
// undercuts), then the wall-clock round depth of the same
// reconciliation pipelined as sibling-range mux streams against a serial
// one-probe-per-round-trip run on the same live server.
type rangesCell struct {
	n        int
	replaced int
	streams  int
}

// rangesMatrix enumerates the comparison scenarios. Differences stay
// tiny relative to n — the regime of the wire contract; the scaling of
// ranged cost with the difference itself is the core matrix's job.
func rangesMatrix(quick bool) []rangesCell {
	if quick {
		return []rangesCell{{n: 20_000, replaced: 5, streams: 4}}
	}
	return []rangesCell{
		{n: 100_000, replaced: 5, streams: 4},
		{n: 1_000_000, replaced: 5, streams: 4},
	}
}

// rangesWorkload builds the comparison instance: a dense deterministic
// population (duplicates are fine — it is a multiset) with `replaced`
// points swapped on Bob's side for distinct high-coordinate outliers.
func rangesWorkload(u robustset.Universe, n, replaced int) (alice, bob []robustset.Point) {
	alice = make([]robustset.Point, n)
	for i := range alice {
		alice[i] = robustset.Point{int64(i*7919) % u.Delta, int64(i/4096) % u.Delta}
	}
	bob = robustset.ClonePoints(alice)
	stride := n / (replaced + 1)
	for i := 0; i < replaced; i++ {
		bob[(i+1)*stride] = robustset.Point{u.Delta - int64(i) - 1, int64(i)}
	}
	return alice, bob
}

// runRangesCell measures one comparison cell end to end.
func runRangesCell(c rangesCell) Result {
	res := Result{
		Strategy: robustset.Ranged{}.Name(), Mode: "ranges",
		N: c.n, DiffRate: float64(2*c.replaced) / float64(c.n),
		Dim: 2, Delta: 1 << 12, Regime: "exact",
	}
	u := robustset.Universe{Dim: res.Dim, Delta: res.Delta}
	alice, bob := rangesWorkload(u, c.n, c.replaced)
	params := robustset.Params{Universe: u, Seed: 47, DiffBudget: 2*c.replaced + 6}

	// Build timing: the ordered fingerprint tree over Alice's keys —
	// the summary the serving side pays once and then maintains
	// incrementally.
	buildStart := time.Now()
	if _, err := ranges.NewFromSorted(ranges.KeyLen(u.Dim), params.Seed, ranges.Keys(u, alice)); err != nil {
		res.Err = err.Error()
		return res
	}
	res.BuildNS = time.Since(buildStart).Nanoseconds()

	// Wire comparison on the in-process pipe, both paths required to
	// converge exactly.
	rOut, rSt, rNS, err := exchange(robustset.Ranged{}, params, alice, bob)
	if err != nil {
		res.Err = "ranged: " + err.Error()
		return res
	}
	dOut, dSt, _, err := exchange(robustset.Rateless{}, params, alice, bob)
	if err != nil {
		res.Err = "rateless: " + err.Error()
		return res
	}
	if !robustset.EqualMultisets(rOut.SPrime, alice) || !robustset.EqualMultisets(dOut.SPrime, alice) {
		res.Err = "paths did not converge to Alice's multiset"
		return res
	}
	res.WireBytes, res.BaselineBytes = rSt.Total(), dSt.Total()
	res.SyncNS = rNS
	res.ResultSize = len(rOut.SPrime)

	// Round-depth comparison on a live server: sibling subranges as
	// pipelined mux streams against a serial one-probe-per-frame run.
	srv := robustset.NewServer()
	defer srv.Close()
	if _, err := srv.Publish("r", params, alice); err != nil {
		res.Err = err.Error()
		return res
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.Err = err.Error()
		return res
	}
	go srv.Serve(ln)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, ln.Addr().String())
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer cl.Close()
	var mu sync.Mutex
	var last *robustset.SessionTrace
	sink := robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
		mu.Lock()
		last = st
		mu.Unlock()
	})
	fetch := func(strat robustset.Strategy) (rounds, streams int64, err error) {
		cs, err := cl.Session("r", strat, sink)
		if err != nil {
			return 0, 0, err
		}
		out, _, err := cs.Fetch(ctx, bob)
		if err != nil {
			return 0, 0, err
		}
		if !robustset.EqualMultisets(out.SPrime, alice) {
			return 0, 0, fmt.Errorf("%s fetch diverged", strat.Name())
		}
		mu.Lock()
		defer mu.Unlock()
		rounds, ok := last.Stat("wall_rounds")
		if !ok || rounds < 1 {
			return 0, 0, fmt.Errorf("%s fetch recorded no wall_rounds", strat.Name())
		}
		streams, _ = last.Stat("streams")
		return rounds, streams, nil
	}
	pipelined, streams, err := fetch(robustset.Ranged{Streams: c.streams})
	if err != nil {
		res.Err = "pipelined: " + err.Error()
		return res
	}
	serial, _, err := fetch(robustset.Ranged{Serial: true})
	if err != nil {
		res.Err = "serial: " + err.Error()
		return res
	}
	res.Rounds = int(pipelined)
	res.BaselineRounds = int(serial)
	res.MuxStreams = int(streams)
	return res
}

// runRangesScenario executes the comparison matrix.
func runRangesScenario(quick bool, logf func(format string, args ...any)) []Result {
	cells := rangesMatrix(quick)
	out := make([]Result, 0, len(cells))
	for i, c := range cells {
		r := runRangesCell(c)
		out = append(out, r)
		if r.Err != "" {
			logf("[ranges %d/%d] n=%-8d delta=%-3d ERROR: %s",
				i+1, len(cells), r.N, 2*c.replaced, r.Err)
			continue
		}
		logf("[ranges %d/%d] n=%-8d delta=%-3d wire=%dB rateless=%dB (×%.2f) rounds=%d serial=%d (×%.2f) streams=%d",
			i+1, len(cells), r.N, 2*c.replaced, r.WireBytes, r.BaselineBytes,
			float64(r.WireBytes)/float64(r.BaselineBytes),
			r.Rounds, r.BaselineRounds, float64(r.Rounds)/float64(r.BaselineRounds), r.MuxStreams)
	}
	return out
}
