// Command streaming demonstrates incremental sketch maintenance behind
// the Server API: a telemetry server whose dataset changes continuously
// publishes it as a named Dataset (backed by a robustset.Maintainer, so
// each update costs O(levels) hashes instead of an O(n·levels) re-encode)
// and clients pull reconciliations at arbitrary moments through ordinary
// sessions.
//
// The example streams updates through a 10,000-point dataset, serving a
// client pull every 50 updates, and shows that (a) each pull reconciles
// against the dataset as of that instant and (b) maintaining the sketch
// is orders of magnitude cheaper than rebuilding it.
//
// Run it with:
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"time"

	"robustset"
)

var universe = robustset.Universe{Dim: 2, Delta: 1 << 20}

// A pull must arrive before the accumulated churn outgrows the sketch:
// each replaced point contributes ~2 difference keys, so with
// DiffBudget = 64 (table capacity 128) the client needs to pull at least
// every ~50 updates. Pull less often and only coarse levels decode —
// reconciliation still succeeds but with cell-radius accuracy, and the
// replica slowly drifts. (The noise sweep E4/E6 quantifies this.)
const (
	nPoints    = 10000
	nUpdates   = 500
	pullEvery  = 50
	noise      = 3
	diffBudget = 64
)

func main() {
	rng := rand.New(rand.NewPCG(3, 33))
	params := robustset.Params{Universe: universe, Seed: 1001, DiffBudget: diffBudget}

	// Server state: the live dataset, published on a sync server. Publish
	// builds the maintained sketch once.
	dataset := make([]robustset.Point, nPoints)
	for i := range dataset {
		dataset[i] = randPoint(rng)
	}
	srv := robustset.NewServer(robustset.WithServerLogger(log.Printf))
	start := time.Now()
	live, err := srv.Publish("telemetry", params, dataset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial encode of %d points: %v\n", nPoints, time.Since(start).Round(time.Millisecond))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// Client state: a noisy replica of the initial dataset, and one
	// connection and session reused for every pull.
	replica := make([]robustset.Point, nPoints)
	for i, p := range dataset {
		replica[i] = universe.Clamp(robustset.Point{
			p[0] + rng.Int64N(2*noise+1) - noise,
			p[1] + rng.Int64N(2*noise+1) - noise,
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cl, err := robustset.DialClient(ctx, ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session("telemetry", robustset.Robust{})
	if err != nil {
		log.Fatal(err)
	}

	var maintainTotal time.Duration
	for u := 1; u <= nUpdates; u++ {
		// Stream one update: replace a random point. Dataset.Remove/Add
		// keep the served sketch in sync incrementally.
		i := rng.IntN(len(dataset))
		t0 := time.Now()
		if err := live.Remove(dataset[i]); err != nil {
			log.Fatal(err)
		}
		dataset[i] = randPoint(rng)
		if err := live.Add(dataset[i]); err != nil {
			log.Fatal(err)
		}
		maintainTotal += time.Since(t0)

		if u%pullEvery == 0 {
			// Each pull is one stream of the connection, reconciling the
			// replica against the dataset's state at that instant.
			res, stats, err := sess.Fetch(ctx, replica)
			if err != nil {
				log.Fatal(err)
			}
			quality, _ := robustset.EMDApprox(dataset, res.SPrime, universe, 77)
			fmt.Printf("after %4d updates: pull %s, level %2d, %3d diffs, grid-EMD to live data %.0f\n",
				u, compact(stats), res.Robust.Level, res.Robust.DiffSize(), quality)
			// The client adopts the reconciled view.
			replica = res.SPrime
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	<-serveDone

	fmt.Println("\nnote: each recovered point carries cell-radius rounding at the decoded")
	fmt.Println("level, so the replica's distance to the live data grows by ~(churn ×")
	fmt.Println("cell radius) per interval until re-churned — the budget/accuracy")
	fmt.Println("trade-off of E11. A bigger DiffBudget buys finer levels.")
	fmt.Printf("\n%d updates maintained in %v total (%.1f µs/update)\n",
		nUpdates, maintainTotal.Round(time.Millisecond),
		float64(maintainTotal.Microseconds())/nUpdates)
	t0 := time.Now()
	if _, err := robustset.NewSketch(params, dataset); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one full re-encode for comparison: %v\n", time.Since(t0).Round(time.Millisecond))
}

func randPoint(rng *rand.Rand) robustset.Point {
	return robustset.Point{rng.Int64N(universe.Delta), rng.Int64N(universe.Delta)}
}

func compact(s robustset.TransferStats) string {
	return fmt.Sprintf("%5.1fKiB", float64(s.Total())/1024)
}
