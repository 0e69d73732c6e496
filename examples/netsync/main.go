// Command netsync demonstrates deployment-shaped usage: a multi-dataset
// sync server and several clients connected by real TCP. The server
// publishes two named datasets; clients open sessions naming a dataset
// and a protocol (one-shot push and the adaptive estimate-first variant),
// adopt the server's reconciliation parameters through the handshake, and
// print the wire accounting of each session. The server drains in-flight
// sessions through a graceful Shutdown at the end.
//
// In a real deployment the server and the clients run in different
// processes on different hosts; everything below the net.Listen/net.Dial
// line is identical.
//
// Run it with:
//
//	go run ./examples/netsync
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

var universe = robustset.Universe{Dim: 2, Delta: 1 << 18}

const (
	nPoints  = 5000
	nOutlier = 20
	noise    = 4
)

func main() {
	rng := rand.New(rand.NewPCG(11, 13))
	serverSet, clientSet := makeData(rng)
	params := robustset.Params{Universe: universe, Seed: 2718, DiffBudget: nOutlier}

	// A second, smaller dataset shows the multiplexing: same server, own
	// parameters.
	auxSet := make([]robustset.Point, 500)
	for i := range auxSet {
		auxSet[i] = robustset.Point{rng.Int64N(universe.Delta), rng.Int64N(universe.Delta)}
	}
	auxParams := robustset.Params{Universe: universe, Seed: 31415, DiffBudget: 8}

	srv := robustset.NewServer(robustset.WithServerLogger(log.Printf))
	if _, err := srv.Publish("telemetry/main", params, serverSet); err != nil {
		log.Fatal(err)
	}
	if _, err := srv.Publish("telemetry/aux", auxParams, auxSet); err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	fmt.Printf("sync server on %s, datasets: %v\n\n", ln.Addr(), srv.Datasets())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// One client connection carries every session below as a stream.
	cl, err := robustset.DialClient(ctx, ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// --- Session 1: one-shot robust pull of the main dataset. ---
	res1, stats1 := fetch(ctx, cl, robustset.Robust{}, "telemetry/main", clientSet)
	fmt.Printf("one-shot pull:  %6d bytes, %d msgs, level %2d, %d diffs recovered\n",
		stats1.Total(), stats1.MsgsSent+stats1.MsgsRecv, res1.Robust.Level, res1.Robust.DiffSize())

	// --- Session 2: adaptive estimate-first pull of the same dataset. ---
	res2, stats2 := fetch(ctx, cl, robustset.Adaptive{}, "telemetry/main", clientSet)
	fmt.Printf("adaptive pull:  %6d bytes, %d msgs, level %2d, %d diffs recovered\n",
		stats2.Total(), stats2.MsgsSent+stats2.MsgsRecv, res2.Robust.Level, res2.Robust.DiffSize())

	// --- Session 3: cold replica of the aux dataset via naive transfer. ---
	res3, stats3 := fetch(ctx, cl, robustset.Naive{}, "telemetry/aux", nil)
	fmt.Printf("aux full pull:  %6d bytes, %d msgs, %d points\n",
		stats3.Total(), stats3.MsgsSent+stats3.MsgsRecv, len(res3.SPrime))

	// Drain the server.
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	<-serveDone

	q1, _ := robustset.EMDApprox(serverSet, res1.SPrime, universe, 3)
	q2, _ := robustset.EMDApprox(serverSet, res2.SPrime, universe, 3)
	q0, _ := robustset.EMDApprox(serverSet, clientSet, universe, 3)
	fmt.Printf("\ndistance to server data (grid-EMD estimate):\n")
	fmt.Printf("  before sync:   %.0f\n", q0)
	fmt.Printf("  one-shot:      %.0f\n", q1)
	fmt.Printf("  adaptive:      %.0f\n", q2)
	fmt.Printf("\nnaive transfer would have cost %d bytes per session\n", 16*nPoints)
}

// fetch runs one session over the client's connection: handshake for the
// named dataset, run the strategy.
func fetch(ctx context.Context, cl *robustset.Client, strat robustset.Strategy, dataset string, local []robustset.Point) (*robustset.SyncResult, robustset.TransferStats) {
	sess, err := cl.Session(dataset, strat)
	if err != nil {
		log.Fatal(err)
	}
	res, stats, err := sess.Fetch(ctx, local)
	if err != nil {
		log.Fatalf("%s on %q: %v", strat.Name(), dataset, err)
	}
	return res, stats
}

// makeData builds the server's set and the client's noisy replica.
func makeData(rng *rand.Rand) (server, client []robustset.Point) {
	server = make([]robustset.Point, nPoints)
	client = make([]robustset.Point, nPoints)
	for i := range server {
		server[i] = robustset.Point{rng.Int64N(universe.Delta), rng.Int64N(universe.Delta)}
		if i < nOutlier {
			client[i] = robustset.Point{rng.Int64N(universe.Delta), rng.Int64N(universe.Delta)}
			continue
		}
		client[i] = universe.Clamp(robustset.Point{
			server[i][0] + rng.Int64N(2*noise+1) - noise,
			server[i][1] + rng.Int64N(2*noise+1) - noise,
		})
	}
	return server, client
}
