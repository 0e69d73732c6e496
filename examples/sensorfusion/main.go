// Command sensorfusion models the paper's motivating scenario: two sensor
// arrays observe the same field of objects with independent measurement
// noise, and each also detects a few objects the other missed. The
// stations synchronize over a real (in-process) TCP connection, and the
// example compares every reconciliation strategy this module ships on the
// identical input by iterating the Strategy values behind one Session
// runner: robust one-shot, robust estimate-first, exact (rateless) IBLT
// sync, and naive transfer.
//
// Run it with:
//
//	go run ./examples/sensorfusion
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"time"

	"robustset"
)

const (
	nObjects = 3000
	missed   = 12  // objects only station A detected
	noiseStd = 2.5 // per-axis Gaussian measurement noise
)

var universe = robustset.Universe{Dim: 3, Delta: 1 << 20}

func main() {
	rng := rand.New(rand.NewPCG(7, 7))
	stationA, stationB := observeField(rng)

	fmt.Printf("sensor stations: %d objects each, %d unique to station A, noise σ=%.1f\n\n",
		nObjects, missed, noiseStd)
	fmt.Printf("%-18s %12s %8s %14s\n", "protocol", "bytes", "msgs", "EMD(A, B')")
	fmt.Printf("%-18s %12s %8s %14s\n", "--------", "-----", "----", "----------")

	d0, _ := robustset.EMDApprox(stationA, stationB, universe, 99)
	fmt.Printf("%-18s %12s %8s %14.0f\n", "(no sync)", "-", "-", d0)

	params := robustset.Params{Universe: universe, Seed: 1234, DiffBudget: missed}

	// The same runner serves every protocol: the Strategy value is the
	// only thing that changes.
	for _, strat := range robustset.Strategies() {
		runStrategy(strat, params, stationA, stationB)
	}

	fmt.Println("\nNote: exact sync must transfer ~2n differences because every noisy")
	fmt.Println("pair looks like two distinct readings; the robust protocols only pay")
	fmt.Println("for the objects genuinely unique to station A.")
}

// runStrategy wires the two stations through a loopback TCP connection
// under the given strategy and prints one table row.
func runStrategy(strat robustset.Strategy, params robustset.Params, stationA, stationB []robustset.Point) {
	sess, err := robustset.NewSession(strat, robustset.WithParams(params))
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		_, err = sess.Serve(ctx, conn, stationA)
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	res, stats, err := sess.Fetch(ctx, conn, stationB)
	if err != nil {
		log.Fatalf("%s: %v", strat.Name(), err)
	}
	if err := <-done; err != nil {
		log.Fatalf("%s (serving side): %v", strat.Name(), err)
	}
	quality, _ := robustset.EMDApprox(stationA, res.SPrime, universe, 99)
	fmt.Printf("%-18s %12d %8d %14.0f\n", strat.Name(), stats.Total(), stats.MsgsSent+stats.MsgsRecv, quality)
}

// observeField produces the two stations' readings of a shared object
// field.
func observeField(rng *rand.Rand) (a, b []robustset.Point) {
	objects := make([]robustset.Point, nObjects)
	for i := range objects {
		objects[i] = robustset.Point{
			rng.Int64N(universe.Delta), rng.Int64N(universe.Delta), rng.Int64N(universe.Delta),
		}
	}
	observe := func(p robustset.Point) robustset.Point {
		q := robustset.Point{
			p[0] + int64(math.Round(rng.NormFloat64()*noiseStd)),
			p[1] + int64(math.Round(rng.NormFloat64()*noiseStd)),
			p[2] + int64(math.Round(rng.NormFloat64()*noiseStd)),
		}
		return universe.Clamp(q)
	}
	a = make([]robustset.Point, nObjects)
	b = make([]robustset.Point, nObjects)
	for i, obj := range objects {
		if i < missed {
			// Station B never saw this object; it records a different one.
			b[i] = observe(robustset.Point{
				rng.Int64N(universe.Delta), rng.Int64N(universe.Delta), rng.Int64N(universe.Delta),
			})
		} else {
			b[i] = observe(obj)
		}
		a[i] = observe(obj)
	}
	return a, b
}
