package robustset_test

import (
	"context"
	"math"
	"math/rand/v2"
	"net"
	"testing"

	"robustset"
)

var testU = robustset.Universe{Dim: 2, Delta: 1 << 16}

// makeNoisyPair builds Bob's set plus Alice's noisy copy with k fresh
// outliers, using only the public API surface.
func makeNoisyPair(rng *rand.Rand, n, k int, noise int64) (alice, bob []robustset.Point) {
	bob = make([]robustset.Point, n)
	alice = make([]robustset.Point, n)
	for i := range bob {
		bob[i] = robustset.Point{rng.Int64N(testU.Delta), rng.Int64N(testU.Delta)}
		if i < k {
			alice[i] = robustset.Point{rng.Int64N(testU.Delta), rng.Int64N(testU.Delta)}
			continue
		}
		p := robustset.Point{bob[i][0] + rng.Int64N(2*noise+1) - noise, bob[i][1] + rng.Int64N(2*noise+1) - noise}
		for j, c := range p {
			if c < 0 {
				p[j] = 0
			} else if c >= testU.Delta {
				p[j] = testU.Delta - 1
			}
		}
		alice[i] = p
	}
	return alice, bob
}

func TestPublicQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	alice, bob := makeNoisyPair(rng, 200, 5, 3)
	params := robustset.Params{Universe: testU, Seed: 42, DiffBudget: 5}

	sketch, err := robustset.NewSketch(params, alice)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sketch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var wire robustset.Sketch
	if err := wire.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	res, err := robustset.Reconcile(&wire, bob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SPrime) != len(bob) {
		t.Fatalf("|S'_B| = %d, want %d", len(res.SPrime), len(bob))
	}
	before, err := robustset.EMD(alice, bob, robustset.L1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := robustset.EMD(alice, res.SPrime, robustset.L1)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("EMD did not improve: %v → %v", before, after)
	}
	// EMD_k lower-bounds what any protocol could achieve.
	floor, err := robustset.EMDk(alice, bob, robustset.L1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if after < floor-1e-9 {
		t.Errorf("EMD after (%v) below the EMD_k floor (%v): impossible", after, floor)
	}
}

// sessionOverTCP runs one peer-to-peer exchange of strat over a loopback
// TCP connection: Serve on the accepting side, Fetch on the dialing side.
func sessionOverTCP(t *testing.T, strat robustset.Strategy, params robustset.Params,
	alice, bob []robustset.Point) (res *robustset.SyncResult, fetched, served robustset.TransferStats) {
	t.Helper()
	sess, err := robustset.NewSession(strat, robustset.WithParams(params))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx := context.Background()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		served, err = sess.Serve(ctx, conn, alice)
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, fetched, err = sess.Fetch(ctx, conn, bob)
	if err != nil {
		t.Fatalf("%s fetch: %v", strat.Name(), err)
	}
	if err := <-done; err != nil {
		t.Fatalf("%s serve: %v", strat.Name(), err)
	}
	return res, fetched, served
}

func TestPublicPushPullOverTCP(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	alice, bob := makeNoisyPair(rng, 300, 6, 2)
	params := robustset.Params{Universe: testU, Seed: 9, DiffBudget: 6}

	res, stats, served := sessionOverTCP(t, robustset.Robust{}, params, alice, bob)
	if stats.BytesRecv != served.BytesSent {
		t.Errorf("bob received %d bytes, alice sent %d", stats.BytesRecv, served.BytesSent)
	}
	if res.Robust == nil || len(res.SPrime) != len(bob) {
		t.Errorf("|S'_B| = %d, want %d (robust details: %v)", len(res.SPrime), len(bob), res.Robust != nil)
	}
}

func TestPublicAdaptiveOverTCP(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	alice, bob := makeNoisyPair(rng, 400, 6, 3)
	params := robustset.Params{Universe: testU, Seed: 11, DiffBudget: 6}

	res, stats, _ := sessionOverTCP(t, robustset.Adaptive{}, params, alice, bob)
	if len(res.SPrime) != len(bob) {
		t.Errorf("|S'_B| = %d, want %d", len(res.SPrime), len(bob))
	}
	if stats.MsgsSent < 2 || stats.MsgsRecv < 2 {
		t.Errorf("adaptive protocol should be multi-round, stats %+v", stats)
	}
}

func TestPublicExactOverTCP(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	// Exact regime: Bob's set plus 10 replaced points.
	_, bob := makeNoisyPair(rng, 250, 0, 0)
	alice := robustset.ClonePoints(bob)
	for i := 0; i < 10; i++ {
		alice[i] = robustset.Point{rng.Int64N(testU.Delta), rng.Int64N(testU.Delta)}
	}
	res, _, _ := sessionOverTCP(t, robustset.Rateless{}, robustset.Params{Universe: testU, Seed: 21}, alice, bob)
	if !robustset.EqualMultisets(res.SPrime, alice) {
		t.Error("rateless: result != S_A")
	}
}

func TestPublicEMDApprox(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	alice, bob := makeNoisyPair(rng, 100, 0, 4)
	est, err := robustset.EMDApprox(alice, bob, testU, 31)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := robustset.EMD(alice, bob, robustset.L1)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 || exact <= 0 {
		t.Fatalf("degenerate distances: est=%v exact=%v", est, exact)
	}
	if ratio := est / exact; math.IsNaN(ratio) || ratio < 0.02 || ratio > 100 {
		t.Errorf("approximation ratio %v outside plausible distortion band", ratio)
	}
	if same, _ := robustset.EMDApprox(alice, alice, testU, 31); same != 0 {
		t.Errorf("self-distance estimate %v, want 0", same)
	}
}

func TestPublicValidateSet(t *testing.T) {
	if err := robustset.ValidateSet(testU, []robustset.Point{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := robustset.ValidateSet(testU, []robustset.Point{{-1, 0}}); err == nil {
		t.Fatal("invalid point accepted")
	}
}
