package protocol

import (
	"testing"

	"robustset/internal/core"
	"robustset/internal/points"
	"robustset/internal/transport"
)

// runPair executes an Alice session against a Bob session over an
// in-memory pair and returns Bob's error (Alice's is asserted nil).
func runPair(t *testing.T, alice func(transport.Transport) error, bob func(transport.Transport) error) {
	t.Helper()
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	done := make(chan error, 1)
	go func() { done <- alice(at) }()
	if err := bob(bt); err != nil {
		t.Fatalf("bob: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("alice: %v", err)
	}
}

func TestPushPullHappyPath(t *testing.T) {
	inst := testInstance(t, 200, 4)
	params := core.Params{Universe: testU, Seed: 3, DiffBudget: 4}
	runPair(t,
		func(tr transport.Transport) error { return RunPushAlice(bg, tr, params, inst.Alice) },
		func(tr transport.Transport) error {
			res, err := RunPushBob(bg, tr, inst.Bob)
			if err != nil {
				return err
			}
			if len(res.SPrime) != len(inst.Bob) {
				t.Errorf("|S'_B| = %d, want %d", len(res.SPrime), len(inst.Bob))
			}
			return nil
		})
}

func TestEstimateHappyPath(t *testing.T) {
	inst := testInstance(t, 400, 6)
	params := core.Params{Universe: testU, Seed: 5, DiffBudget: 6}
	runPair(t,
		func(tr transport.Transport) error { return RunEstimateAlice(bg, tr, params, inst.Alice) },
		func(tr transport.Transport) error {
			res, err := RunEstimateBob(bg, tr, params, inst.Bob, EstimateOpts{})
			if err != nil {
				return err
			}
			if len(res.SPrime) != len(inst.Bob) {
				t.Errorf("|S'_B| = %d, want %d", len(res.SPrime), len(inst.Bob))
			}
			return nil
		})
}

func TestNaiveHappyPath(t *testing.T) {
	inst := testInstance(t, 100, 0)
	runPair(t,
		func(tr transport.Transport) error { return RunNaiveAlice(bg, tr, testU, inst.Alice) },
		func(tr transport.Transport) error {
			got, err := RunNaiveBob(bg, tr, testU)
			if err != nil {
				return err
			}
			if !points.EqualMultisets(got, inst.Alice) {
				t.Error("naive transfer corrupted the set")
			}
			return nil
		})
}

type exactPair struct{ alice, bob []points.Point }

// exactInstanceForProtocol builds a zero-noise instance with k replaced
// points.
func exactInstanceForProtocol(t *testing.T, n, k int) (exactPair, error) {
	t.Helper()
	inst := testInstance(t, n, 0)
	alice := points.Clone(inst.Bob)
	for i := 0; i < k; i++ {
		alice[i] = points.Point{int64(1000+i) % testU.Delta, int64(2000+i) % testU.Delta}
	}
	return exactPair{alice: alice, bob: inst.Bob}, nil
}
