package robustset_test

import (
	"testing"

	"robustset"
)

// ratelessExactPair builds an exact-regime instance: Bob's set plus k
// replaced points on Alice's side.
func ratelessExactPair(n, k int) (alice, bob []robustset.Point) {
	bob, _ = deterministicPair(31, n, 0, 0)
	alice = robustset.ClonePoints(bob)
	for i := 0; i < k; i++ {
		alice[i] = robustset.Point{int64(i)*37 + 5, int64(i)*53 + 9}
	}
	return alice, bob
}

// TestRatelessAgainstServer fetches a server dataset with the Rateless
// strategy and asserts (a) exact convergence and (b) that the rateless
// cell stream actually flowed, by spotting the CELLS frames in the
// session trace.
func TestRatelessAgainstServer(t *testing.T) {
	alice, bob := ratelessExactPair(400, 20)
	params := robustset.Params{Universe: testU, Seed: 11, DiffBudget: 20}

	srv := robustset.NewServer()
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	var snap *robustset.SessionTrace
	sink := robustset.WithSessionTrace(func(st *robustset.SessionTrace) { snap = st })
	res, stats, err := fetchOnce(t, addr.String(), "d", robustset.Rateless{}, bob, sink)
	if err != nil {
		t.Fatal(err)
	}
	if !robustset.EqualMultisets(res.SPrime, alice) {
		t.Error("rateless fetch did not reproduce the dataset")
	}
	if stats.Total() == 0 {
		t.Error("no traffic accounted")
	}
	if snap == nil || snap.Strategy != "rateless" {
		t.Fatalf("session trace %+v, want one of a rateless session", snap)
	}
	var sawCells bool
	for _, f := range snap.Frames {
		if f.Type == "CELLS" {
			sawCells = true
		}
	}
	if !sawCells {
		t.Error("no CELLS frames on the wire; the server served another protocol")
	}
}

// TestExactClientAgainstRatelessServer: the doubling path and the cell
// stream are separate strategies of one server; an ExactIBLT client gets
// the doubling path next to a Rateless one.
func TestExactClientAgainstRatelessServer(t *testing.T) {
	alice, bob := ratelessExactPair(300, 10)
	params := robustset.Params{Universe: testU, Seed: 23, DiffBudget: 10}

	srv := robustset.NewServer()
	if _, err := srv.Publish("d", params, alice); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	for _, strat := range []robustset.Strategy{robustset.Rateless{}, robustset.ExactIBLT{}} {
		res, _, err := fetchOnce(t, addr.String(), "d", strat, bob)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if !robustset.EqualMultisets(res.SPrime, alice) {
			t.Errorf("%s client did not converge", strat.Name())
		}
	}
}
