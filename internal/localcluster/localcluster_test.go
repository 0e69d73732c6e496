package localcluster

import (
	"context"
	"testing"
	"time"

	"robustset"
	"robustset/internal/points"
)

// TestLayout: every node holds the common points and its own extras, and
// no extra is another node's.
func TestLayout(t *testing.T) {
	u := robustset.Universe{Dim: 3, Delta: 1 << 12}
	pts, err := layout(u, 50, 3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]int{}
	for nd, node := range pts {
		if len(node) != 54 {
			t.Fatalf("node %d holds %d points, want 54", nd, len(node))
		}
		if err := u.CheckSet(node); err != nil {
			t.Fatal(err)
		}
		if !robustset.EqualMultisets(node[:50], pts[0][:50]) {
			t.Errorf("node %d's common points differ from node 0's", nd)
		}
		for _, p := range node[50:] {
			if o, ok := owner[string(points.EncodeNew(p))]; ok && o != nd {
				t.Errorf("extra %v is node %d's and node %d's", p, o, nd)
			}
			owner[string(points.EncodeNew(p))] = nd
		}
	}
	if pts, err := layout(u, 0, 3, 4, 7); err != nil {
		t.Error(err)
	} else if len(pts[2]) != 4 {
		t.Errorf("without common points node 2 holds %d points, want its 4 extras", len(pts[2]))
	}
	if _, err := layout(robustset.Universe{Dim: 2, Delta: 3}, 50, 3, 4, 7); err == nil {
		t.Error("a universe of Δ = 3 was accepted")
	}
}

// TestKillRestart drives the rig through what its callers do: converge,
// kill a durable node, write to a survivor, re-converge the survivors,
// restart the node from its directory and converge all three again.
func TestKillRestart(t *testing.T) {
	for _, shards := range []int{1, 3} {
		u := robustset.Universe{Dim: 2, Delta: 1 << 16}
		cl, err := Start(Config{
			Nodes: 3, Base: 200, Extra: 5, LayoutSeed: 9, Dataset: "d", Shards: shards, Dir: t.TempDir(),
			Params: robustset.Params{Universe: u, Seed: 3, DiffBudget: 32},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var added int
		if _, err := cl.Converge(ctx, 8, func(_ int, s Sweep) error { added += s.Added; return nil }); err != nil {
			t.Fatal(err)
		}
		if added != 2*3*5 {
			t.Errorf("shards %d: the first convergence added %d points, want %d", shards, added, 2*3*5)
		}
		if err := cl.Kill(2); err != nil {
			t.Fatal(err)
		}
		if got := cl.Live(); len(got) != 2 || cl.Replicator(2) != nil {
			t.Fatalf("live nodes %v after the kill", got)
		}
		// Mined twice from one seed, the second five are new again.
		for range 2 {
			if err := cl.AddFresh(0, 5, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.Converge(ctx, 8, nil); err != nil {
			t.Fatal(err)
		}
		if err := cl.Restart(2); err != nil {
			t.Fatal(err)
		}
		if got := len(cl.Snapshot(2)); got != 215 {
			t.Fatalf("shards %d: the restarted node recovered %d points, want 215", shards, got)
		}
		if _, err := cl.Converge(ctx, 8, nil); err != nil {
			t.Fatal(err)
		}
		if got := len(cl.Snapshot(2)); got != 225 {
			t.Errorf("shards %d: the rejoined node holds %d points, want 225", shards, got)
		}
	}
}

// TestAddFreshFullUniverse: a universe without room for the points asked
// for is an error, not an endless draw.
func TestAddFreshFullUniverse(t *testing.T) {
	cl, err := Start(Config{
		Nodes: 2, Base: 4, Extra: 1, Dataset: "d",
		Params: robustset.Params{Universe: robustset.Universe{Dim: 1, Delta: 8}, Seed: 1, DiffBudget: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.AddFresh(0, 50, 1); err == nil {
		t.Fatal("50 fresh points were added to a universe of 8")
	}
}
