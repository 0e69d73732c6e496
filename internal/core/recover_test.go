package core

import (
	"math/rand/v2"
	"testing"

	"robustset/internal/points"
	"robustset/internal/workload"
)

// TestNewMaintainerFromSketch recovers a maintainer from a serialized
// sketch (the snapshot path) and drives it through further churn: the
// adopted tables plus the rebuilt code index must behave exactly like the
// original maintainer, byte-identical to fresh builds throughout, with
// codes of one word, two and five.
func TestNewMaintainerFromSketch(t *testing.T) {
	for _, u := range []points.Universe{{Dim: 2, Delta: 1 << 12}, {Dim: 4, Delta: 1 << 16}, {Dim: 16, Delta: 1 << 16}} {
		testNewMaintainerFromSketch(t, u)
	}
}

func testNewMaintainerFromSketch(t *testing.T, u points.Universe) {
	p := testParams(u, 4, 29)
	rng := rand.New(rand.NewPCG(5, 11))
	inst := genInstance(t, workload.Config{N: 300, Universe: u, Seed: 55, Clusters: 3})

	m, err := NewMaintainer(p, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	current := points.Clone(inst.Bob)
	// Duplicates force multi-occupancy cells into the recovered state.
	for i := 0; i < 20; i++ {
		dup := current[rng.IntN(len(current))].Clone()
		if err := m.Add(dup); err != nil {
			t.Fatal(err)
		}
		current = append(current, dup)
	}

	// Serialize and reload the sketch — exactly what a snapshot stores.
	blob, err := m.Sketch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var loaded Sketch
	if err := loaded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	rec, err := NewMaintainerFromSketch(p, current, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != len(current) {
		t.Fatalf("%+v: recovered count %d, want %d", u, rec.Count(), len(current))
	}
	if err := rec.VerifyFreshBuild(current); err != nil {
		t.Fatalf("recovered maintainer fails the oracle immediately: %v", err)
	}

	// Churn the recovered maintainer: its code index must be fully live.
	for step := 0; step < 600; step++ {
		if len(current) > 0 && rng.IntN(10) < 6 {
			i := rng.IntN(len(current))
			if err := rec.Remove(current[i]); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			current[i] = current[len(current)-1]
			current = current[:len(current)-1]
		} else {
			pt := make(points.Point, u.Dim)
			for j := range pt {
				pt[j] = rng.Int64N(u.Delta)
			}
			if len(current) > 0 && rng.IntN(3) == 0 {
				pt = current[rng.IntN(len(current))].Clone()
			}
			if err := rec.Add(pt); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			current = append(current, pt)
		}
		if step%200 == 199 {
			if err := rec.VerifyFreshBuild(current); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Drain to empty through the recovered state.
	for len(current) > 0 {
		i := rng.IntN(len(current))
		if err := rec.Remove(current[i]); err != nil {
			t.Fatalf("drain: %v", err)
		}
		current[i] = current[len(current)-1]
		current = current[:len(current)-1]
	}
	if err := rec.VerifyFreshBuild(nil); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

func TestNewMaintainerFromSketchRejectsMismatch(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 10}
	p := testParams(u, 4, 7)
	inst := genInstance(t, workload.Config{N: 50, Universe: u, Seed: 9, Clusters: 2})
	m, err := NewMaintainer(p, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	sk := m.Sketch()

	// Count mismatch: the point list does not match the sketch.
	if _, err := NewMaintainerFromSketch(p, inst.Bob[:len(inst.Bob)-1], sk); err == nil {
		t.Fatal("count mismatch accepted")
	}
	// Params mismatch: a different seed is a different grid entirely.
	p2 := p
	p2.Seed++
	if _, err := NewMaintainerFromSketch(p2, inst.Bob, sk); err == nil {
		t.Fatal("params mismatch accepted")
	}
	// Table-count mismatch.
	bad := &Sketch{Params: sk.Params, Count: sk.Count, Tables: sk.Tables[:1]}
	if _, err := NewMaintainerFromSketch(p, inst.Bob, bad); err == nil {
		t.Fatal("table-count mismatch accepted")
	}
}
