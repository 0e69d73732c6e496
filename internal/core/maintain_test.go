package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"robustset/internal/points"
	"robustset/internal/workload"
)

func TestMaintainerMatchesRebuildBitwise(t *testing.T) {
	// The central property: after any add/remove sequence the maintained
	// sketch is bitwise identical (on the wire) to a fresh BuildSketch of
	// the final multiset.
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	p := testParams(u, 4, 99)
	rng := rand.New(rand.NewPCG(1, 2))
	inst := genInstance(t, workload.Config{N: 100, Universe: u, Seed: 3})

	m, err := NewMaintainer(p, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	current := points.Clone(inst.Bob)
	for step := 0; step < 300; step++ {
		if len(current) > 0 && rng.IntN(2) == 0 {
			i := rng.IntN(len(current))
			if err := m.Remove(current[i]); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			current = append(current[:i], current[i+1:]...)
		} else {
			pt := points.Point{rng.Int64N(u.Delta), rng.Int64N(u.Delta)}
			if err := m.Add(pt); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			current = append(current, pt)
		}
	}
	if m.Count() != len(current) {
		t.Fatalf("count %d, want %d", m.Count(), len(current))
	}
	got, err := m.Sketch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildSketch(p, current)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rebuilt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("maintained sketch differs from rebuilt sketch")
	}
}

func TestMaintainerSketchReconciles(t *testing.T) {
	// End-to-end: a maintained sketch must drive Reconcile exactly like a
	// built one.
	u := points.Universe{Dim: 2, Delta: 1 << 14}
	p := testParams(u, 6, 5)
	inst := genInstance(t, workload.Config{
		N: 200, Universe: u, Seed: 7,
	})
	m, err := NewMaintainer(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	// Alice's data drifts: she learns 4 new points and drops 4.
	rng := rand.New(rand.NewPCG(8, 8))
	alice := points.Clone(inst.Alice)
	for i := 0; i < 4; i++ {
		pt := points.Point{rng.Int64N(u.Delta), rng.Int64N(u.Delta)}
		if err := m.Add(pt); err != nil {
			t.Fatal(err)
		}
		alice = append(alice, pt)
	}
	for i := 0; i < 4; i++ {
		if err := m.Remove(alice[i]); err != nil {
			t.Fatal(err)
		}
	}
	alice = alice[4:]
	res, err := Reconcile(m.Sketch(), inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if !points.EqualMultisets(res.SPrime, alice) {
		t.Fatal("reconciliation against maintained sketch wrong (exact regime)")
	}
}

func TestMaintainerRemoveAbsent(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 10}
	p := testParams(u, 2, 1)
	m, err := NewMaintainer(p, []points.Point{{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(points.Point{6, 6}); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("removing absent point: %v", err)
	}
	// The failed removal must not have corrupted the sketch.
	got, _ := m.Sketch().MarshalBinary()
	fresh, _ := BuildSketch(p, []points.Point{{5, 5}})
	want, _ := fresh.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("failed Remove mutated the sketch")
	}
	// Removing the real point then re-removing fails.
	if err := m.Remove(points.Point{5, 5}); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(points.Point{5, 5}); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("double remove: %v", err)
	}
	if m.Count() != 0 {
		t.Fatalf("count %d, want 0", m.Count())
	}

	// A universe too wide for 64-bit codes (4 × 17 bits), with a trimmed
	// MaxLevel: an absent point that shares every included cell with a
	// present one is refused too, not taken for its neighbour.
	wide := testParams(points.Universe{Dim: 4, Delta: 1 << 16}, 2, 1).WithLevels(2, 9)
	present := points.Point{1000, 2000, 3000, 4000}
	if m, err = NewMaintainer(wide, []points.Point{present}); err != nil {
		t.Fatal(err)
	}
	var absent points.Point
	for k := int64(1); absent == nil; k++ {
		for _, q := range []points.Point{{1000 + k, 2000, 3000, 4000}, {1000 - k, 2000, 3000, 4000}} {
			if bytes.Equal(m.g.AppendCell(nil, wide.MaxLevel, q), m.g.AppendCell(nil, wide.MaxLevel, present)) {
				absent = q
			}
		}
	}
	before, _ := m.Sketch().MarshalBinary()
	if err := m.Remove(absent); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("removing %v, absent, beside %v in every included cell: %v", absent, present, err)
	}
	if after, _ := m.Sketch().MarshalBinary(); m.Count() != 1 || !bytes.Equal(after, before) {
		t.Fatalf("the refused remove left count %d (want 1) and changed the sketch: %v", m.Count(), !bytes.Equal(after, before))
	}
	if m.Multiplicity(present) != 1 || m.Multiplicity(absent) != 0 {
		t.Fatalf("multiplicities %d and %d, want 1 and 0", m.Multiplicity(present), m.Multiplicity(absent))
	}
}

func TestMaintainerDuplicates(t *testing.T) {
	u := points.Universe{Dim: 1, Delta: 1 << 8}
	p := testParams(u, 2, 1)
	m, err := NewMaintainer(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	dup := points.Point{42}
	for i := 0; i < 5; i++ {
		if err := m.Add(dup); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := m.Remove(dup); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	if err := m.Remove(dup); !errors.Is(err, ErrNotPresent) {
		t.Fatal("sixth remove should fail")
	}
	got, _ := m.Sketch().MarshalBinary()
	fresh, _ := BuildSketch(p, nil)
	want, _ := fresh.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("sketch not empty after symmetric add/remove")
	}
}

func TestMaintainerValidation(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 8}
	p := testParams(u, 2, 1)
	if _, err := NewMaintainer(Params{Universe: u}, nil); err == nil {
		t.Error("invalid params accepted")
	}
	m, err := NewMaintainer(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(points.Point{-1, 0}); err == nil {
		t.Error("out-of-universe add accepted")
	}
	if err := m.Remove(points.Point{999, 0}); err == nil {
		t.Error("out-of-universe remove accepted")
	}
}

// TestMaintainerOccupancyKeying pins which form a Maintainer's record of
// its points takes: one sorted index of their Morton codes and no map
// wherever dim × depth fits 64 bits — an empty initial set included,
// where no presort exists to say so — and per-level maps keyed by the
// encoded cell otherwise. Either way the record agrees with a recount of
// the points, and a cell emptied by Remove is forgotten rather than kept
// at zero.
func TestMaintainerOccupancyKeying(t *testing.T) {
	for _, tc := range []struct {
		u      points.Universe
		narrow bool
	}{
		{points.Universe{Dim: 2, Delta: 1 << 12}, true},
		{points.Universe{Dim: 4, Delta: 1 << 15}, true},  // 4 × 16 = 64 bits exactly
		{points.Universe{Dim: 8, Delta: 1 << 9}, false},  // 80 bits
		{points.Universe{Dim: 4, Delta: 1 << 16}, false}, // 68 bits
	} {
		p := testParams(tc.u, 4, 5)
		inst := genInstance(t, workload.Config{N: 60, Universe: tc.u, Seed: 11, Clusters: 3})
		pts := append(points.Clone(inst.Bob), inst.Bob[0].Clone(), inst.Bob[0].Clone())
		for _, initial := range [][]points.Point{nil, pts} {
			m, err := NewMaintainer(p, initial)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range pts[len(initial):] {
				if err := m.Add(pt); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.VerifyFreshBuild(pts); err != nil {
				t.Fatalf("%+v: %v", tc.u, err)
			}
			if (m.codes != nil) != tc.narrow || (m.occ != nil) == tc.narrow {
				t.Fatalf("%+v: codes=%v maps=%v, want the codes %v", tc.u, m.codes != nil, m.occ != nil, tc.narrow)
			}
			if m.codes != nil {
				var want, got []uint64
				for _, pt := range pts {
					want = append(want, m.codes.code(pt))
				}
				slices.Sort(want)
				for _, ch := range m.codes.chunks {
					got = append(got, ch...)
				}
				if !slices.Equal(got, want) || m.codes.len() != len(pts) {
					t.Fatalf("%+v: the index holds %d codes (%d counted), not the points' %d", tc.u, len(got), m.codes.len(), len(want))
				}
			}
			for idx, occ := range m.occ {
				total := 0
				for _, n := range occ {
					total += int(*n)
				}
				if total != len(pts) {
					t.Fatalf("%+v level %d: occupancy counts %d points, want %d", tc.u, idx, total, len(pts))
				}
			}
			for _, pt := range pts {
				if err := m.Remove(pt); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Remove(pts[0]); !errors.Is(err, ErrNotPresent) {
				t.Fatalf("remove from an emptied maintainer: %v", err)
			}
			if m.codes != nil && (len(m.codes.chunks) != 0 || m.codes.len() != 0) {
				t.Fatalf("%+v: %d chunks survive the last remove", tc.u, len(m.codes.chunks))
			}
			for idx, occ := range m.occ {
				if len(occ) != 0 {
					t.Fatalf("%+v level %d: %d cells survive the last remove", tc.u, idx, len(occ))
				}
			}
		}
	}
}

// TestMaintainerLevelBuildsMatchView: what the Maintainer builds from its
// codes alone — the estimate-first protocol's estimators and level tables
// — is on the wire what a View builds over the surviving points, after a
// long random add/remove sequence with duplicates, from the initial set
// and from an empty one. The 8-dimensional universe needs 8 × 10 = 80
// Morton bits, so its counts are keyed by the encoded cell and its view
// takes the occupancy fallback; Δ = 2²⁰ in the plane and Δ = 2¹⁵ in four
// dimensions — exactly 64 bits — keep codes. A trimmed level range rides
// along: levels outside it are refused. The points the Maintainer yields
// and the multiplicities it answers are the model's.
func TestMaintainerLevelBuildsMatchView(t *testing.T) {
	for _, tc := range []struct {
		u      points.Universe
		lo, hi int
		empty  bool
	}{
		{points.Universe{Dim: 2, Delta: 1 << 20}, 0, 20, false},
		{points.Universe{Dim: 2, Delta: 1 << 20}, 3, 10, false},
		{points.Universe{Dim: 2, Delta: 1 << 20}, 0, 20, true},
		{points.Universe{Dim: 4, Delta: 1 << 15}, 0, 15, false},
		{points.Universe{Dim: 4, Delta: 1 << 15}, 2, 9, true},
		{points.Universe{Dim: 8, Delta: 1 << 9}, 0, 9, false},
		{points.Universe{Dim: 8, Delta: 1 << 9}, 2, 6, false},
	} {
		p := testParams(tc.u, 4, 23).WithLevels(tc.lo, tc.hi)
		rng := rand.New(rand.NewPCG(uint64(tc.u.Dim), uint64(tc.hi)))
		inst := genInstance(t, workload.Config{N: 500, Universe: tc.u, Seed: 7, Clusters: 4})
		initial := inst.Bob
		if tc.empty {
			initial = nil
		}
		m, err := NewMaintainer(p, initial)
		if err != nil {
			t.Fatal(err)
		}
		current := points.Clone(initial)
		for step := 0; step < 2000; step++ {
			switch r := rng.IntN(10); {
			case len(current) > 0 && r < 5:
				i := rng.IntN(len(current))
				if err := m.Remove(current[i]); err != nil {
					t.Fatalf("step %d: remove: %v", step, err)
				}
				current[i] = current[len(current)-1]
				current = current[:len(current)-1]
			default:
				var pt points.Point
				if len(current) > 0 && r < 7 {
					pt = current[rng.IntN(len(current))].Clone() // a duplicate: occurrence > 0
				} else {
					pt = make(points.Point, tc.u.Dim)
					for j := range pt {
						pt[j] = rng.Int64N(tc.u.Delta)
					}
				}
				if err := m.Add(pt); err != nil {
					t.Fatalf("step %d: add: %v", step, err)
				}
				current = append(current, pt)
			}
		}
		if (m.codes != nil) != (tc.u.Dim < 8) {
			t.Fatalf("dim %d: codes %v", tc.u.Dim, m.codes != nil)
		}
		// The maintainer holds the multiset itself: its points and each
		// one's multiplicity are the model's.
		var held []points.Point
		m.EachPoint(func(pt points.Point) { held = append(held, pt.Clone()) })
		if !points.EqualMultisets(held, current) || m.Count() != len(current) {
			t.Fatalf("dim %d [%d,%d]: the maintainer yields %d points, count %d, not the model's %d", tc.u.Dim, tc.lo, tc.hi, len(held), m.Count(), len(current))
		}
		for _, pt := range current[:min(len(current), 50)] {
			n := 0
			for _, q := range current {
				if q.Equal(pt) {
					n++
				}
			}
			if got := m.Multiplicity(pt); got != n {
				t.Fatalf("dim %d: multiplicity of %v is %d, the model holds %d", tc.u.Dim, pt, got, n)
			}
		}
		v, err := NewView(p, current)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{8, 64} {
			for l := tc.lo; l <= tc.hi; l++ {
				want, err := v.LevelEstimator(l, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.LevelEstimator(l, k)
				if err != nil {
					t.Fatal(err)
				}
				g, _ := got.MarshalBinary()
				w, _ := want.MarshalBinary()
				if !bytes.Equal(g, w) {
					t.Errorf("dim %d k %d: level %d estimator differs from the view's", tc.u.Dim, k, l)
				}
			}
		}
		for l := tc.lo; l <= tc.hi; l++ {
			for _, capacity := range []int{8, 300} {
				want, err := v.BuildLevelTable(l, capacity)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.BuildLevelTable(l, capacity)
				if err != nil {
					t.Fatal(err)
				}
				g, _ := got.MarshalBinary()
				w, _ := want.MarshalBinary()
				if !bytes.Equal(g, w) {
					t.Errorf("dim %d: level %d capacity %d table differs from the view's", tc.u.Dim, l, capacity)
				}
			}
		}
		for _, l := range []int{-1, tc.lo - 1, tc.hi + 1, tc.u.Levels() + 1} {
			if _, err := m.BuildLevelTable(l, 8); !errors.Is(err, ErrLevelOutOfRange) {
				t.Errorf("dim %d: level %d outside [%d,%d]: %v, want ErrLevelOutOfRange", tc.u.Dim, l, tc.lo, tc.hi, err)
			}
			if _, err := m.LevelEstimator(l, 8); !errors.Is(err, ErrLevelOutOfRange) {
				t.Errorf("dim %d: level %d estimator outside [%d,%d]: %v, want ErrLevelOutOfRange", tc.u.Dim, l, tc.lo, tc.hi, err)
			}
		}
	}
}
