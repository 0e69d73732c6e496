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

	// Universes whose codes take two words (4 × 17 bits) and five (16 ×
	// 17), with a trimmed MaxLevel: an absent point that shares every
	// included cell with a present one is refused too, not taken for its
	// neighbour.
	for _, d := range []int{4, 16} {
		wide := testParams(points.Universe{Dim: d, Delta: 1 << 16}, 2, 1).WithLevels(2, 9)
		present := make(points.Point, d)
		for j := range present {
			present[j] = int64(1000 * (j + 1))
		}
		if m, err = NewMaintainer(wide, []points.Point{present}); err != nil {
			t.Fatal(err)
		}
		var absent points.Point
		for k := int64(1); absent == nil; k++ {
			for _, delta := range []int64{k, -k} {
				q := present.Clone()
				q[0] += delta
				if bytes.Equal(m.g.AppendCell(nil, wide.MaxLevel, q), m.g.AppendCell(nil, wide.MaxLevel, present)) {
					absent = q
				}
			}
		}
		before, _ := m.Sketch().MarshalBinary()
		if err := m.Remove(absent); !errors.Is(err, ErrNotPresent) {
			t.Fatalf("d=%d: removing %v, absent, beside %v in every included cell: %v", d, absent, present, err)
		}
		if after, _ := m.Sketch().MarshalBinary(); m.Count() != 1 || !bytes.Equal(after, before) {
			t.Fatalf("d=%d: the refused remove left count %d (want 1) and changed the sketch: %v", d, m.Count(), !bytes.Equal(after, before))
		}
		if m.Multiplicity(present) != 1 || m.Multiplicity(absent) != 0 {
			t.Fatalf("d=%d: multiplicities %d and %d, want 1 and 0", d, m.Multiplicity(present), m.Multiplicity(absent))
		}
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

// TestMaintainerCodeIndexEveryWidth pins a Maintainer's record of its
// points to one sorted index of their Morton codes in every universe — an
// empty initial set included — of one word up to exactly 64 bits, two
// words from 65 and five at 272 bits, where a level's cell boundary falls
// inside a word, up to MaxDim dimensions. The index holds the points' reference codes in order,
// and the last Remove leaves it empty.
func TestMaintainerCodeIndexEveryWidth(t *testing.T) {
	for _, tc := range []struct {
		u points.Universe
		w int
	}{
		{points.Universe{Dim: 2, Delta: 1 << 12}, 1},
		{points.Universe{Dim: 4, Delta: 1 << 15}, 1},   // 4 × 16 = 64 bits exactly
		{points.Universe{Dim: 8, Delta: 1 << 9}, 2},    // 80 bits
		{points.Universe{Dim: 4, Delta: 1 << 16}, 2},   // 68 bits
		{points.Universe{Dim: 16, Delta: 1 << 16}, 5},  // 272 bits
		{points.Universe{Dim: 100, Delta: 1 << 5}, 10}, // 600 bits, d > 64: words without a bit of a coordinate
		{points.Universe{Dim: MaxDim, Delta: 1 << 3}, 32},
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
			if m.codes.w != tc.w {
				t.Fatalf("%+v: codes of %d words, want %d", tc.u, m.codes.w, tc.w)
			}
			if got, want := slices.Concat(m.codes.chunks...), refCodes(m.g, pts); !slices.Equal(got, want) || m.codes.len() != len(pts) {
				t.Fatalf("%+v: the index holds %d words (%d codes counted), not the points' %d", tc.u, len(got), m.codes.len(), len(want))
			}
			for _, pt := range pts {
				if err := m.Remove(pt); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Remove(pts[0]); !errors.Is(err, ErrNotPresent) {
				t.Fatalf("remove from an emptied maintainer: %v", err)
			}
			if len(m.codes.chunks) != 0 || len(m.codes.lasts) != 0 || m.codes.len() != 0 {
				t.Fatalf("%+v: %d chunks survive the last remove", tc.u, len(m.codes.chunks))
			}
		}
	}
}

// TestMaintainerLevelBuildsMatchView: what the Maintainer builds from its
// codes alone — the estimate-first protocol's estimators and level tables
// — is on the wire what a View builds over the surviving points, after a
// long random add/remove sequence with duplicates, from the initial set
// and from an empty one. Codes take one word at Δ = 2²⁰ in the plane and
// Δ = 2¹⁵ in four dimensions (exactly 64 bits), two at Δ = 2⁹ in eight
// (80 bits) and Δ = 2¹⁶ in four (68), and five at Δ = 2¹⁶ in sixteen
// (272 bits). A trimmed level range rides
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
		{points.Universe{Dim: 4, Delta: 1 << 16}, 0, 16, true},
		{points.Universe{Dim: 16, Delta: 1 << 16}, 0, 16, false},
		{points.Universe{Dim: 16, Delta: 1 << 16}, 3, 11, true},
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
		if w := (tc.u.Dim*(tc.u.Levels()+1) + 63) / 64; m.codes.w != w {
			t.Fatalf("dim %d: codes of %d words, want %d", tc.u.Dim, m.codes.w, w)
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
