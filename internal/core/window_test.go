package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"robustset/internal/points"
	"robustset/internal/workload"
)

// windowCase is one seeded instance of the window equivalence property.
type windowCase struct {
	name       string
	p          Params
	alice, bob []points.Point
}

// windowCases spans noise 0/1/4/64 × n ∈ {0, 1, 2 000, 20 000} × d ∈ {1,
// 2, 3} over five seeds (one at n = 20 000), every instance with
// duplicate points on both sides once n allows, plus instances of a
// universe whose Morton code does not fit 64 bits (dim 8 × 10 bits),
// which take the occupancy-map path.
func windowCases(t *testing.T) []windowCase {
	t.Helper()
	var cases []windowCase
	add := func(name string, u points.Universe, n int, noise float64, seed uint64) {
		p := Params{Universe: u, Seed: seed, DiffBudget: 4 << (seed % 3)}
		var alice, bob []points.Point
		switch n {
		case 0:
			// Bob holds nothing; Alice holds none, one or two points.
			for i := range int(seed % 3) {
				alice = append(alice, make(points.Point, u.Dim))
				alice[i][0] = int64(i*977) % u.Delta
			}
		default:
			cfg := workload.Config{N: n, Universe: u, Outliers: min(n, int(seed%4)+1), Scale: noise, Seed: seed}
			if noise > 0 {
				cfg.Noise = workload.NoiseUniform
			}
			inst := genInstance(t, cfg)
			alice, bob = inst.Alice, inst.Bob
			// Multiplicities above one, differently on the two sides.
			alice = append(alice, alice[:n/7]...)
			bob = append(bob, bob[:n/5]...)
			bob = append(bob, bob[:n/11]...)
		}
		cases = append(cases, windowCase{fmt.Sprintf("%s/n=%d/noise=%v/seed=%d", name, n, noise, seed), p, alice, bob})
	}
	for _, noise := range []float64{0, 1, 4, 64} {
		for d := 1; d <= 3; d++ {
			u := points.Universe{Dim: d, Delta: 1 << 12}
			for _, n := range []int{0, 1, 2000, 20000} {
				seeds := 5
				if n == 20000 {
					seeds = 1
				}
				for s := range seeds {
					add(fmt.Sprintf("d=%d", d), u, n, noise, uint64(100*d+10*s+len(cases)))
				}
			}
		}
	}
	wide := points.Universe{Dim: 8, Delta: 1 << 9}
	for s := range 12 {
		add("wide", wide, 300, float64(s%4*2), uint64(900+s))
	}
	return cases
}

// TestWindowReconcileMatchesFull is the property the warm robust opening
// rests on: cut the window [lo, MaxLevel] out of a full sketch for every
// lo above MinLevel, and Reconcile over it returns the full sketch's
// result — SPrime in the same order, Added, Removed, Level, CellWidth and
// Outcomes — wherever the full scan chose a level ≥ lo, and
// ErrNoDecodableLevel everywhere else.
func TestWindowReconcileMatchesFull(t *testing.T) {
	cases := windowCases(t)
	if len(cases) < 200 {
		t.Fatalf("%d instances, want at least 200", len(cases))
	}
	var windows, same, missed int
	for _, c := range cases {
		sk, err := BuildSketch(c.p, c.alice)
		if err != nil {
			t.Fatal(err)
		}
		p := sk.Params
		if v, err := NewView(p, c.bob); err != nil || (p.Universe.Dim == 8) != (v.mo == nil && len(c.bob) > 0) {
			t.Fatalf("%s: view without a Morton order %v (%v); want it exactly for the wide universe", c.name, v.mo == nil, err)
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		full, ferr := Reconcile(sk, c.bob)
		if ferr != nil && !errors.Is(ferr, ErrNoDecodableLevel) {
			t.Fatalf("%s: %v", c.name, ferr)
		}
		for lo := p.MinLevel + 1; lo <= p.MaxLevel; lo++ {
			head, tail, err := SketchWindow(blob, lo)
			if err != nil {
				t.Fatalf("%s: window from %d: %v", c.name, lo, err)
			}
			var w Sketch
			if err := w.UnmarshalAs(append(head, tail...), p.WithLevels(lo, p.MaxLevel)); err != nil {
				t.Fatalf("%s: window from %d: %v", c.name, lo, err)
			}
			got, gerr := Reconcile(&w, c.bob)
			windows++
			if ferr == nil && full.Level >= lo {
				same++
				if gerr != nil {
					t.Fatalf("%s: full scan chose level %d, window from %d: %v", c.name, full.Level, lo, gerr)
				}
				got.Params = full.Params // the window's own; a fetch reports the full range
				if !reflect.DeepEqual(got, full) {
					t.Fatalf("%s: window from %d: result differs from the full sketch's (level %d vs %d, outcomes %v vs %v)",
						c.name, lo, got.Level, full.Level, got.Outcomes, full.Outcomes)
				}
				continue
			}
			missed++
			if !errors.Is(gerr, ErrNoDecodableLevel) {
				t.Fatalf("%s: full scan chose level %d (%v), window from %d: %v, want ErrNoDecodableLevel",
					c.name, full.Level, ferr, lo, gerr)
			}
		}
	}
	t.Logf("%d instances, %d windows: %d reproduce the full result, %d miss", len(cases), windows, same, missed)
	if same == 0 || missed == 0 {
		t.Error("the instances exercise only one side of the property")
	}
}

// TestSketchWindowIsTheClampedSketch: the window cut from a sketch's
// bytes is, byte for byte, the sketch built under WithLevels(lo,
// MaxLevel), its tail is the full blob's, and a window from MinLevel or
// below, or past MaxLevel, is refused.
func TestSketchWindowIsTheClampedSketch(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{N: 500, Universe: u, Outliers: 5, Noise: workload.NoiseUniform, Scale: 3, Seed: 3})
	for _, p := range []Params{testParams(u, 8, 1), testParams(u, 8, 2).WithLevels(3, 9)} {
		sk, err := BuildSketch(p, inst.Alice)
		if err != nil {
			t.Fatal(err)
		}
		p = sk.Params
		blob, _ := sk.MarshalBinary()
		for lo := p.MinLevel + 1; lo <= p.MaxLevel; lo++ {
			head, tail, err := SketchWindow(blob, lo)
			if err != nil {
				t.Fatal(err)
			}
			clamped, err := BuildSketch(p.WithLevels(lo, p.MaxLevel), inst.Alice)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := clamped.MarshalBinary()
			if got := append(head, tail...); !bytes.Equal(got, want) {
				t.Errorf("levels [%d,%d]: window of %d bytes differs from the clamped sketch's %d", lo, p.MaxLevel, len(got), len(want))
			}
			if !bytes.Equal(tail, blob[len(blob)-len(tail):]) || len(head) != sketchHeaderSize {
				t.Errorf("levels [%d,%d]: the window is not a header and the blob's tail", lo, p.MaxLevel)
			}
		}
		for _, lo := range []int{p.MinLevel, p.MinLevel - 1, p.MaxLevel + 1, 256} {
			if _, _, err := SketchWindow(blob, lo); !errors.Is(err, ErrLevelOutOfRange) {
				t.Errorf("levels [%d,%d]: window from %d: %v, want ErrLevelOutOfRange", p.MinLevel, p.MaxLevel, lo, err)
			}
		}
		for _, cut := range []int{0, sketchHeaderSize - 1, sketchHeaderSize + 2, len(blob) / 2} {
			if _, _, err := SketchWindow(blob[:cut], p.MaxLevel); err == nil {
				t.Errorf("a blob cut at %d of %d bytes gave a window", cut, len(blob))
			}
		}
	}
}

// TestUnmarshalAsRefusesOtherParams: a sketch whose header carries other
// parameters than the caller's is ErrInconsistentSketch — another
// MinLevel, seed or capacity — and its own parameters unmarshal it.
func TestUnmarshalAsRefusesOtherParams(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{N: 200, Universe: u, Outliers: 3, Seed: 4})
	p, err := testParams(u, 8, 5).WithLevels(4, 12).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := sk.MarshalBinary()
	var got Sketch
	if err := got.UnmarshalAs(blob, p); err != nil || !reflect.DeepEqual(got.Params, sk.Params) {
		t.Fatalf("the sketch's own parameters: %v", err)
	}
	other := p
	other.TableCapacity++
	for _, want := range []Params{p.WithLevels(3, 12), p.WithLevels(4, 11), testParams(u, 8, 6).WithLevels(4, 12), other} {
		if want, err = want.Normalized(); err != nil {
			t.Fatal(err)
		}
		if err := got.UnmarshalAs(blob, want); !errors.Is(err, ErrInconsistentSketch) {
			t.Errorf("want %+v: %v, want ErrInconsistentSketch", want, err)
		}
	}
}
