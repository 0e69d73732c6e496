package grid

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"robustset/internal/points"
)

// Center is PutCenter of a Cell: the representative point of cell c at
// a level.
func (g *Grid) Center(level int, c Cell) points.Point {
	g.checkLevel(level)
	if len(c) != g.u.Dim {
		panic(fmt.Sprintf("grid: cell dimension %d != universe dimension %d", len(c), g.u.Dim))
	}
	p := make(points.Point, g.u.Dim)
	g.PutCenter(p, level, g.EncodeCell(nil, c))
	return p
}

// Round maps a point to the center of its cell at the given level — the
// paper's rounding operation.
func (g *Grid) Round(level int, p points.Point) points.Point {
	return g.Center(level, g.Cell(level, p))
}

// DecodeCell parses EncodeCell output.
func (g *Grid) DecodeCell(b []byte) (Cell, error) {
	if len(b) != g.EncodedCellSize() {
		return nil, fmt.Errorf("grid: decode cell: have %d bytes, want %d", len(b), g.EncodedCellSize())
	}
	c := make(Cell, g.u.Dim)
	for i := range c {
		c[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return c, nil
}

func testUniverse(d int, delta int64) points.Universe {
	return points.Universe{Dim: d, Delta: delta}
}

func randPoint(rng *rand.Rand, u points.Universe) points.Point {
	p := make(points.Point, u.Dim)
	for i := range p {
		p[i] = rng.Int64N(u.Delta)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(points.Universe{Dim: 0, Delta: 8}, 1); err == nil {
		t.Error("invalid universe accepted")
	}
	if _, err := New(points.Universe{Dim: 2, Delta: 7}, 1); err == nil {
		t.Error("non-power-of-two delta accepted")
	}
	g, err := New(testUniverse(2, 1<<10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Levels() != 10 {
		t.Errorf("Levels = %d, want 10", g.Levels())
	}
}

func TestDeterministicShift(t *testing.T) {
	u := testUniverse(3, 1<<16)
	g1, _ := New(u, 42)
	g2, _ := New(u, 42)
	g3, _ := New(u, 43)
	s1, s2, s3 := g1.Shift(), g2.Shift(), g3.Shift()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same seed must give same shift")
		}
	}
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical shifts")
	}
	for _, s := range s1 {
		if s < 0 || s >= u.Delta {
			t.Errorf("shift %d out of [0,delta)", s)
		}
	}
}

func TestCellWidthHalvesPerLevel(t *testing.T) {
	g, _ := New(testUniverse(2, 1<<12), 5)
	if g.CellWidth(0) != 1<<12 {
		t.Errorf("level 0 width = %d", g.CellWidth(0))
	}
	for l := 1; l <= g.Levels(); l++ {
		if g.CellWidth(l)*2 != g.CellWidth(l-1) {
			t.Fatalf("width at level %d does not halve", l)
		}
	}
	if g.CellWidth(g.Levels()) != 1 {
		t.Errorf("finest width = %d, want 1", g.CellWidth(g.Levels()))
	}
}

func TestFinestLevelLossless(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	for _, d := range []int{1, 2, 5} {
		u := testUniverse(d, 1<<14)
		g, _ := New(u, rng.Uint64())
		for i := 0; i < 200; i++ {
			p := randPoint(rng, u)
			if got := g.Round(g.Levels(), p); !got.Equal(p) {
				t.Fatalf("d=%d: Round at finest level %v != %v", d, got, p)
			}
		}
	}
}

func TestCenterWithinCellRadius(t *testing.T) {
	// Every point's distance to its own cell center is at most the cell
	// radius at that level (in fact at most half of it, but the weaker
	// bound is the one the protocol analysis needs).
	rng := rand.New(rand.NewPCG(8, 8))
	u := testUniverse(3, 1<<10)
	g, _ := New(u, 77)
	for l := 0; l <= g.Levels(); l++ {
		w := g.CellWidth(l)
		for i := 0; i < 100; i++ {
			p := randPoint(rng, u)
			c := g.Round(l, p)
			if !u.Contains(c) {
				t.Fatalf("center %v outside universe", c)
			}
			if dist := points.L1.Distance(p, c); dist > points.CellRadius(points.L1, u.Dim, w) {
				t.Fatalf("level %d: center distance %v exceeds radius %v", l, dist, points.CellRadius(points.L1, u.Dim, w))
			}
		}
	}
}

func TestSameCellIffSameRounding(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	u := testUniverse(2, 1<<8)
	g, _ := New(u, 123)
	for i := 0; i < 500; i++ {
		p, q := randPoint(rng, u), randPoint(rng, u)
		l := rng.IntN(g.Levels() + 1)
		sameCell := g.Cell(l, p).Equal(g.Cell(l, q))
		sameRound := g.Round(l, p).Equal(g.Round(l, q))
		if sameCell != sameRound {
			t.Fatalf("cell equality %v != rounding equality %v (l=%d p=%v q=%v)", sameCell, sameRound, l, p, q)
		}
	}
}

func TestCellNesting(t *testing.T) {
	// Points sharing a cell at level l+1 must share the cell at level l:
	// the hierarchy is a tree.
	rng := rand.New(rand.NewPCG(6, 6))
	u := testUniverse(2, 1<<10)
	g, _ := New(u, 99)
	for i := 0; i < 500; i++ {
		p := randPoint(rng, u)
		q := randPoint(rng, u)
		for l := 0; l < g.Levels(); l++ {
			if g.Cell(l+1, p).Equal(g.Cell(l+1, q)) && !g.Cell(l, p).Equal(g.Cell(l, q)) {
				t.Fatalf("nesting violated at level %d for %v,%v", l, p, q)
			}
		}
	}
}

func TestLevelZeroSingleCellUnshifted(t *testing.T) {
	u := testUniverse(2, 1<<6)
	g, _ := Unshifted(u)
	rng := rand.New(rand.NewPCG(1, 1))
	c0 := g.Cell(0, points.Point{0, 0})
	for i := 0; i < 100; i++ {
		if !g.Cell(0, randPoint(rng, u)).Equal(c0) {
			t.Fatal("level 0 of an unshifted grid must be a single cell")
		}
	}
}

func TestEncodeDecodeCell(t *testing.T) {
	u := testUniverse(4, 1<<10)
	g, _ := New(u, 3)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 100; i++ {
		c := g.Cell(rng.IntN(g.Levels()+1), randPoint(rng, u))
		b := g.EncodeCell(nil, c)
		if len(b) != g.EncodedCellSize() {
			t.Fatalf("encoded size %d != %d", len(b), g.EncodedCellSize())
		}
		got, err := g.DecodeCell(b)
		if err != nil || !got.Equal(c) {
			t.Fatalf("roundtrip failed: %v %v", got, err)
		}
	}
	if _, err := g.DecodeCell(make([]byte, 3)); err == nil {
		t.Error("short cell encoding accepted")
	}
}

// TestAppendCellMatchesEncodeCell pins the allocation-free cell encoder
// to the two-step Cell + EncodeCell composition across levels, dims and
// random shifted grids.
func TestAppendCellMatchesEncodeCell(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for _, d := range []int{1, 2, 3, 5} {
		u := testUniverse(d, 1<<10)
		g, err := New(u, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level <= g.Levels(); level++ {
			for trial := 0; trial < 50; trial++ {
				p := randPoint(rng, u)
				want := g.EncodeCell(nil, g.Cell(level, p))
				got := g.AppendCell(nil, level, p)
				if string(got) != string(want) {
					t.Fatalf("dim %d level %d point %v: AppendCell %x, want %x", d, level, p, got, want)
				}
			}
		}
	}
}

func TestSeparationProbabilityEmpirical(t *testing.T) {
	// Over random shifts, the probability that a pair at l1 distance x is
	// separated at level l must not exceed min(1, x/w). Checked empirically
	// with 1-d pairs where the bound is tight.
	u := testUniverse(1, 1<<12)
	rng := rand.New(rand.NewPCG(10, 20))
	for _, dist := range []int64{1, 7, 64, 500} {
		for _, level := range []int{2, 4, 6} {
			sep := 0
			const trials = 4000
			for i := 0; i < trials; i++ {
				g, _ := New(u, rng.Uint64())
				x := rng.Int64N(u.Delta - dist)
				p, q := points.Point{x}, points.Point{x + dist}
				if !g.Cell(level, p).Equal(g.Cell(level, q)) {
					sep++
				}
			}
			bound := g0bound(u, level, float64(dist))
			rate := float64(sep) / trials
			// Allow generous sampling noise above the bound.
			if rate > bound+0.03 {
				t.Errorf("dist=%d level=%d: separation rate %.3f exceeds bound %.3f", dist, level, rate, bound)
			}
		}
	}
}

func g0bound(u points.Universe, level int, dist float64) float64 {
	g, _ := Unshifted(u)
	return g.SeparationProbabilityBound(level, dist)
}

func TestSeparationBoundShape(t *testing.T) {
	u := testUniverse(2, 1<<10)
	g, _ := New(u, 5)
	if b := g.SeparationProbabilityBound(0, 1e12); b != 1 {
		t.Errorf("bound should clamp to 1, got %v", b)
	}
	b1 := g.SeparationProbabilityBound(3, 10)
	b2 := g.SeparationProbabilityBound(4, 10)
	if !(b1 < b2) {
		t.Errorf("finer level must have larger separation bound: %v vs %v", b1, b2)
	}
	if math.Abs(b2/b1-2) > 1e-9 {
		t.Errorf("bound should double per level: %v vs %v", b1, b2)
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	g, _ := New(testUniverse(2, 1<<4), 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("level too high", func() { g.Cell(99, points.Point{0, 0}) })
	mustPanic("negative level", func() { g.CellWidth(-1) })
	mustPanic("dim mismatch", func() { g.Cell(1, points.Point{0}) })
	mustPanic("center dim mismatch", func() { g.Center(1, Cell{0}) })
}
