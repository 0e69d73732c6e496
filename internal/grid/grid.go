// Package grid implements the randomly shifted hierarchical grid — the
// "randomly offset quadtree" of the SIGMOD 2014 robust set reconciliation
// paper — over a discretized universe [Δ]^d.
//
// A Grid has L+1 levels, Δ = 2^L. Level ℓ partitions space into axis-
// aligned cells of width w_ℓ = Δ/2^ℓ: level 0 is a single cell covering
// everything, level L has width-1 cells, so rounding at level L is
// lossless. The whole hierarchy is translated by one random shift vector
// s ∈ [0,Δ)^d derived from a public seed, which is what makes the expected
// separation probability of a close pair proportional to its distance —
// the property the protocol's EMD analysis rests on.
package grid

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"robustset/internal/hashutil"
	"robustset/internal/points"
)

// Cell identifies a grid cell at some level by its integer coordinates
// along each axis. Two points share a cell at level ℓ iff their Cell values
// at ℓ are equal. Cell coordinates are non-negative and < 2^(ℓ+1) (the
// shift can push points into one extra cell row past 2^ℓ).
type Cell []int64

// Equal reports whether two cells are identical.
func (c Cell) Equal(o Cell) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Grid is a randomly shifted hierarchy of grids over a universe. Grids are
// immutable after construction and safe for concurrent use.
type Grid struct {
	u     points.Universe
	shift []int64 // per-axis shift in [0, Delta)
	lvls  int     // L = log2(Delta); levels are 0..L inclusive
}

// New constructs the grid for universe u with the shift drawn
// deterministically from seed. Both reconciliation parties must construct
// the grid from the same universe and seed (public coins).
func New(u points.Universe, seed uint64) (*Grid, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(hashutil.DeriveSeed(seed, "grid/shift/hi"),
		hashutil.DeriveSeed(seed, "grid/shift/lo")))
	shift := make([]int64, u.Dim)
	for i := range shift {
		shift[i] = rng.Int64N(u.Delta)
	}
	return &Grid{u: u, shift: shift, lvls: u.Levels()}, nil
}

// Unshifted constructs a grid with a zero shift vector. It exists for tests
// and for deterministic geometry experiments; protocols should always use
// New so the analysis's randomness assumption holds.
func Unshifted(u points.Universe) (*Grid, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &Grid{u: u, shift: make([]int64, u.Dim), lvls: u.Levels()}, nil
}

// Universe returns the universe the grid partitions.
func (g *Grid) Universe() points.Universe { return g.u }

// Levels returns L = log2(Δ). Valid level arguments are 0..Levels().
func (g *Grid) Levels() int { return g.lvls }

// Shift returns a copy of the grid's shift vector.
func (g *Grid) Shift() []int64 {
	s := make([]int64, len(g.shift))
	copy(s, g.shift)
	return s
}

// CellWidth returns w_ℓ = Δ >> ℓ.
func (g *Grid) CellWidth(level int) int64 {
	g.checkLevel(level)
	return g.u.Delta >> uint(level)
}

func (g *Grid) checkLevel(level int) {
	if level < 0 || level > g.lvls {
		panic(fmt.Sprintf("grid: level %d out of range [0,%d]", level, g.lvls))
	}
}

// Cell returns the cell containing p at the given level. p must lie in the
// grid's universe.
func (g *Grid) Cell(level int, p points.Point) Cell {
	g.checkLevel(level)
	if len(p) != g.u.Dim {
		panic(fmt.Sprintf("grid: point dimension %d != universe dimension %d", len(p), g.u.Dim))
	}
	w := g.u.Delta >> uint(level)
	c := make(Cell, g.u.Dim)
	for i, x := range p {
		c[i] = (x + g.shift[i]) / w
	}
	return c
}

// PutCenter writes into dst, of the grid's dimension, the representative
// point of the cell enc encodes (EncodeCell's form) at a valid level: the
// cell's geometric center mapped back into raw coordinates and clamped
// into the universe. Cell c spans shifted coordinates [c·w, (c+1)·w), so
// its center is c·w + w/2 − shift; at level Levels() (width 1) that is
// the cell's one point, which makes the finest level lossless.
func (g *Grid) PutCenter(dst points.Point, level int, enc []byte) {
	w := g.u.Delta >> uint(level)
	for i := range dst {
		c := int64(binary.LittleEndian.Uint64(enc[8*i:]))
		dst[i] = min(max(c*w+w/2-g.shift[i], 0), g.u.Delta-1)
	}
}

// AppendCell appends the canonical encoding of the cell containing p at
// the given level directly to dst — byte-identical to
// g.EncodeCell(dst, g.Cell(level, p)) without materializing the Cell.
// Sketch construction calls this once per point per level, so it must
// not allocate: Δ is a power of two, so the cell coordinate is a shift
// of the non-negative shifted coordinate.
func (g *Grid) AppendCell(dst []byte, level int, p points.Point) []byte {
	g.checkLevel(level)
	if len(p) != g.u.Dim {
		panic(fmt.Sprintf("grid: point dimension %d != universe dimension %d", len(p), g.u.Dim))
	}
	sh := uint(g.lvls - level) // cell width w_ℓ = Δ>>ℓ = 2^(L−ℓ)
	for i, x := range p {
		dst = binary.LittleEndian.AppendUint64(dst, uint64((x+g.shift[i])>>sh))
	}
	return dst
}

// Dim returns the dimensionality of the grid's universe.
func (g *Grid) Dim() int { return g.u.Dim }

// EncodedCellSize returns the byte length of EncodeCell output for this
// grid: 8 bytes per dimension.
func (g *Grid) EncodedCellSize() int { return 8 * g.u.Dim }

// EncodeCell appends the canonical fixed-width encoding of a cell to dst.
// The encoding is the IBLT key material for the robust protocol.
func (g *Grid) EncodeCell(dst []byte, c Cell) []byte {
	for _, ci := range c {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(ci))
	}
	return dst
}

// SeparationProbabilityBound returns the standard upper bound, under the ℓ1
// metric, on the probability that two points at distance dist fall into
// different cells at the given level: min(1, dist/w_ℓ) per the union bound
// over axes (the per-axis separation probability of a randomly shifted
// width-w grid is |x_i - y_i|/w). It is exposed for tests and for the
// analysis-validation experiment.
func (g *Grid) SeparationProbabilityBound(level int, dist float64) float64 {
	w := float64(g.CellWidth(level))
	p := dist / w
	if p > 1 {
		return 1
	}
	return p
}
