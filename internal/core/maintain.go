package core

import (
	"errors"
	"fmt"

	"robustset/internal/grid"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
)

// Maintainer keeps Alice's sketch synchronized with a changing multiset:
// Add and Remove update every level table in O(levels) hash operations,
// instead of the O(n·levels) cost of rebuilding with BuildSketch after
// each change. A sync server that ingests a stream of updates keeps one
// Maintainer per dataset and serves Sketch() on demand.
//
// Correctness rests on the anonymity of occurrence indices: each level
// table holds exactly the keys {(cell, j) : j < count(cell)}, regardless
// of which points produced them. Add inserts (cell, count) and Remove
// deletes (cell, count−1), so after any sequence of updates the tables
// are bitwise identical to what BuildSketch would produce on the final
// multiset — a property the tests assert on the wire encoding.
//
// The maintainer stores per-level cell occupancies, which costs O(n ·
// levels) memory; datasets that are rebuilt rarely and updated never are
// cheaper off with plain BuildSketch. The initial build fans levels out
// over the same bounded worker pool as BuildSketch, so publishing a
// large dataset scales with cores.
//
// A Maintainer is not safe for concurrent use; callers that share one
// across goroutines (e.g. a server Dataset) serialize access externally.
type Maintainer struct {
	params Params
	g      *grid.Grid
	sketch *Sketch
	occ    []*occupancy // per level: cell → occupancy count
	count  int
	keyBuf []byte // scratch reused by Add/Remove (no per-update allocs)
}

// NewMaintainer builds the sketch for the initial multiset and the
// occupancy state needed for incremental updates, using up to
// runtime.GOMAXPROCS(0) parallel level builders.
func NewMaintainer(p Params, pts []points.Point) (*Maintainer, error) {
	return NewMaintainerParallel(p, pts, 0)
}

// NewMaintainerParallel is NewMaintainer with an explicit worker-pool
// bound (≤ 0 means runtime.GOMAXPROCS(0), 1 forces sequential).
func NewMaintainerParallel(p Params, pts []points.Point, workers int) (*Maintainer, error) {
	v, err := NewView(p, pts)
	if err != nil {
		return nil, err
	}
	// One pass builds both the tables and the occupancy state the
	// incremental updates need.
	tables, occs, err := buildTables(v, workers, true)
	if err != nil {
		return nil, err
	}
	return &Maintainer{
		params: v.p,
		g:      v.g,
		sketch: &Sketch{Params: v.p, Count: len(pts), Tables: tables},
		occ:    occs,
		count:  len(pts),
		keyBuf: make([]byte, 0, KeyLen(v.p.Universe.Dim)),
	}, nil
}

// Count returns the current multiset size.
func (m *Maintainer) Count() int { return m.count }

// Params returns the maintainer's normalized parameters.
func (m *Maintainer) Params() Params { return m.params }

// Sketch returns the live sketch for the current multiset. The returned
// value shares state with the maintainer: marshal it (or Clone the
// tables) before mutating the set again if a stable snapshot is needed.
func (m *Maintainer) Sketch() *Sketch {
	m.sketch.Count = m.count
	return m.sketch
}

// BuildLevelTable builds the single-level IBLT the estimate-first
// protocol serves, from the level's cell counts and without the points:
// the table View.BuildLevelTable builds over the current multiset. Only
// the maintained levels have counts; any other is ErrLevelOutOfRange.
func (m *Maintainer) BuildLevelTable(level, capacity int) (*iblt.Table, error) {
	if level < m.params.MinLevel || level > m.params.MaxLevel {
		return nil, fmt.Errorf("%w: %d outside [%d,%d]", ErrLevelOutOfRange, level, m.params.MinLevel, m.params.MaxLevel)
	}
	t, err := iblt.New(levelConfig(m.params, level, capacity))
	if err != nil {
		return nil, err
	}
	m.occ[level-m.params.MinLevel].scan(m.params.Universe.Dim, t.Insert)
	return t, nil
}

// LevelEstimator builds one level's difference estimator from its cell
// counts, in BuildLevelTable's walk: View.LevelEstimator over the current
// multiset. A level without counts is ErrLevelOutOfRange.
func (m *Maintainer) LevelEstimator(level, k int) (*sketch.BottomK, error) {
	if level < m.params.MinLevel || level > m.params.MaxLevel {
		return nil, fmt.Errorf("%w: %d outside [%d,%d]", ErrLevelOutOfRange, level, m.params.MinLevel, m.params.MaxLevel)
	}
	b, err := newLevelEstimator(m.params, level, k, m.count)
	if err != nil {
		return nil, err
	}
	m.occ[level-m.params.MinLevel].scan(m.params.Universe.Dim, b.Add)
	return b.Finish(), nil
}

// Add inserts one point into the maintained multiset.
func (m *Maintainer) Add(pt points.Point) error {
	if !m.params.Universe.Contains(pt) {
		return fmt.Errorf("core: maintainer: point %v outside universe", pt)
	}
	buf := m.keyBuf
	for l := m.params.MinLevel; l <= m.params.MaxLevel; l++ {
		idx := l - m.params.MinLevel
		buf = m.g.AppendCell(buf[:0], l, pt)
		o := m.occ[idx].bump(buf, +1)
		buf = append(buf, byte(o), byte(o>>8), byte(o>>16), byte(o>>24))
		m.sketch.Tables[idx].Insert(buf)
	}
	m.keyBuf = buf
	m.count++
	return nil
}

// ErrNotPresent is returned by Remove when the point cannot be in the
// maintained multiset.
var ErrNotPresent = errors.New("core: maintainer: point not present")

// Remove deletes one instance of a point from the maintained multiset.
// When the sketch includes the finest grid level (the default), absence
// is detected exactly; with a trimmed MaxLevel, removal of an absent
// point that shares every included cell with a present one will instead
// remove that neighbour — the same ambiguity the protocol's repair has
// at that resolution.
func (m *Maintainer) Remove(pt points.Point) error {
	if !m.params.Universe.Contains(pt) {
		return fmt.Errorf("core: maintainer: point %v outside universe", pt)
	}
	// Validate every level before touching any table, so a failed remove
	// leaves the sketch untouched.
	buf := m.keyBuf
	for l := m.params.MinLevel; l <= m.params.MaxLevel; l++ {
		idx := l - m.params.MinLevel
		buf = m.g.AppendCell(buf[:0], l, pt)
		if m.occ[idx].bump(buf, 0) == 0 {
			m.keyBuf = buf
			return fmt.Errorf("%w: %v (empty cell at level %d)", ErrNotPresent, pt, l)
		}
	}
	for l := m.params.MinLevel; l <= m.params.MaxLevel; l++ {
		idx := l - m.params.MinLevel
		buf = m.g.AppendCell(buf[:0], l, pt)
		o := m.occ[idx].bump(buf, -1) - 1
		buf = append(buf, byte(o), byte(o>>8), byte(o>>16), byte(o>>24))
		m.sketch.Tables[idx].Delete(buf)
	}
	m.keyBuf = buf
	m.count--
	return nil
}
