package core

import (
	"encoding/binary"
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
// The multiset itself the maintainer holds once, as one sorted array of
// the points' full-resolution Morton codes (a codeIndex), as many words a
// point as the universe's code needs: a cell's count at any level — the
// occurrence index an update inserts or deletes, or at full resolution a
// multiplicity — is the number of codes in the cell's code range, and the
// level tables, estimators and points are walks over runs of equal code
// prefixes. The initial build fans levels out over the same bounded
// worker pool as BuildSketch, so publishing a large dataset scales with
// cores.
//
// A Maintainer is not safe for concurrent use; callers that share one
// across goroutines (e.g. a server Dataset) serialize access externally.
type Maintainer struct {
	params Params
	g      *grid.Grid
	sketch *Sketch
	codes  *codeIndex // the points' Morton codes
	code   []uint64   // scratch: the code of the point Update or Multiplicity looks up
	keyBuf []byte     // scratch reused by Update (no per-update allocs)
}

// NewMaintainer builds the sketch for the initial multiset and the
// state incremental updates need, using up to runtime.GOMAXPROCS(0)
// parallel level builders.
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
	return newMaintainer(v, nil, workers)
}

// newMaintainer assembles a Maintainer of the view's points around their
// level tables, built by at most workers goroutines when tables is nil,
// and keeps the view's presort.
func newMaintainer(v *View, tables []*iblt.Table, workers int) (*Maintainer, error) {
	x := v.order()
	if tables == nil {
		var err error
		if tables, err = buildTables(v, workers); err != nil {
			return nil, err
		}
	}
	return &Maintainer{
		params: v.p,
		g:      v.g,
		sketch: &Sketch{Params: v.p, Count: len(v.pts), Tables: tables},
		codes:  x,
		code:   make([]uint64, x.w),
		keyBuf: make([]byte, 0, KeyLen(v.p.Universe.Dim)),
	}, nil
}

// Count returns the current multiset size.
func (m *Maintainer) Count() int { return m.sketch.Count }

// Params returns the maintainer's normalized parameters.
func (m *Maintainer) Params() Params { return m.params }

// Sketch returns the live sketch for the current multiset. The returned
// value shares state with the maintainer: marshal it (or Clone the
// tables) before mutating the set again if a stable snapshot is needed.
func (m *Maintainer) Sketch() *Sketch { return m.sketch }

// BuildLevelTable builds the single-level IBLT the estimate-first
// protocol serves, from the maintained codes and without
// the points: the table View.BuildLevelTable builds over the current
// multiset. Only the maintained levels are served; any other is
// ErrLevelOutOfRange.
func (m *Maintainer) BuildLevelTable(level, capacity int) (*iblt.Table, error) {
	if level < m.params.MinLevel || level > m.params.MaxLevel {
		return nil, fmt.Errorf("%w: %d outside [%d,%d]", ErrLevelOutOfRange, level, m.params.MinLevel, m.params.MaxLevel)
	}
	t, err := iblt.New(levelConfig(m.params, level, capacity))
	if err != nil {
		return nil, err
	}
	m.codes.scan(level, t.Insert)
	return t, nil
}

// LevelEstimator builds one level's difference estimator in
// BuildLevelTable's walk: View.LevelEstimator over the current multiset.
// A level outside the maintained range is ErrLevelOutOfRange.
func (m *Maintainer) LevelEstimator(level, k int) (*sketch.BottomK, error) {
	if level < m.params.MinLevel || level > m.params.MaxLevel {
		return nil, fmt.Errorf("%w: %d outside [%d,%d]", ErrLevelOutOfRange, level, m.params.MinLevel, m.params.MaxLevel)
	}
	b, err := newLevelEstimator(m.params, level, k, m.Count())
	if err != nil {
		return nil, err
	}
	m.codes.scan(level, b.Add)
	return b.Finish(), nil
}

// Add inserts one point into the maintained multiset.
func (m *Maintainer) Add(pt points.Point) error { _, err := m.Update(pt, +1); return err }

// ErrNotPresent is returned by Remove when the point is not in the
// maintained multiset.
var ErrNotPresent = errors.New("core: maintainer: point not present")

// Remove deletes one instance of a point from the maintained multiset. A
// point it does not hold is ErrNotPresent, and the sketch is left as it
// was.
func (m *Maintainer) Remove(pt points.Point) error { _, err := m.Update(pt, -1); return err }

// Multiplicity returns how many instances of pt the multiset holds: 0
// for a point outside the universe.
func (m *Maintainer) Multiplicity(pt points.Point) int {
	if !m.params.Universe.Contains(pt) {
		return 0
	}
	n, _, _ := m.locate(pt)
	return n
}

// locate writes pt's code to m.code and returns its multiplicity — the
// run length of the code — and find's position for it.
func (m *Maintainer) locate(pt points.Point) (n, c, i int) {
	x := m.codes
	x.code(m.code, pt)
	c, i = x.find(m.code)
	return x.cellCount(m.code, 0, c, i), c, i
}

// EachPoint calls emit with every point of the multiset, each as often
// as it is held, in Morton order, decoded from its code: the
// full-resolution cell less the grid's shift. The point is reused between
// calls; emit must not modify it, and copies it to keep it.
func (m *Maintainer) EachPoint(emit func(pt points.Point)) {
	shift, pt := m.g.Shift(), make(points.Point, m.params.Universe.Dim)
	m.codes.scan(m.g.Levels(), func(key []byte) {
		for j := range pt {
			pt[j] = int64(binary.LittleEndian.Uint64(key[8*j:])) - shift[j]
		}
		emit(pt)
	})
}

// Update adds (delta +1) or removes (−1) one occurrence of pt, and
// returns how many the multiset held before: the occurrence index an add
// gives the new copy, one more than the index a remove takes away. At
// every level it inserts the key of the occurrence the cell's count
// before the change names, or deletes the key of the one below it, and
// then updates the record of the points. A point outside the universe,
// and one a remove finds absent, fail before any table is touched.
func (m *Maintainer) Update(pt points.Point, delta int) (held int, err error) {
	if !m.params.Universe.Contains(pt) {
		return 0, fmt.Errorf("core: maintainer: point %v outside universe", pt)
	}
	x, n, buf := m.codes, 1, m.keyBuf
	held, c, i := m.locate(pt) // the point's code is searched once, for every level
	if delta < 0 && held == 0 {
		return 0, fmt.Errorf("%w: %v", ErrNotPresent, pt)
	}
	for l := m.params.MinLevel; l <= m.params.MaxLevel; l++ {
		buf = m.g.AppendCell(buf[:0], l, pt)
		if n > 0 { // a cell empty at a coarser level is empty at every finer one
			n = x.cellCount(m.code, x.cellShift(l), c, i)
		}
		if t := m.sketch.Tables[l-m.params.MinLevel]; delta > 0 {
			t.Insert(binary.LittleEndian.AppendUint32(buf, uint32(n)))
		} else {
			t.Delete(binary.LittleEndian.AppendUint32(buf, uint32(n-1)))
		}
	}
	if delta > 0 {
		x.insert(c, i, m.code)
	} else {
		x.remove(c, i)
	}
	m.keyBuf = buf
	m.sketch.Count += delta
	return held, nil
}
