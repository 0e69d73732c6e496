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
// the points' full-resolution Morton codes, a word per point (a
// codeIndex): a cell's count at any level — the occurrence index an
// update inserts or deletes, or at full resolution a multiplicity — is
// the number of codes in the cell's code range, and the level tables,
// estimators and points are walks over runs of equal code prefixes.
// Universes whose code exceeds 64 bits (dim × (depth+1) > 64) keep
// occupancy maps of the levels' cells and the full-resolution ones
// instead, O(n · levels) memory. The initial build fans levels out over
// the same bounded worker pool as BuildSketch, so publishing a large
// dataset scales with cores.
//
// A Maintainer is not safe for concurrent use; callers that share one
// across goroutines (e.g. a server Dataset) serialize access externally.
type Maintainer struct {
	params Params
	g      *grid.Grid
	sketch *Sketch
	codes  *codeIndex  // the points' Morton codes; nil where they exceed 64 bits
	occ    []occupancy // per level: cell → count, where codes is nil
	cells  occupancy   // full-resolution cell → multiplicity, where codes is nil
	keyBuf []byte      // scratch reused by Add/Remove (no per-update allocs)
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
// level tables, built by at most workers goroutines when tables is nil. It
// keeps the view's presort (an empty index for an empty set) or, where the
// code exceeds 64 bits, counts each level's cells in its table's scan and
// the full-resolution ones in the finest level's, or in one more scan.
func newMaintainer(v *View, tables []*iblt.Table, workers int) (*Maintainer, error) {
	m := &Maintainer{
		params: v.p,
		g:      v.g,
		codes:  v.order(),
		keyBuf: make([]byte, 0, KeyLen(v.p.Universe.Dim)),
	}
	if mc := newMorton(v.g); mc != nil && len(v.pts) == 0 {
		m.codes = newCodeIndex(mc, nil)
	}
	var err error
	switch build := tables == nil; {
	case m.codes == nil:
		if build {
			tables = make([]*iblt.Table, v.p.MaxLevel-v.p.MinLevel+1)
		}
		m.occ = make([]occupancy, len(tables))
		err = eachLevel(len(tables), workers, func(idx int) (err error) {
			level, occ := v.p.MinLevel+idx, make(occupancy, len(v.pts))
			if m.occ[idx] = occ; build {
				tables[idx], err = v.levelTable(level, v.p.TableCapacity, occ)
			} else {
				v.scanLevel(level, occ, nil)
			}
			return err
		})
		if m.cells = m.occ[len(m.occ)-1]; v.p.MaxLevel < v.g.Levels() {
			m.cells = make(occupancy, len(v.pts)) // the levels stop short of full resolution
			v.scanLevel(v.g.Levels(), m.cells, nil)
		}
	case build:
		tables, err = buildTables(v, workers)
	}
	if err != nil {
		return nil, err
	}
	m.sketch = &Sketch{Params: v.p, Count: len(v.pts), Tables: tables}
	return m, nil
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
// protocol serves, from the maintained codes (or cell counts) and without
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
	m.scan(level, t.Insert)
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
	m.scan(level, b.Add)
	return b.Finish(), nil
}

// scan calls emit with every (cell, occurrence) key of the level: a
// maintained one, or the full-resolution one.
func (m *Maintainer) scan(level int, emit func(key []byte)) {
	switch {
	case m.codes != nil:
		m.codes.scan(level, emit)
	case level == m.g.Levels():
		m.cells.scan(m.params.Universe.Dim, emit)
	default:
		m.occ[level-m.params.MinLevel].scan(m.params.Universe.Dim, emit)
	}
}

// Add inserts one point into the maintained multiset.
func (m *Maintainer) Add(pt points.Point) error { return m.apply(pt, +1) }

// ErrNotPresent is returned by Remove when the point is not in the
// maintained multiset.
var ErrNotPresent = errors.New("core: maintainer: point not present")

// Remove deletes one instance of a point from the maintained multiset. A
// point it does not hold is ErrNotPresent, and the sketch is left as it
// was.
func (m *Maintainer) Remove(pt points.Point) error { return m.apply(pt, -1) }

// Multiplicity returns how many instances of pt the multiset holds: 0
// for a point outside the universe.
func (m *Maintainer) Multiplicity(pt points.Point) int {
	if !m.params.Universe.Contains(pt) {
		return 0
	}
	n, _, _, _ := m.locate(pt)
	return n
}

// locate returns pt's multiplicity — the run length of its code, or its
// full-resolution cell's count — and, where the maintainer keeps codes,
// pt's code and find's position for it.
func (m *Maintainer) locate(pt points.Point) (n int, code uint64, c, i int) {
	if x := m.codes; x != nil {
		code = x.code(pt)
		c, i = x.find(code)
		return x.cellCount(code, 0, c, i), code, c, i
	}
	m.keyBuf = m.g.AppendCell(m.keyBuf[:0], m.g.Levels(), pt)
	return int(m.cells.bump(m.keyBuf, 0)), 0, 0, 0
}

// EachPoint calls emit with every point of the multiset, each as often
// as it is held, decoded from its code (in Morton order) or its
// full-resolution cell (in no particular order): the cell less the grid's
// shift. The point is reused between calls; emit must not modify it, and
// copies it to keep it.
func (m *Maintainer) EachPoint(emit func(pt points.Point)) {
	shift, pt := m.g.Shift(), make(points.Point, m.params.Universe.Dim)
	m.scan(m.g.Levels(), func(key []byte) {
		for j := range pt {
			pt[j] = int64(binary.LittleEndian.Uint64(key[8*j:])) - shift[j]
		}
		emit(pt)
	})
}

// apply adds (delta +1) or removes (−1) one occurrence of pt: at every
// level it inserts the key of the occurrence the cell's count before the
// change names, or deletes the key of the one below it, and then updates
// the record of the points. A point outside the universe, and one a
// remove finds absent, fail before any table is touched.
func (m *Maintainer) apply(pt points.Point, delta int) error {
	if !m.params.Universe.Contains(pt) {
		return fmt.Errorf("core: maintainer: point %v outside universe", pt)
	}
	x, n, buf := m.codes, 1, m.keyBuf
	held, code, c, i := m.locate(pt) // the point's code is searched once, for every level
	if delta < 0 && held == 0 {
		return fmt.Errorf("%w: %v", ErrNotPresent, pt)
	}
	for l := m.params.MinLevel; l <= m.params.MaxLevel; l++ {
		buf = m.g.AppendCell(buf[:0], l, pt)
		switch {
		case x == nil:
			n = int(m.occ[l-m.params.MinLevel].bump(buf, delta))
		case n > 0: // a cell empty at a coarser level is empty at every finer one
			n = x.cellCount(code, x.cellShift(l), c, i)
		}
		if t := m.sketch.Tables[l-m.params.MinLevel]; delta > 0 {
			t.Insert(binary.LittleEndian.AppendUint32(buf, uint32(n)))
		} else {
			t.Delete(binary.LittleEndian.AppendUint32(buf, uint32(n-1)))
		}
	}
	switch {
	case x != nil && delta > 0:
		x.insert(c, i, code)
	case x != nil:
		x.remove(c, i)
	case m.params.MaxLevel < m.g.Levels(): // the cells are not the finest level's map
		m.cells.bump(m.g.AppendCell(buf[:0], m.g.Levels(), pt), delta)
	}
	m.keyBuf = buf
	m.sketch.Count += delta
	return nil
}
