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
// Of the multiset itself the maintainer keeps one sorted array of the
// points' full-resolution Morton codes, a word per point (a codeIndex):
// a cell's count at any level — the occurrence index an update inserts
// or deletes — is the number of codes in the cell's code range, and the
// level tables and estimators of the estimate-first protocol walk runs
// of equal code prefixes. Universes whose code exceeds 64 bits (dim ×
// (depth+1) > 64) keep per-level cell occupancy maps instead, O(n ·
// levels) memory. The initial build fans levels out over the same
// bounded worker pool as BuildSketch, so publishing a large dataset
// scales with cores.
//
// A Maintainer is not safe for concurrent use; callers that share one
// across goroutines (e.g. a server Dataset) serialize access externally.
type Maintainer struct {
	params Params
	g      *grid.Grid
	sketch *Sketch
	codes  *codeIndex  // the points' Morton codes; nil where they exceed 64 bits
	occ    []occupancy // per level: cell → count, where codes is nil
	count  int
	keyBuf []byte // scratch reused by Add/Remove (no per-update allocs)
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
// code exceeds 64 bits, counts each level's cells in its table's scan.
func newMaintainer(v *View, tables []*iblt.Table, workers int) (*Maintainer, error) {
	m := &Maintainer{
		params: v.p,
		g:      v.g,
		codes:  v.order(),
		count:  len(v.pts),
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
	b, err := newLevelEstimator(m.params, level, k, m.count)
	if err != nil {
		return nil, err
	}
	m.scan(level, b.Add)
	return b.Finish(), nil
}

// scan calls emit with every (cell, occurrence) key of the level.
func (m *Maintainer) scan(level int, emit func(key []byte)) {
	if m.codes != nil {
		m.codes.scan(level, emit)
	} else {
		m.occ[level-m.params.MinLevel].scan(m.params.Universe.Dim, emit)
	}
}

// Add inserts one point into the maintained multiset.
func (m *Maintainer) Add(pt points.Point) error {
	if !m.params.Universe.Contains(pt) {
		return fmt.Errorf("core: maintainer: point %v outside universe", pt)
	}
	return m.apply(pt, +1)
}

// ErrNotPresent is returned by Remove when the point cannot be in the
// maintained multiset.
var ErrNotPresent = errors.New("core: maintainer: point not present")

// Remove deletes one instance of a point from the maintained multiset.
// Absence is detected exactly wherever the universe has Morton codes,
// which hold every point at full resolution whatever the level range. A
// wider universe's occupancy maps hold only the sketch's levels: with a
// trimmed MaxLevel, removing an absent point that shares every included
// cell with a present one removes that neighbour instead — the same
// ambiguity the protocol's repair has at that resolution.
func (m *Maintainer) Remove(pt points.Point) error {
	if !m.params.Universe.Contains(pt) {
		return fmt.Errorf("core: maintainer: point %v outside universe", pt)
	}
	return m.apply(pt, -1)
}

// apply adds (delta +1) or removes (−1) one occurrence of pt: at every
// level it inserts the key of the occurrence the cell's count before the
// change names, or deletes the key of the one below it, and then updates
// the record of the points. A remove finds an absent point before it
// touches any table, so a failed one leaves the sketch as it was.
func (m *Maintainer) apply(pt points.Point, delta int) error {
	x, n, buf := m.codes, 1, m.keyBuf
	code, c, i := uint64(0), 0, 0
	if x != nil { // the point's code is searched once, for every level
		code = x.code(pt)
		c, i = x.find(code)
		if delta < 0 && (c == len(x.chunks) || i == len(x.chunks[c]) || x.chunks[c][i] != code) {
			return fmt.Errorf("%w: %v", ErrNotPresent, pt)
		}
	}
	for l := m.params.MinLevel; l <= m.params.MaxLevel && x == nil && delta < 0; l++ {
		buf = m.g.AppendCell(buf[:0], l, pt)
		if m.occ[l-m.params.MinLevel].bump(buf, 0) == 0 {
			return fmt.Errorf("%w: %v (empty cell at level %d)", ErrNotPresent, pt, l)
		}
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
	m.keyBuf = buf
	switch {
	case x == nil:
	case delta > 0:
		x.insert(c, i, code)
	default:
		x.remove(c, i)
	}
	m.count += delta
	return nil
}
