package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"robustset/internal/grid"
	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
)

// View is the ordered view of one party's local point multiset: the
// validated points, the shared grid and the Morton presort. Every
// per-level pass of the protocol — sketch and level-table builds, the
// level estimators, the reconcile scan and the repair — runs over one
// View, the level passes as scans of its presort, so a session that
// needs several of them (the estimate-first protocol needs all)
// validates and sorts its points once. The presort is built by the first
// level scan, so a reconcile scan that is handed all its tables
// (ReconcileWith) never sorts.
//
// A View is safe for concurrent use. It aliases the caller's point
// slice; the points must not be modified while the View is in use.
type View struct {
	p   Params // normalized
	g   *grid.Grid
	pts []points.Point
	// sorted is the presort once order has built it: the points' codes,
	// of as many words as the universe's Morton code needs.
	sorted   atomic.Pointer[codeIndex]
	sortOnce sync.Once
}

// NewView validates pts against p's universe.
func NewView(p Params, pts []points.Point) (*View, error) {
	p, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	if err := p.Universe.CheckSet(pts); err != nil {
		return nil, err
	}
	g, err := gridFor(p)
	if err != nil {
		return nil, err
	}
	return &View{p: p, g: g, pts: pts}, nil
}

// order returns the view's presort, building it on the first call.
func (v *View) order() *codeIndex {
	v.sortOnce.Do(func() { v.sorted.Store(presort(v.g, v.pts)) })
	return v.sorted.Load()
}

// Params returns the view's normalized parameters.
func (v *View) Params() Params { return v.p }

// presort returns the points' Morton (Z-order) codes as one sorted
// index. Sorting by the codes makes the points of any single grid cell
// contiguous at every level simultaneously: two points share a level-ℓ
// cell iff they agree on the top d·(ℓ+1) bits of the code. That turns
// per-level occurrence-index assignment — otherwise a hash-map lookup per
// point per level, the dominant cost of every per-level pass — into a run
// scan with one compare of the cell's words per point. The occurrence
// indices a run scan assigns differ from a per-cell counter's in slice
// order only in which point of a cell gets which index — the key set
// {(cell, 0..count−1)} and therefore every table and estimator is
// identical, whatever order either party's points come in.
func presort(g *grid.Grid, pts []points.Point) *codeIndex {
	m := newMorton(g)
	codes := make([]uint64, len(pts)*m.w)
	for i, p := range pts {
		m.code(codes[i*m.w:(i+1)*m.w], p)
	}
	return newCodeIndex(m, sortCodes(codes, m.w, m.d*m.bits))
}

// checkLevel rejects levels outside the universe's hierarchy.
func (v *View) checkLevel(level int) error {
	if top := v.p.Universe.Levels(); level < 0 || level > top {
		return fmt.Errorf("%w: %d outside [0,%d]", ErrLevelOutOfRange, level, top)
	}
	return nil
}

// levelTable builds the view's filled IBLT for one level.
func (v *View) levelTable(level, capacity int) (*iblt.Table, error) {
	t, err := iblt.New(levelConfig(v.p, level, capacity))
	if err != nil {
		return nil, err
	}
	v.order().scan(level, t.Insert)
	return t, nil
}

// BuildLevelTable builds the single-level IBLT the estimate-first
// protocol serves, with an explicit key capacity.
func (v *View) BuildLevelTable(level, capacity int) (*iblt.Table, error) {
	if err := v.checkLevel(level); err != nil {
		return nil, err
	}
	return v.levelTable(level, capacity)
}

// newLevelEstimator starts the bottom-k difference estimator of one
// level, over the same (cell, occurrence) keys the level's IBLT holds; n
// is how many of them the caller will add.
func newLevelEstimator(p Params, level, k, n int) (*sketch.BottomKBuilder, error) {
	return sketch.NewBottomKBuilder(k, hashutil.DeriveSeedN(p.Seed, "core/est", level), n)
}

// LevelEstimator builds the estimator of one level of the view's range.
func (v *View) LevelEstimator(level, k int) (*sketch.BottomK, error) {
	b, err := newLevelEstimator(v.p, level, k, len(v.pts))
	if err != nil {
		return nil, err
	}
	v.order().scan(level, b.Add)
	return b.Finish(), nil
}

// maxLookAhead caps how many of Bob's level tables a reconcile scan
// builds concurrently. It is a small constant, not GOMAXPROCS: the scan
// usually stops within a few levels of where it would have stopped with
// no look-ahead, and every level built past that point is wasted work —
// on a many-core box, or under a Replicator that runs one scan per
// worker, fanning out to all cores would rebuild the whole hierarchy.
const maxLookAhead = 4

// testHookLevelFill, when set by a test, observes every level table a
// reconcile scan starts to build.
var testHookLevelFill func(level int)

// ReconcileWith is Reconcile over the view for a Bob who holds some of
// his level tables already: mine maps a level to his table of it, built
// under the view's Params over the view's multiset. A level's table
// depends only on the multiset and the public coins, so the result is
// Reconcile's.
//
// The scan is Bob's finest→coarsest pass over Alice's sketch. It takes
// his table of a level from mine when it is there; any other is built
// only when the scan gets there: the finest level first, alone and on
// the caller's goroutine (equal sets decode it and nothing else is built
// or started), then up to min(GOMAXPROCS, maxLookAhead) levels in flight
// ahead of the one being decoded. Level choice is exactly the sequential
// scan's: the first level, finest first, whose table decodes. The scan
// adds every table it builds to mine, look-ahead levels it did not reach
// included, and changes none. One that builds no level does not presort
// the points either: its repair finds the named cells' occupants in one
// pass over them. mine may be nil.
func (v *View) ReconcileWith(s *Sketch, mine map[int]*iblt.Table) (*Result, error) {
	p := v.p
	levels := p.MaxLevel - p.MinLevel + 1
	if len(s.Tables) != levels {
		return nil, fmt.Errorf("core: sketch has %d tables for level range [%d,%d]", len(s.Tables), p.MinLevel, p.MaxLevel)
	}
	if mine == nil {
		mine = make(map[int]*iblt.Table, levels)
	}
	type built struct {
		t   *iblt.Table
		err error
	}
	var (
		fills   = make([]chan built, levels) // by level−MinLevel; each receives once
		started int                          // levels started or found in mine, counting down from MaxLevel
		wg      sync.WaitGroup
	)
	defer func() {
		// Builders read the view; wait so none outlives the call, and keep
		// the tables of the levels the scan did not reach.
		wg.Wait()
		for idx, ch := range fills {
			if ch != nil {
				if b := <-ch; b.err == nil {
					mine[p.MinLevel+idx] = b.t
				}
			}
		}
	}()
	startThrough := func(n int) {
		for ; started < n && started < levels; started++ {
			l := p.MaxLevel - started
			if mine[l] != nil {
				continue
			}
			if testHookLevelFill != nil {
				testHookLevelFill(l)
			}
			ch := make(chan built, 1)
			fills[l-p.MinLevel] = ch
			wg.Add(1)
			go func() {
				defer wg.Done()
				t, err := v.levelTable(l, p.TableCapacity)
				ch <- built{t, err}
			}()
		}
	}
	ahead := min(runtime.GOMAXPROCS(0), maxLookAhead)
	res := &Result{Params: p}
	// One scratch table cycles through the level scan: every level has
	// the same shape, so each attempt is a storage-reusing copy, an
	// in-place subtraction and a destructive decode.
	var scratch *iblt.Table
	for l := p.MaxLevel; l >= p.MinLevel; l-- {
		idx := l - p.MinLevel
		switch {
		case l == p.MaxLevel:
			started = 1
			if mine[l] == nil {
				if testHookLevelFill != nil {
					testHookLevelFill(l)
				}
				t, err := v.levelTable(l, p.TableCapacity)
				if err != nil {
					return nil, err
				}
				mine[l] = t
			}
		default:
			startThrough(p.MaxLevel - l + ahead)
			if ch := fills[idx]; ch != nil {
				b := <-ch
				fills[idx] = nil
				if b.err != nil {
					return nil, b.err
				}
				mine[l] = b.t
			}
		}
		if scratch == nil {
			scratch = s.Tables[idx].Clone()
		} else if err := scratch.CopyFrom(s.Tables[idx]); err != nil {
			return nil, fmt.Errorf("core: level %d: %w", l, err)
		}
		if err := scratch.Sub(mine[l]); err != nil {
			return nil, fmt.Errorf("core: level %d: %w", l, err)
		}
		diff, derr := scratch.DecodeMut()
		if derr != nil {
			var stall *iblt.DecodeError
			errors.As(derr, &stall) // the one error DecodeMut returns
			res.Outcomes = append(res.Outcomes, LevelOutcome{Level: l, Residue: stall.RemainingCells})
			continue
		}
		res.Outcomes = append(res.Outcomes, LevelOutcome{Level: l, Decoded: true, DiffSize: diff.Size()})
		if err := v.repair(res, l, diff); err != nil {
			return nil, err
		}
		return res, nil
	}
	return nil, ErrNoDecodableLevel
}

// ReconcileLevel is the single-level analogue of the reconcile scan,
// used by the estimate-first protocol once a level has been negotiated:
// it subtracts Bob's identically sized table and repairs at exactly that
// level. capacity is the key capacity Bob asked Alice for; a table of
// any other shape is rejected with ErrLevelTableMismatch.
func (v *View) ReconcileLevel(aliceTable *iblt.Table, level, capacity int) (*Result, error) {
	return v.reconcileLevel(aliceTable, level, iblt.RecommendedCells(capacity, v.p.HashCount))
}

// reconcileLevel is ReconcileLevel with the expected table size given in
// cells.
func (v *View) reconcileLevel(aliceTable *iblt.Table, level, cells int) (*Result, error) {
	if err := v.checkLevel(level); err != nil {
		return nil, err
	}
	want := levelConfig(v.p, level, 1)
	want.Cells = cells // a table's cell count is already a multiple of its hash count
	if got := aliceTable.Config(); got != want {
		return nil, fmt.Errorf("%w: level %d table is %+v, want %+v", ErrLevelTableMismatch, level, got, want)
	}
	mine, err := iblt.New(want)
	if err != nil {
		return nil, err
	}
	v.order().scan(level, mine.Insert)
	return v.reconcileTables(aliceTable, mine, level)
}

// ReconcileLevelWith is ReconcileLevel for a caller that already holds
// its own table of the level — BuildLevelTable(level, capacity), filled
// while Alice's was on its way. A table of Alice's of any other shape is
// rejected with ErrLevelTableMismatch.
func (v *View) ReconcileLevelWith(aliceTable, mine *iblt.Table, level int) (*Result, error) {
	if err := v.checkLevel(level); err != nil {
		return nil, err
	}
	if got, want := aliceTable.Config(), mine.Config(); got != want {
		return nil, fmt.Errorf("%w: level %d table is %+v, want %+v", ErrLevelTableMismatch, level, got, want)
	}
	return v.reconcileTables(aliceTable, mine, level)
}

// reconcileTables subtracts Bob's table of the level from Alice's equally
// shaped one and repairs at that level.
func (v *View) reconcileTables(aliceTable, mine *iblt.Table, level int) (*Result, error) {
	t := aliceTable.Clone()
	if err := t.Sub(mine); err != nil {
		return nil, err
	}
	diff, err := t.DecodeMut()
	if err != nil {
		return nil, fmt.Errorf("core: level %d table did not decode: %w", level, err)
	}
	res := &Result{Params: v.p, Outcomes: []LevelOutcome{{Level: level, Decoded: true, DiffSize: diff.Size()}}}
	if err := v.repair(res, level, diff); err != nil {
		return nil, err
	}
	return res, nil
}

// repair applies a decoded level difference to Bob's multiset: it
// deletes the points named by Bob-only keys and adds the cell centers of
// Alice-only keys. Occurrence j of a cell names Bob's j-th point in that
// cell in slice order. One points.DropOccurrences pass over Bob's points,
// which map to their cells by the grid's shift and the level's right
// shift, finds the named points and copies the rest into S'_B, which
// has room for the centers after them.
func (v *View) repair(res *Result, level int, diff *iblt.Diff) error {
	g := v.g
	res.Level, res.CellWidth = level, g.CellWidth(level)
	dr, err := points.DropOccurrences(v.pts, g.Dim(), points.KeyWords{Shift: g.Shift(), RShift: uint(g.Levels() - level)}, diff.Neg, diff.Pos)
	if err != nil {
		return fmt.Errorf("%w: core: %w", ErrInconsistentSketch, err)
	}
	for _, key := range diff.Pos {
		g.PutCenter(dr.Add(), level, key)
	}
	res.SPrime, res.Removed = dr.Kept, dr.Removed
	if len(diff.Pos) > 0 {
		res.Added = res.SPrime[len(res.SPrime)-len(diff.Pos):]
	}
	return nil
}
