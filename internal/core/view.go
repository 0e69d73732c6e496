package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
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
// View through scanLevel, so a session that needs several of them (the
// estimate-first protocol needs all) validates and sorts its points once.
// The presort is built by the first level scan, so a reconcile scan that
// is handed all its tables (ReconcileWith) never sorts.
//
// A View is safe for concurrent use. It aliases the caller's point
// slice; the points must not be modified while the View is in use.
type View struct {
	p   Params // normalized
	g   *grid.Grid
	pts []points.Point
	// mo is the presort once order has built it. It stays nil for an
	// empty set and for universes whose Morton code does not fit 64 bits
	// (dim × depth > 64); the per-level passes then take the
	// occupancy-map path.
	mo       atomic.Pointer[mortonOrder]
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

// order returns the view's presort, building it on the first call; nil
// where there is none.
func (v *View) order() *mortonOrder {
	v.sortOnce.Do(func() { v.mo.Store(newMortonOrder(v.g, v.pts)) })
	return v.mo.Load()
}

// Params returns the view's normalized parameters.
func (v *View) Params() Params { return v.p }

// mortonOrder is the Morton (Z-order) presorting of a point multiset.
// Sorting by the bit-interleaved code of the shifted coordinates makes
// the points of any single grid cell contiguous at every level
// simultaneously: the level-ℓ cell of a point is the top ℓ+1 bits of
// each shifted coordinate, so two points share a level-ℓ cell iff they
// agree on the top d·(ℓ+1) bits of the code. That turns per-level
// occurrence-index assignment — otherwise a hash-map lookup per point
// per level, the dominant cost of every per-level pass — into a run scan
// with one uint64 compare per point, and finding one cell's occupants
// into a binary search. The shifted coordinates ride along in code order
// as one flat array, so the scans touch memory strictly sequentially.
type mortonOrder struct {
	codes  []uint64 // sorted Morton codes, one per point
	coords []int64  // shifted coordinates in code order, d per point
	idx    []int32  // original index of each point; ascending among equal codes
}

// newMortonOrder builds the presorting, or returns nil when there is
// nothing to sort or the code does not fit 64 bits. The occurrence
// indices a run scan assigns differ from the occupancy-map path's only
// in which point of a cell gets which index — the key set
// {(cell, 0..count−1)} and therefore every table and estimator is
// identical, so the two paths interoperate freely across parties.
func newMortonOrder(g *grid.Grid, pts []points.Point) *mortonOrder {
	d := g.Dim()
	coordBits := g.Levels() + 1 // shifted coords are < 2Δ = 2^(L+1)
	if d*coordBits > 64 || len(pts) == 0 || len(pts) > 1<<31-1 {
		return nil
	}
	shift := g.Shift()
	// Bit b of coordinate j lands at code bit b·d + (d−1−j). spread[x]
	// holds byte x with its bits d apart, so a coordinate is interleaved
	// a byte at a time instead of a bit at a time.
	var spread [256]uint64
	for x := range spread {
		for b := 0; b < 8; b++ {
			spread[x] |= uint64(x>>b&1) << (b * d)
		}
	}
	codes := make([]uint64, len(pts))
	for i, p := range pts {
		var code uint64
		for j := 0; j < d; j++ {
			x := uint64(p[j] + shift[j])
			for c := 0; 8*c < coordBits; c++ {
				code |= spread[byte(x>>(8*c))] << (8*c*d + d - 1 - j)
			}
		}
		codes[i] = code
	}
	mo := &mortonOrder{coords: make([]int64, len(pts)*d)}
	mo.codes, mo.idx = sortCodes(codes, d*coordBits)
	for i, at := range mo.idx {
		p := pts[at]
		for j := 0; j < d; j++ {
			mo.coords[i*d+j] = p[j] + shift[j]
		}
	}
	return mo
}

// sortCodes sorts codes ascending by LSD radix sort on their low bits
// bits and returns them with the permutation that sorted them:
// sorted[i] == codes[perm[i]]. The sort is stable, so equal codes keep
// ascending original indices. codes is consumed as scratch.
func sortCodes(codes []uint64, bits int) (sorted []uint64, perm []int32) {
	n := len(codes)
	perm = make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	passes := (bits + 7) / 8
	var hist [8][256]int
	for _, c := range codes {
		for p := 0; p < passes; p++ {
			hist[p][byte(c>>(8*p))]++
		}
	}
	codesTmp, permTmp := make([]uint64, n), make([]int32, n)
	for p := 0; p < passes && n > 0; p++ {
		h, sh := &hist[p], uint(8*p)
		if h[byte(codes[0]>>sh)] == n {
			continue // every code shares this digit: the pass moves nothing
		}
		at := 0
		for digit, c := range h {
			h[digit], at = at, at+c
		}
		for i, c := range codes {
			to := h[byte(c>>sh)]
			h[byte(c>>sh)]++
			codesTmp[to], permTmp[to] = c, perm[i]
		}
		codes, codesTmp = codesTmp, codes
		perm, permTmp = permTmp, perm
	}
	return codes, perm
}

// occupancy counts the points in each cell of one level. Where a cell's
// d coordinates of depth+1 bits fit one word — the universes that have a
// 64-bit Morton code — they are packed into it and the map holds no
// pointers: the collector never scans it, and a Maintainer's occupancy is
// nearly all of a serving node's live heap. Wider universes key the
// encoded cell, with the counters held by pointer so the per-point path
// is a single allocation-free map lookup plus an increment; the string
// key and its counter are allocated once per distinct cell, not once per
// point. Only the Maintainer (which must answer "how many points share
// this cell" for points it has never seen) and the dim × depth > 64
// fallback use it.
type occupancy struct {
	bits   uint // width of a packed coordinate; 0 when cells is the map in use
	packed map[uint64]uint32
	cells  map[string]*uint32
}

// newOccupancy returns an empty occupancy sized for the view's points at
// the level.
func (v *View) newOccupancy(level int) *occupancy {
	bits := uint(v.g.Levels() + 1) // shifted coords are < 2Δ = 2^(L+1)
	if v.g.Dim()*int(bits) > 64 {
		return &occupancy{cells: make(map[string]*uint32, len(v.pts))}
	}
	cells := 0
	if mo := v.order(); mo != nil {
		shift := uint(v.g.Dim() * (v.g.Levels() - level))
		for i, code := range mo.codes {
			if i == 0 || code>>shift != mo.codes[i-1]>>shift {
				cells++
			}
		}
	}
	return &occupancy{bits: bits, packed: make(map[uint64]uint32, cells)}
}

// bump changes the count of the encoded cell by delta — +1, −1 for a
// cell that holds a point, or 0 to only read — and returns what the
// count was; a cell that reaches zero is forgotten.
func (o *occupancy) bump(cell []byte, delta int) uint32 {
	if o.packed != nil {
		var k uint64
		for ; len(cell) >= 8; cell = cell[8:] {
			k = k<<o.bits | binary.LittleEndian.Uint64(cell)
		}
		n := o.packed[k]
		switch now := n + uint32(delta); {
		case delta == 0:
		case now == 0:
			delete(o.packed, k)
		default:
			o.packed[k] = now
		}
		return n
	}
	c := o.cells[string(cell)]
	if c == nil {
		if delta == 0 {
			return 0
		}
		c = new(uint32)
		o.cells[string(cell)] = c
	}
	n := *c
	if *c += uint32(delta); *c == 0 {
		delete(o.cells, string(cell))
	}
	return n
}

// scan calls emit with the (cell, occurrence) key of every point counted
// — each cell's occurrences 0..count−1 — in no particular order; d is
// the dimension. It is scanLevel for a holder of the counts alone: the
// key set is the one scanLevel emits over the same multiset, and every
// table and estimator is a function of the set. The key buffer is reused
// between calls.
func (o *occupancy) scan(d int, emit func(key []byte)) {
	key := make([]byte, KeyLen(d))
	occurrences := func(n uint32) {
		for j := uint32(0); j < n; j++ {
			binary.LittleEndian.PutUint32(key[8*d:], j)
			emit(key)
		}
	}
	if o.packed != nil {
		mask := uint64(1)<<o.bits - 1
		for k, n := range o.packed {
			for j := d - 1; j >= 0; j-- { // bump packs the first coordinate highest
				binary.LittleEndian.PutUint64(key[8*j:], k&mask)
				k >>= o.bits
			}
			occurrences(n)
		}
		return
	}
	for cell, n := range o.cells {
		copy(key, cell)
		occurrences(*n)
	}
}

// scanLevel is the kernel under every per-level pass: it calls emit with
// the (cell, occurrence) key of each point at the level, exactly once
// per point. The key buffer is reused between calls. With a non-nil occ
// — from newOccupancy — it also records the per-cell counts, the state a
// Maintainer keeps; a caller that wants only the counts passes a nil
// emit.
//
// On the Morton path occurrence indices restart whenever the code
// prefix — the cell — changes, and the cell bytes come straight from the
// presorted flat coordinate array, rewritten only at run boundaries.
func (v *View) scanLevel(level int, occ *occupancy, emit func(key []byte)) {
	g, d := v.g, v.g.Dim()
	mo := v.order()
	if mo == nil {
		if occ == nil {
			occ = &occupancy{cells: make(map[string]*uint32)}
		}
		buf := make([]byte, 0, KeyLen(d))
		for _, p := range v.pts {
			buf = g.AppendCell(buf[:0], level, p)
			o := occ.bump(buf, +1)
			if emit != nil {
				emit(binary.LittleEndian.AppendUint32(buf, o))
			}
		}
		return
	}
	cellShift := uint(d * (g.Levels() - level)) // < 64 by newMortonOrder's bound
	coordShift := uint(g.Levels() - level)      // cell coord = shifted coord >> (L−ℓ)
	key := make([]byte, KeyLen(d))
	var prev uint64
	var o uint32
	for i, code := range mo.codes {
		cell := code >> cellShift
		if i == 0 || cell != prev {
			if occ != nil && i > 0 {
				occ.bump(key[:8*d], int(o+1)) // the run that just ended
			}
			prev, o = cell, 0
			for j, x := range mo.coords[i*d : (i+1)*d] {
				binary.LittleEndian.PutUint64(key[8*j:], uint64(x>>coordShift))
			}
		} else {
			o++
		}
		if emit != nil {
			binary.LittleEndian.PutUint32(key[8*d:], o)
			emit(key)
		}
	}
	if occ != nil {
		occ.bump(key[:8*d], int(o+1)) // the last run; mo is never empty
	}
}

// checkLevel rejects levels outside the universe's hierarchy.
func (v *View) checkLevel(level int) error {
	if top := v.p.Universe.Levels(); level < 0 || level > top {
		return fmt.Errorf("%w: %d outside [0,%d]", ErrLevelOutOfRange, level, top)
	}
	return nil
}

// levelTable builds the view's filled IBLT for one level.
func (v *View) levelTable(level, capacity int, occ *occupancy) (*iblt.Table, error) {
	t, err := iblt.New(levelConfig(v.p, level, capacity))
	if err != nil {
		return nil, err
	}
	v.scanLevel(level, occ, t.Insert)
	return t, nil
}

// BuildLevelTable builds the single-level IBLT the estimate-first
// protocol serves, with an explicit key capacity.
func (v *View) BuildLevelTable(level, capacity int) (*iblt.Table, error) {
	if err := v.checkLevel(level); err != nil {
		return nil, err
	}
	return v.levelTable(level, capacity, nil)
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
	v.scanLevel(level, nil, b.Add)
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
				t, err := v.levelTable(l, p.TableCapacity, nil)
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
				t, err := v.levelTable(l, p.TableCapacity, nil)
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
	v.scanLevel(level, nil, mine.Insert)
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
// cell in slice order.
func (v *View) repair(res *Result, level int, diff *iblt.Diff) error {
	g := v.g
	res.Level = level
	res.CellWidth = g.CellWidth(level)
	remove := make(map[int32]bool, len(diff.Neg))
	occupants := v.cellOccupants(level, diff.Neg)
	for _, key := range diff.Neg {
		cell, occ, err := splitKey(g, key)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInconsistentSketch, err)
		}
		in := occupants(cell)
		if int(occ) >= len(in) {
			return fmt.Errorf("%w: bob-only key names occurrence %d of a cell with %d local points", ErrInconsistentSketch, occ, len(in))
		}
		at := in[occ]
		if remove[at] {
			return fmt.Errorf("%w: point %d removed twice", ErrInconsistentSketch, at)
		}
		remove[at] = true
		res.Removed = append(res.Removed, v.pts[at])
	}
	// One backing array is carved into the S'_B points instead of a clone
	// per point: this runs once per session over all of |S_B|.
	res.SPrime = make([]points.Point, 0, len(v.pts)-len(remove)+len(diff.Pos))
	backing := make([]int64, 0, (len(v.pts)-len(remove))*g.Dim())
	for i, p := range v.pts {
		if !remove[int32(i)] {
			// Full-slice expressions keep each point's capacity at its own
			// length, so appending to one returned point cannot clobber its
			// neighbor in the shared backing array.
			start := len(backing)
			backing = append(backing, p...)
			res.SPrime = append(res.SPrime, points.Point(backing[start:len(backing):len(backing)]))
		}
	}
	for _, key := range diff.Pos {
		cell, _, err := splitKey(g, key)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInconsistentSketch, err)
		}
		center := g.Center(level, cell)
		res.Added = append(res.Added, center)
		res.SPrime = append(res.SPrime, center)
	}
	return nil
}

// cellOccupants returns a lookup from a level cell to the ascending
// original indices of the view's points inside it. keys are the (cell,
// occurrence) keys whose cells will be looked up.
//
// Once a level scan has presorted the view, a cell is a run of the
// order, found by binary search on the code prefix; runs of more than
// one point are sorted by original index once and remembered, so the
// work is bounded by the points in the cells actually named. Otherwise —
// no level was scanned, or the universe is too wide for the presort — it
// makes one pass over the points, collecting the occupants of the named
// cells only. Both return the same indices.
func (v *View) cellOccupants(level int, keys [][]byte) func(grid.Cell) []int32 {
	g, d := v.g, v.g.Dim()
	mo := v.mo.Load()
	if mo == nil {
		cs := g.EncodedCellSize()
		named := make(map[string][]int32, len(keys))
		for _, key := range keys {
			if len(key) >= cs {
				named[string(key[:cs])] = nil
			}
		}
		buf := make([]byte, 0, cs)
		for i, p := range v.pts {
			buf = g.AppendCell(buf[:0], level, p)
			if in, ok := named[string(buf)]; ok {
				named[string(buf)] = append(in, int32(i))
			}
		}
		return func(cell grid.Cell) []int32 {
			buf = g.EncodeCell(buf[:0], cell)
			return named[string(buf)]
		}
	}
	cellBits := uint(level + 1)                 // bits per cell coordinate
	cellShift := uint(d * (g.Levels() - level)) // code bits below the cell prefix
	sortedRuns := map[int][]int32{}             // by run start
	return func(cell grid.Cell) []int32 {
		var prefix uint64
		for _, c := range cell {
			if c>>cellBits != 0 {
				return nil // no point of the universe rounds to this cell
			}
		}
		for b := int(cellBits) - 1; b >= 0; b-- {
			for _, c := range cell {
				prefix = prefix<<1 | uint64(c>>uint(b))&1
			}
		}
		lo := sort.Search(len(mo.codes), func(i int) bool { return mo.codes[i]>>cellShift >= prefix })
		n := sort.Search(len(mo.codes)-lo, func(i int) bool { return mo.codes[lo+i]>>cellShift > prefix })
		if n <= 1 {
			return mo.idx[lo : lo+n]
		}
		in, ok := sortedRuns[lo]
		if !ok {
			in = slices.Clone(mo.idx[lo : lo+n])
			slices.Sort(in)
			sortedRuns[lo] = in
		}
		return in
	}
}
