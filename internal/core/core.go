// Package core implements the robust set reconciliation protocol of
// "Robust Set Reconciliation" (SIGMOD 2014): a one-way protocol that lets
// Bob transform his point multiset S_B into a multiset S'_B close to
// Alice's S_A in Earth Mover's Distance, with communication proportional
// to the number of genuine differences k rather than to n.
//
// # Construction
//
// Both parties share a seed (public coins) that fixes a randomly shifted
// hierarchical grid over the universe [Δ]^d and a family of IBLT hash
// functions. For every grid level ℓ, Alice rounds each of her points to
// its grid cell and inserts the key (cell coordinates, occurrence index)
// into a level-ℓ IBLT with O(k) cells; the occurrence index — "this is my
// j-th point in this cell" — gives the IBLT exact multiset semantics, so
// after Bob subtracts his identically built table, the level-ℓ sketch
// holds exactly Σ_c |a_c − b_c| keys, where a_c, b_c are the parties'
// cell occupancies.
//
// Bob scans levels from finest to coarsest and decodes the first table
// whose peeling succeeds: at fine levels measurement noise separates
// nearly every corresponding pair (too many differences, decode fails);
// at coarse levels noisy pairs share cells and cancel, leaving roughly
// the k true differences. At the chosen level Bob repairs his multiset:
// he deletes his own points named by Bob-only keys and adds the cell
// centers of Alice-only keys. The random shift makes the probability of
// a pair at distance x surviving to level ℓ proportional to x/w_ℓ, which
// yields the paper's O(d)·EMD_k(S_A,S_B) expected accuracy.
//
// # Implementation
//
// Every pass that rounds a party's points to cells — sketch and
// level-table builds, the per-level difference estimators, Bob's level
// scan and his repair — runs over one View of that party's multiset: the
// validated points, the grid, and a Morton presort that makes each cell a
// contiguous run at every level at once, built by the first level scan.
// A session builds its View once (NewView) and calls its methods;
// Reconcile, LevelEstimators, BuildLevelTable and ReconcileLevel are the
// same methods over a throwaway View. Reconcile builds Bob's table for a
// level only when the finest→coarsest scan reaches it, a bounded few
// levels ahead, so equal sets cost one level, and only when the caller
// does not hold it already: ReconcileWith takes the tables an earlier
// scan of the same multiset built, and one handed every table it scans
// neither keys nor presorts the points. A Maintainer, which must place
// points it has not seen, keeps the presort's sorted codes as an index
// and reads every level's cell counts from it. A code is as many 64-bit
// words as the universe's d·(L+1) bits need, compared most significant
// first, so every universe takes the same path.
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

// Params is the shared configuration of a reconciliation. Both parties
// must use identical Params (they are carried in the sketch wire format,
// so in practice Bob adopts whatever Alice sent).
type Params struct {
	// Universe is the point domain [Δ]^d.
	Universe points.Universe
	// Seed is the public-coins seed fixing the grid shift and all hash
	// functions.
	Seed uint64
	// DiffBudget is k: the number of genuine differences the sketch is
	// provisioned for. Each level's IBLT is sized to decode about
	// 2·DiffBudget keys (k Alice-only plus k Bob-only).
	DiffBudget int
	// HashCount is the IBLT hash count q. 0 means the default (4).
	HashCount int
	// MinLevel and MaxLevel bound the grid levels included in the sketch.
	// Zero values mean the full hierarchy 0..log2(Δ). A party that knows
	// the noise scale can clamp MaxLevel to save communication.
	MinLevel, MaxLevel int
	// TableCapacity overrides the per-level IBLT key capacity. 0 means
	// the default 2·DiffBudget (plus a small floor).
	TableCapacity int
	// levelsSet records whether MaxLevel was explicitly provided.
	levelsSet bool
}

// DefaultHashCount is the IBLT hash count used when Params.HashCount is 0.
const DefaultHashCount = 4

// WithLevels returns a copy of p restricted to grid levels [lo, hi].
func (p Params) WithLevels(lo, hi int) Params {
	p.MinLevel, p.MaxLevel, p.levelsSet = lo, hi, true
	return p
}

// Hard parameter ceilings. They are far beyond any sensible deployment
// and exist so that wire-derived Params can never drive pathological
// allocations (a hostile sketch header is rejected before any table is
// built).
const (
	// MaxDim bounds the universe dimension.
	MaxDim = 512
	// MaxDiffBudget bounds DiffBudget and TableCapacity.
	MaxDiffBudget = 1 << 24
)

// Normalized validates p and fills defaults.
func (p Params) Normalized() (Params, error) {
	if err := p.Universe.Validate(); err != nil {
		return p, err
	}
	if p.Universe.Dim > MaxDim {
		return p, fmt.Errorf("core: dimension %d exceeds limit %d", p.Universe.Dim, MaxDim)
	}
	if p.DiffBudget < 1 {
		return p, fmt.Errorf("core: diff budget %d < 1", p.DiffBudget)
	}
	if p.DiffBudget > MaxDiffBudget {
		return p, fmt.Errorf("core: diff budget %d exceeds limit %d", p.DiffBudget, MaxDiffBudget)
	}
	if p.TableCapacity < 0 || p.TableCapacity > MaxDiffBudget {
		return p, fmt.Errorf("core: table capacity %d outside [0,%d]", p.TableCapacity, MaxDiffBudget)
	}
	if p.HashCount == 0 {
		p.HashCount = DefaultHashCount
	}
	if p.HashCount < 2 || p.HashCount > 16 {
		return p, fmt.Errorf("core: hash count %d outside [2,16]", p.HashCount)
	}
	maxLevel := p.Universe.Levels()
	if !p.levelsSet && p.MaxLevel == 0 && p.MinLevel == 0 {
		p.MaxLevel = maxLevel
	}
	if p.MinLevel < 0 || p.MaxLevel > maxLevel || p.MinLevel > p.MaxLevel {
		return p, fmt.Errorf("core: level range [%d,%d] invalid for universe with %d levels", p.MinLevel, p.MaxLevel, maxLevel)
	}
	if p.TableCapacity == 0 {
		p.TableCapacity = 2 * p.DiffBudget
	}
	// Floor the capacity: very small IBLTs stall with non-negligible
	// probability, and a stall at the finest (lossless) level silently
	// degrades an exact-regime reconciliation to a rounded one.
	if p.TableCapacity < 8 {
		p.TableCapacity = 8
	}
	return p, nil
}

// KeyLen returns the IBLT key length for dimension d: 8 bytes per cell
// coordinate plus 4 bytes of occurrence index.
func KeyLen(d int) int { return 8*d + 4 }

// gridFor builds the shared grid for the params.
func gridFor(p Params) (*grid.Grid, error) {
	return grid.New(p.Universe, hashutil.DeriveSeed(p.Seed, "core/grid"))
}

// levelConfig is the (normalized) configuration of one level's table —
// computable without constructing a table, which the sketch decoder and
// ReconcileLevel use to validate a peer's tables allocation-free.
func levelConfig(p Params, level, capacity int) iblt.Config {
	return iblt.Config{
		Cells:     iblt.RecommendedCells(capacity, p.HashCount),
		HashCount: p.HashCount,
		KeyLen:    KeyLen(p.Universe.Dim),
		Seed:      hashutil.DeriveSeedN(p.Seed, "core/level", level),
	}.Normalized()
}

// appendKey encodes the (cell, occurrence) IBLT key.
func appendKey(dst []byte, g *grid.Grid, c grid.Cell, occ uint32) []byte {
	dst = g.EncodeCell(dst, c)
	dst = append(dst, byte(occ), byte(occ>>8), byte(occ>>16), byte(occ>>24))
	return dst
}

// Sketch is Alice's transmissible summary: one IBLT per grid level in
// [Params.MinLevel, Params.MaxLevel].
type Sketch struct {
	Params Params
	// Count is the number of points summarized (|S_A|), carried for
	// diagnostics and for the repair-size invariant check.
	Count int
	// Tables holds one IBLT per level, indexed by level−MinLevel.
	Tables []*iblt.Table
}

// BuildSketch summarizes pts under p. This is Alice's encoder (Bob
// builds the identical tables he subtracts level by level, see
// Reconcile). Levels are built in parallel across up to
// runtime.GOMAXPROCS(0) workers; the result is byte-identical to a
// sequential build (each level is a deterministic function of the
// parameters and the point multiset).
func BuildSketch(p Params, pts []points.Point) (*Sketch, error) {
	return BuildSketchParallel(p, pts, 0)
}

// BuildSketchParallel is BuildSketch with an explicit worker-pool bound.
// workers ≤ 0 means runtime.GOMAXPROCS(0); 1 forces a sequential build.
// Every worker count produces byte-identical sketches — the equivalence
// the tests pin — so the knob trades only CPU placement, never output.
func BuildSketchParallel(p Params, pts []points.Point, workers int) (*Sketch, error) {
	v, err := NewView(p, pts)
	if err != nil {
		return nil, err
	}
	tables, err := buildTables(v, workers)
	if err != nil {
		return nil, err
	}
	return &Sketch{Params: v.p, Count: len(pts), Tables: tables}, nil
}

// buildTables constructs the filled per-level IBLTs of the view's
// points, fanning levels out over a bounded worker pool. Each level is
// built independently and deterministically, so the concurrency is
// race-free by construction and invisible in the output.
func buildTables(v *View, workers int) ([]*iblt.Table, error) {
	p := v.p
	tables := make([]*iblt.Table, p.MaxLevel-p.MinLevel+1)
	err := eachLevel(len(tables), workers, func(idx int) (err error) {
		tables[idx], err = v.levelTable(p.MinLevel+idx, p.TableCapacity)
		return err
	})
	return tables, err
}

// eachLevel runs fn(idx) for every idx in [0, levels) over a pool of at
// most workers goroutines — workers ≤ 0 means runtime.GOMAXPROCS(0), 1
// runs inline — and returns the first error.
func eachLevel(levels, workers int, fn func(idx int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > levels {
		workers = levels
	}
	if workers == 1 {
		for idx := 0; idx < levels; idx++ {
			if err := fn(idx); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= levels {
					return
				}
				if err := fn(idx); err != nil {
					errOnce.Do(func() { firstEr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// WireSize returns the total marshalled size of the sketch in bytes.
func (s *Sketch) WireSize() int {
	n := sketchHeaderSize
	for _, t := range s.Tables {
		n += 4 + t.WireSize()
	}
	return n
}

// LevelOutcome records what happened at one level during Reconcile's scan.
type LevelOutcome struct {
	Level    int
	Decoded  bool
	DiffSize int // decoded keys (valid only when Decoded)
	Residue  int // non-zero cells the stalled peel left (valid only when not Decoded)
}

// Result is the outcome of a reconciliation on Bob's side.
type Result struct {
	// SPrime is Bob's reconciled multiset S'_B: copies of his points that
	// no Bob-only key removed, in the order of his slice, then the Added
	// points, in Alice-only key order.
	SPrime []points.Point
	// Params are the normalized parameters the reconciliation ran under
	// (for the one-shot protocol, the ones carried by Alice's sketch).
	Params Params
	// Level is the finest grid level whose sketch decoded.
	Level int
	// CellWidth is the grid cell width at Level.
	CellWidth int64
	// Added holds the cell-center points inserted into S'_B (one per
	// Alice-only key).
	Added []points.Point
	// Removed holds Bob's own points deleted from S'_B, one per Bob-only
	// key in key order; they are his slice's points, not copies.
	Removed []points.Point
	// Outcomes records the decode attempt at every scanned level, finest
	// first, ending with the successful one. A warm fetch's begin at its
	// window's finest level: they are a cold fetch's from there on.
	Outcomes []LevelOutcome
}

// DiffSize returns the total number of decoded difference keys.
func (r *Result) DiffSize() int { return len(r.Added) + len(r.Removed) }

// Overloaded reports whether o, a decode attempt under normalized p,
// stalled on at least as many non-zero cells as p's tables have beyond
// their key capacity: past its load, as are the finer levels. A stall on
// fewer is a chance 2-core, which says nothing of the finer levels.
func (p Params) Overloaded(o LevelOutcome) bool {
	return !o.Decoded && o.Residue >= iblt.RecommendedCells(p.TableCapacity, p.HashCount)-p.TableCapacity
}

// WarmWindow is the window of levels the next fetch asks for after one
// that returned res: from res.Level−1 up to the first finer level res saw
// overloaded, or else did not see, MaxLevel at most. ok is false when it
// would reach below MinLevel or be the whole range.
func WarmWindow(res *Result) (lo, hi int, ok bool) {
	p, top := res.Params, res.Outcomes[0].Level
	lo, hi = res.Level-1, res.Level+1
	for hi < p.MaxLevel && hi <= top && !p.Overloaded(res.Outcomes[top-hi]) {
		hi++
	}
	hi = min(hi, p.MaxLevel)
	return lo, hi, lo >= p.MinLevel && (lo > p.MinLevel || hi < p.MaxLevel)
}

// ErrNoDecodableLevel is returned when no level of the sketch decodes —
// the difference exceeded the sketch's budget at every resolution. The
// caller should retry with a larger DiffBudget (the estimate-first
// protocol automates this).
var ErrNoDecodableLevel = errors.New("core: no level of the sketch decoded; increase DiffBudget")

// ErrInconsistentSketch is returned when a decoded difference contradicts
// Bob's own data (e.g. a Bob-only key whose cell Bob never occupied),
// which indicates corruption or mismatched parameters.
var ErrInconsistentSketch = errors.New("core: decoded difference inconsistent with local set")

// ErrLevelOutOfRange is returned when a single-level operation names a
// level the universe's grid hierarchy does not have.
var ErrLevelOutOfRange = errors.New("core: level out of range")

// ErrLevelTableMismatch is returned by ReconcileLevel when the peer's
// table is not the one the level, capacity and parameters imply — the
// single-level counterpart of the sketch decoder's per-table check.
var ErrLevelTableMismatch = errors.New("core: level table does not match the requested shape")

// Reconcile is Bob's side of the one-shot protocol: given Alice's sketch
// and his own points, it returns S'_B ≈ S_A. Bob's points must lie in the
// sketch's universe.
func Reconcile(s *Sketch, bobPts []points.Point) (*Result, error) {
	v, err := NewView(s.Params, bobPts)
	if err != nil {
		return nil, err
	}
	return v.ReconcileWith(s, nil)
}

// BuildLevelTable is View.BuildLevelTable over a throwaway view.
func BuildLevelTable(p Params, pts []points.Point, level, capacity int) (*iblt.Table, error) {
	v, err := NewView(p, pts)
	if err != nil {
		return nil, err
	}
	return v.BuildLevelTable(level, capacity)
}

// ReconcileLevel is View.ReconcileLevel over a throwaway view, for
// callers that hold a table but not the capacity it was requested with:
// the table's own cell count stands in for the requested one, and its
// key length, hash count and seed must still be the level's.
func ReconcileLevel(p Params, aliceTable *iblt.Table, bobPts []points.Point, level int) (*Result, error) {
	v, err := NewView(p, bobPts)
	if err != nil {
		return nil, err
	}
	return v.reconcileLevel(aliceTable, level, aliceTable.Cells())
}

// LevelEstimators is View.LevelEstimator of every level, coarsest first,
// over a throwaway view.
func LevelEstimators(p Params, pts []points.Point, k int) ([]*sketch.BottomK, error) {
	v, err := NewView(p, pts)
	if err != nil {
		return nil, err
	}
	ests := make([]*sketch.BottomK, v.p.MaxLevel-v.p.MinLevel+1)
	for i := range ests {
		if ests[i], err = v.LevelEstimator(v.p.MinLevel+i, k); err != nil {
			return nil, err
		}
	}
	return ests, nil
}

// ChooseLevel picks the finest level whose estimated difference fits the
// given key budget, given Alice's and Bob's level estimators. It returns
// the level and the estimated difference size at that level (already
// padded for estimator resolution — size tables from it directly). If no
// level fits, it returns the coarsest level with its estimate.
//
// A bottom-k estimator resolves the difference only to about one
// quantization step of (|A|+|B|)/k keys, so raw estimates near zero are
// unreliable for large sets; half a step is added before both the budget
// comparison and the returned estimate. Callers that need fine level
// selection on large sets should raise the estimator size accordingly
// (k ≈ n/32 makes the step ~64 keys).
func ChooseLevel(p Params, alice, bob []*sketch.BottomK, budget int) (level int, estimate float64, err error) {
	if p, err = p.Normalized(); err != nil {
		return 0, 0, err
	}
	if levels := p.MaxLevel - p.MinLevel + 1; len(alice) != levels || len(bob) != levels {
		return 0, 0, fmt.Errorf("core: estimator count mismatch (%d alice, %d bob, want %d)", len(alice), len(bob), levels)
	}
	return ChooseLevelLazy(p, func(i int) (*sketch.BottomK, error) { return alice[i], nil },
		func(i int) (*sketch.BottomK, error) { return bob[i], nil }, budget)
}

// ChooseLevelLazy is ChooseLevel with the estimators asked for one at a
// time: alice(i) and then bob(i) return each side's of level MinLevel+i.
// The scan runs finest to coarsest and stops at the first affordable
// level, so neither is called for a level coarser than the chosen one — a
// caller that builds or fetches an estimator when asked does only those.
func ChooseLevelLazy(p Params, alice, bob func(i int) (*sketch.BottomK, error), budget int) (level int, estimate float64, err error) {
	p, err = p.Normalized()
	if err != nil {
		return 0, 0, err
	}
	for i := p.MaxLevel - p.MinLevel; i >= 0; i-- {
		theirs, err := alice(i)
		if err != nil {
			return 0, 0, err
		}
		mine, err := bob(i)
		if err != nil {
			return 0, 0, err
		}
		est, err := sketch.EstimateDiff(theirs, mine)
		if err != nil {
			return 0, 0, err
		}
		step := float64(theirs.Count()+mine.Count()) / float64(theirs.K())
		est += step / 2
		// A level is affordable if its padded estimate fits the budget;
		// when the budget is below the estimator's own resolution, one
		// step is the honest acceptance bar (the caller provisions at
		// least that much capacity anyway, and rejecting everything the
		// estimator cannot resolve would drive selection uselessly
		// coarse).
		limit := float64(budget)
		if step > limit {
			limit = step
		}
		if est <= limit || i == 0 {
			return p.MinLevel + i, est, nil
		}
	}
	return p.MinLevel, 0, nil // unreachable; loop always returns at i==0
}
