// Package emd computes the Earth Mover's Distance between equal-sized
// point multisets — the objective the robust set reconciliation model is
// defined by — together with its outlier-excluding variant EMD_k.
//
// EMD(X, Y) is the cost of a min-cost perfect matching between X and Y
// under a points.Metric. EMD_k(X, Y) is the minimum EMD achievable after
// deleting k points from each side: the cheapest assignment of size n−k.
// Both reduce to the assignment problem; EMD_k uses the standard
// dummy-padding reduction (k zero-cost dummy rows and columns absorb the
// excluded points), so one O(m³) Hungarian solver serves both.
//
// These routines are evaluation tools: protocols never call them, but the
// bench harness uses them to score reconciliation quality, so
// correctness here is validated against brute force in the tests.
package emd

import (
	"errors"
	"fmt"
	"math"

	"robustset/internal/grid"
	"robustset/internal/points"
)

// ErrSizeMismatch is returned when the two multisets differ in size.
var ErrSizeMismatch = errors.New("emd: point sets must have equal size")

// Exact returns EMD(x, y): the min-cost perfect matching cost under m.
func Exact(x, y []points.Point, m points.Metric) (float64, error) {
	res, err := Match(x, y, m, 0)
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// Partial returns EMD_k(x, y): the cost of the cheapest matching that
// leaves exactly k points of each side unmatched. k must be in [0, n].
func Partial(x, y []points.Point, m points.Metric, k int) (float64, error) {
	res, err := Match(x, y, m, k)
	if err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// Result describes an optimal (possibly partial) matching.
type Result struct {
	// Cost is the total matching cost (the EMD or EMD_k value).
	Cost float64
	// Pairs maps an index into x to its matched index in y; excluded
	// points of x map to −1. len(Pairs) == len(x).
	Pairs []int
	// Excluded is the number of points excluded per side (the k argument).
	Excluded int
}

// Match computes the optimal matching excluding k points per side.
func Match(x, y []points.Point, m points.Metric, k int) (*Result, error) {
	n := len(x)
	if len(y) != n {
		return nil, fmt.Errorf("%w: %d vs %d", ErrSizeMismatch, n, len(y))
	}
	if k < 0 || k > n {
		return nil, fmt.Errorf("emd: exclusion count %d outside [0,%d]", k, n)
	}
	if n == 0 {
		return &Result{Pairs: []int{}, Excluded: 0}, nil
	}
	// Build the (n+k)×(n+k) padded cost matrix: rows/cols ≥ n are dummies
	// with zero cost against everything. A min-cost perfect matching on
	// the padded matrix matches at least n−k real pairs, all extra real
	// pairs being absorbed by free dummies, so its cost equals EMD_k.
	sz := n + k
	cost := make([]float64, sz*sz)
	for i := 0; i < n; i++ {
		row := cost[i*sz:]
		for j := 0; j < n; j++ {
			row[j] = m.Distance(x[i], y[j])
		}
	}
	assign := hungarian(cost, sz)
	res := &Result{Pairs: make([]int, n), Excluded: k}
	for i := 0; i < n; i++ {
		j := assign[i]
		if j >= n {
			res.Pairs[i] = -1 // matched to a dummy column: excluded
			continue
		}
		res.Pairs[i] = j
		res.Cost += cost[i*sz+j]
	}
	return res, nil
}

// hungarian solves the square assignment problem on an sz×sz row-major
// cost matrix, returning for each row its assigned column. This is the
// classic O(sz³) shortest-augmenting-path formulation with dual potentials
// (Jonker–Volgenant style).
func hungarian(cost []float64, sz int) []int {
	const inf = math.MaxFloat64
	u := make([]float64, sz+1)
	v := make([]float64, sz+1)
	p := make([]int, sz+1)   // p[j] = row (1-based) assigned to column j; 0 = free
	way := make([]int, sz+1) // predecessor column on the alternating path
	minv := make([]float64, sz+1)
	used := make([]bool, sz+1)
	for i := 1; i <= sz; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			row := cost[(i0-1)*sz:]
			for j := 1; j <= sz; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= sz; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	assign := make([]int, sz)
	for j := 1; j <= sz; j++ {
		if p[j] != 0 {
			assign[p[j]-1] = j - 1
		}
	}
	return assign
}

// GridApprox estimates EMD(x, y) from the per-level cell histograms of a
// randomly shifted hierarchical grid: sum over levels ℓ ≥ 1 of
// (w_ℓ / 2) · Σ_cells |count_x(c) − count_y(c)|. This is the standard
// quadtree embedding of EMD into ℓ1; for the ℓ1 metric its expected
// distortion is O(d·log Δ), making it a cheap O(n·logΔ) surrogate for the
// exact O(n³) computation on large inputs.
//
// Unlike Exact, GridApprox accepts multisets of different sizes: the
// histogram distance remains well defined and the size difference then
// contributes at every level, which is the natural "unmatched mass"
// penalty. Exact EMD is only defined for equal sizes.
func GridApprox(x, y []points.Point, g *grid.Grid) (float64, error) {
	total := 0.0
	buf := make([]byte, 0, g.EncodedCellSize())
	for l := 1; l <= g.Levels(); l++ {
		counts := make(map[string]int64, 2*len(x))
		for _, p := range x {
			buf = g.EncodeCell(buf[:0], g.Cell(l, p))
			counts[string(buf)]++
		}
		for _, p := range y {
			buf = g.EncodeCell(buf[:0], g.Cell(l, p))
			counts[string(buf)]--
		}
		var lvl int64
		for _, c := range counts {
			if c < 0 {
				c = -c
			}
			lvl += c
		}
		total += float64(g.CellWidth(l)) / 2 * float64(lvl)
	}
	return total, nil
}

// BruteForce computes EMD exactly by enumerating all n! matchings. It is
// exponential and exists only so tests can validate the Hungarian solver;
// n must be at most 8.
func BruteForce(x, y []points.Point, m points.Metric) (float64, error) {
	n := len(x)
	if len(y) != n {
		return 0, ErrSizeMismatch
	}
	if n > 8 {
		return 0, errors.New("emd: brute force limited to n ≤ 8")
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.MaxFloat64
	var rec func(depth int, cost float64)
	rec = func(depth int, cost float64) {
		if cost >= best {
			return
		}
		if depth == n {
			best = cost
			return
		}
		for i := depth; i < n; i++ {
			perm[depth], perm[i] = perm[i], perm[depth]
			rec(depth+1, cost+m.Distance(x[depth], y[perm[depth]]))
			perm[depth], perm[i] = perm[i], perm[depth]
		}
	}
	rec(0, 0)
	if n == 0 {
		best = 0
	}
	return best, nil
}

// BruteForcePartial computes EMD_k by brute force (n ≤ 8): the minimum
// over all subsets of size n−k of each side and all matchings between
// them. Exponential; tests only.
func BruteForcePartial(x, y []points.Point, m points.Metric, k int) (float64, error) {
	n := len(x)
	if len(y) != n {
		return 0, ErrSizeMismatch
	}
	if n > 8 {
		return 0, errors.New("emd: brute force limited to n ≤ 8")
	}
	if k < 0 || k > n {
		return 0, fmt.Errorf("emd: exclusion count %d outside [0,%d]", k, n)
	}
	t := n - k
	best := math.MaxFloat64
	// usedY is a bitmask of y points already matched.
	var solve func(xi int, matched int, usedY uint, cost float64)
	solve = func(xi int, matched int, usedY uint, cost float64) {
		if cost >= best {
			return
		}
		if matched == t {
			best = cost
			return
		}
		if xi == n || n-xi < t-matched {
			return
		}
		// Skip x[xi] (exclude it).
		solve(xi+1, matched, usedY, cost)
		// Match x[xi] to any free y.
		for j := 0; j < n; j++ {
			if usedY&(1<<uint(j)) == 0 {
				solve(xi+1, matched+1, usedY|1<<uint(j), cost+m.Distance(x[xi], y[j]))
			}
		}
	}
	solve(0, 0, 0, 0)
	if t == 0 {
		best = 0
	}
	return best, nil
}
