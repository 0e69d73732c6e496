package main

import (
	"slices"

	"robustset"
)

// maxEMDPoints is the largest n whose emd_ratio is computed: exact EMD is
// an O(n³) assignment, about a second at 512 points.
const maxEMDPoints = 512

// paperMatrix enumerates the paper's strategy sweeps as cells (the E-ids
// DESIGN.md "Benchmark harness" maps): communication against k (E1, and
// E10 adding robust-adaptive on E1's instances), against n (E2), the EMD
// factor against d (E3), robust against exact sync under growing noise
// (E4), the decoded level against noise (E6), the zero-noise regime (E8)
// and IBLT hash count × table capacity (E11). Quick trims every sweep to
// a few cells.
func paperMatrix(quick bool) []cell {
	pick := func(full, short []int) []int {
		if quick {
			return short
		}
		return full
	}
	scale := func(full, short int) int {
		if quick {
			return short
		}
		return full
	}
	u := robustset.Universe{Dim: 2, Delta: 1 << 20}
	var cells []cell
	add := func(sweep string, strats []robustset.Strategy, n, k int, noise float64, seed uint64, p robustset.Params) {
		regime := "noisy"
		if noise == 0 {
			regime = "exact"
		}
		for _, s := range strats {
			cells = append(cells, cell{
				strategy: s, n: n, rate: float64(k) / float64(n),
				dim: p.Universe.Dim, delta: p.Universe.Delta, regime: regime,
				k: k, noise: noise, seed: seed, params: p, sweep: sweep,
			})
		}
	}
	params := func(u robustset.Universe, seed uint64, k int) robustset.Params {
		return robustset.Params{Universe: u, Seed: seed, DiffBudget: k}
	}
	robust := []robustset.Strategy{robustset.Robust{}}

	n := scale(4096, 1024)
	for _, k := range pick([]int{1, 2, 4, 8, 16, 32, 64, 128, 256}, []int{4, 16, 64}) {
		seed := uint64(1000 + k)
		add("E1", []robustset.Strategy{robustset.Robust{}, robustset.Rateless{}, robustset.Naive{}}, n, k, 4, seed, params(u, 7, k))
		add("E10", []robustset.Strategy{robustset.Adaptive{}}, n, k, 4, seed, params(u, 7, k))
	}
	for _, n := range pick([]int{256, 512, 1024, 2048, 4096, 8192, 16384}, []int{512, 2048}) {
		add("E2", []robustset.Strategy{robustset.Robust{}, robustset.Adaptive{}, robustset.Rateless{}, robustset.Naive{}},
			n, 16, 4, uint64(2000+n), params(u, 7, 16))
	}
	n, reps := scale(256, 128), scale(5, 2)
	for _, d := range pick([]int{1, 2, 4, 8, 16}, []int{2, 8}) {
		ud := robustset.Universe{Dim: d, Delta: 1 << 16}
		for rep := 0; rep < reps; rep++ {
			add("E3", robust, n, 4, 2, uint64(3000+100*d+rep), params(ud, uint64(31+rep), 4))
		}
	}
	n = scale(512, 256)
	for _, eps := range pick([]int{0, 1, 2, 4, 8, 16, 32, 64, 128}, []int{0, 4, 64}) {
		add("E4", []robustset.Strategy{robustset.Robust{}, robustset.Rateless{}}, n, 8, float64(eps), uint64(4000+eps), params(u, 7, 8))
	}
	n, reps = scale(2048, 512), scale(5, 3)
	for _, eps := range pick([]int{1, 4, 16, 64, 256, 1024}, []int{1, 64}) {
		for rep := 0; rep < reps; rep++ {
			add("E6", robust, n, 8, float64(eps), uint64(6000+31*eps+rep), params(u, uint64(100+rep), 8))
		}
	}
	n = scale(4096, 1024)
	for _, k := range pick([]int{2, 8, 32, 128}, []int{8}) {
		add("E8", []robustset.Strategy{robustset.Rateless{}, robustset.Robust{}, robustset.Naive{}},
			n, k, 0, uint64(8000+k), params(u, 7, k))
	}
	n, reps = scale(2048, 512), scale(3, 1)
	for _, q := range pick([]int{3, 4, 5}, []int{4}) {
		for _, f := range pick([]int{1, 2, 4}, []int{2, 4}) {
			for rep := 0; rep < reps; rep++ {
				p := params(u, uint64(200+rep), 16)
				p.HashCount, p.TableCapacity = q, f*16
				add("E11", robust, n, 16, 4, uint64(11000+17*q+3*f+rep), p)
			}
		}
	}
	return cells
}

// paperSweeps lists the sweep ids paperMatrix covers at either scale.
func paperSweeps() []string {
	var ids []string
	for _, c := range paperMatrix(true) {
		if !slices.Contains(ids, c.sweep) {
			ids = append(ids, c.sweep)
		}
	}
	return ids
}

// emdRatio is the paper's quality measure: EMD(S_A, S'_B) over EMD_k(S_A,
// S_B), the best any reconciliation could do, with the floor clamped to 1
// so a noiseless instance does not divide by zero.
func emdRatio(alice, bob, sprime []robustset.Point, k int) (float64, error) {
	after, err := robustset.EMD(alice, sprime, robustset.L1)
	if err != nil {
		return 0, err
	}
	floor, err := robustset.EMDk(alice, bob, robustset.L1, k)
	if err != nil {
		return 0, err
	}
	return after / max(floor, 1), nil
}
