package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/workload"
)

// diffCase is one seeded instance of the differential suite: the view's
// output must equal the reference implementations' byte for byte.
type diffCase struct {
	name       string
	p          Params
	alice, bob []points.Point
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	gen := func(u points.Universe, n, outliers int, noise workload.Noise, seed uint64) *workload.Instance {
		return genInstance(t, workload.Config{N: n, Universe: u, Outliers: outliers, Noise: noise, Scale: 3, Seed: seed})
	}
	noisy := gen(u, 600, 6, workload.NoiseUniform, 11)
	exact := gen(u, 600, 6, workload.NoiseNone, 12)
	clustered := genInstance(t, workload.Config{N: 500, Universe: u, Outliers: 5, Noise: workload.NoiseGaussian, Scale: 2, Clusters: 3, Seed: 13})

	// Multiplicities above one on both sides, with different counts per
	// point, so Bob-only keys name occurrences past the first.
	var dupA, dupB []points.Point
	for i, p := range exact.Bob[:120] {
		for c := 0; c <= i%4; c++ {
			dupB = append(dupB, p)
		}
		for c := 0; c <= (i+1)%3; c++ {
			dupA = append(dupA, p)
		}
	}

	// dim 8 × (levels 9+1) = 80 bits: codes of two words.
	wide := points.Universe{Dim: 8, Delta: 1 << 9}
	wideInst := gen(wide, 300, 4, workload.NoiseUniform, 14)
	wideDup := append(points.Clone(wideInst.Bob), wideInst.Bob[:40]...)

	// dim 8 × (levels 7+1) = 64 bits: the widest code of one word.
	full := points.Universe{Dim: 8, Delta: 1 << 7}
	fullInst := gen(full, 300, 4, workload.NoiseUniform, 15)
	cube := points.Universe{Dim: 3, Delta: 1 << 16}
	cubeInst := gen(cube, 400, 5, workload.NoiseUniform, 16)
	// dim 16 × (levels 16+1) = 272 bits: five words, and cells that end
	// inside one.
	hyper := points.Universe{Dim: 16, Delta: 1 << 16}
	hyperInst := gen(hyper, 300, 4, workload.NoiseUniform, 17)

	one := []points.Point{{17, 4000}}
	return []diffCase{
		{"noisy", testParams(u, 8, 21), noisy.Alice, noisy.Bob},
		{"exact", testParams(u, 8, 22), exact.Alice, exact.Bob},
		{"clustered", testParams(u, 8, 23), clustered.Alice, clustered.Bob},
		{"duplicates", testParams(u, 200, 24), dupA, dupB},
		{"equal", testParams(u, 4, 25), noisy.Alice, noisy.Alice},
		{"both-empty", testParams(u, 4, 26), nil, nil},
		{"bob-empty", testParams(u, 8, 27), exact.Alice[:5], nil},
		{"alice-empty", testParams(u, 8, 28), nil, exact.Bob[:5]},
		{"single-point", testParams(u, 4, 29), one, one},
		{"single-vs-other", testParams(u, 4, 30), one, []points.Point{{18, 4001}}},
		{"clamped", testParams(u, 8, 31).WithLevels(2, 7), noisy.Alice, noisy.Bob},
		{"one-level", testParams(u, 8, 32).WithLevels(3, 3), noisy.Alice, noisy.Bob},
		{"no-level-decodes", testParams(u, 1, 33).WithLevels(6, 12), noisy.Alice, clustered.Bob},
		{"64-bit-code", testParams(full, 6, 37), fullInst.Alice, fullInst.Bob},
		{"dim-3", testParams(cube, 8, 38), cubeInst.Alice, cubeInst.Bob},
		{"272-bit-code", testParams(hyper, 6, 39), hyperInst.Alice, hyperInst.Bob},
		// The 80-bit universe, named for the map path it once took.
		{"fallback", testParams(wide, 6, 34), wideInst.Alice, wideInst.Bob},
		{"fallback-duplicates", testParams(wide, 40, 35), wideInst.Alice, wideDup},
		{"fallback-empty", testParams(wide, 4, 36), nil, nil},
	}
}

func TestViewMatchesReference(t *testing.T) {
	for _, c := range diffCases(t) {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.p.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			if v, err := NewView(c.p, c.alice); err != nil {
				t.Fatal(err)
			} else if n := v.order().len(); n != len(c.alice) {
				t.Fatalf("the view's Morton order holds %d codes, want %d", n, len(c.alice))
			}
			for _, side := range [][]points.Point{c.alice, c.bob} {
				for _, k := range []int{8, 64} {
					want, err := refLevelEstimators(c.p, side, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := LevelEstimators(c.p, side, k)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%d estimators, reference has %d", len(got), len(want))
					}
					for i := range want {
						wb, _ := want[i].MarshalBinary()
						gb, _ := got[i].MarshalBinary()
						if !bytes.Equal(gb, wb) {
							t.Errorf("k=%d level %d: estimator bytes differ from the map path", k, p.MinLevel+i)
						}
					}
				}
				for _, level := range []int{0, p.MinLevel, (p.MinLevel + p.MaxLevel) / 2, p.MaxLevel, p.Universe.Levels()} {
					want, err := refBuildLevelTable(c.p, side, level, 24)
					if err != nil {
						t.Fatal(err)
					}
					got, err := BuildLevelTable(c.p, side, level, 24)
					if err != nil {
						t.Fatal(err)
					}
					wb, _ := want.MarshalBinary()
					gb, _ := got.MarshalBinary()
					if !bytes.Equal(gb, wb) {
						t.Errorf("level %d: table bytes differ from the map path", level)
					}
				}
			}

			sk, err := BuildSketch(c.p, c.alice)
			if err != nil {
				t.Fatal(err)
			}
			want, werr := refReconcile(sk, c.bob)
			got, gerr := Reconcile(sk, c.bob)
			if c.name == "no-level-decodes" && !errors.Is(werr, ErrNoDecodableLevel) {
				t.Fatalf("case is meant to exhaust the levels, reference returned %v", werr)
			}
			checkSameResult(t, "Reconcile", got, gerr, want, werr)

			// Single-level reconcile at every level of the range, decodable
			// or not.
			for level := p.MinLevel; level <= p.MaxLevel; level++ {
				tbl, err := refBuildLevelTable(c.p, c.alice, level, 48)
				if err != nil {
					t.Fatal(err)
				}
				want, werr := refReconcileLevel(c.p, tbl, c.bob, level)
				got, gerr := ReconcileLevel(c.p, tbl, c.bob, level)
				checkSameResult(t, fmt.Sprintf("ReconcileLevel(%d)", level), got, gerr, want, werr)
			}
		})
	}
}

// checkSameResult compares every field of two results, including the
// order of SPrime, Added, Removed and Outcomes; failures must agree too.
func checkSameResult(t *testing.T, what string, got *Result, gerr error, want *Result, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
	}
	if werr != nil {
		if errors.Is(werr, ErrNoDecodableLevel) != errors.Is(gerr, ErrNoDecodableLevel) {
			t.Errorf("%s: error %v, reference %v", what, gerr, werr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result differs from the reference\n got level %d outcomes %v |S'|=%d +%d −%d\nwant level %d outcomes %v |S'|=%d +%d −%d",
			what, got.Level, got.Outcomes, len(got.SPrime), len(got.Added), len(got.Removed),
			want.Level, want.Outcomes, len(want.SPrime), len(want.Added), len(want.Removed))
	}
}

// countFills runs Reconcile with the fill hook installed and returns the
// levels whose tables the scan started to build.
func countFills(t *testing.T, sk *Sketch, bob []points.Point) (*Result, []int) {
	t.Helper()
	var filled []int
	testHookLevelFill = func(level int) { filled = append(filled, level) }
	defer func() { testHookLevelFill = nil }()
	res, err := Reconcile(sk, bob)
	if err != nil {
		t.Fatal(err)
	}
	return res, filled
}

func TestReconcileFillsLevelsLazily(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 16}
	inst := genInstance(t, workload.Config{N: 800, Universe: u, Outliers: 6, Noise: workload.NoiseUniform, Scale: 4, Seed: 41})
	p := testParams(u, 8, 43)
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}

	res, filled := countFills(t, sk, inst.Alice)
	if res.Level != u.Levels() || len(filled) != 1 || filled[0] != u.Levels() {
		t.Errorf("equal sets: decoded at level %d after filling levels %v, want only level %d", res.Level, filled, u.Levels())
	}

	lookAhead := min(runtime.GOMAXPROCS(0), maxLookAhead)
	res, filled = countFills(t, sk, inst.Bob)
	if res.Level >= u.Levels()-2 {
		t.Fatalf("noisy instance decoded at level %d; the test needs a scan of several levels", res.Level)
	}
	needed := u.Levels() - res.Level + 1
	if len(filled) < needed || len(filled) > needed+lookAhead {
		t.Errorf("decode at level %d filled %d levels %v, want between %d and %d", res.Level, len(filled), filled, needed, needed+lookAhead)
	}
	for i, l := range filled {
		if l != u.Levels()-i {
			t.Fatalf("levels filled out of order: %v", filled)
		}
	}
}

// TestReconcileWithKeptTables: a scan handed the tables an earlier scan of
// the same multiset built returns Reconcile's result, failures alike, and
// builds only the levels it was not handed: none when it holds them all,
// so it never presorts the points, whose occupants its repair then finds
// in one pass. It adds what it builds to the map and changes nothing
// else there. A permuted multiset takes the same tables and returns the
// result Reconcile gives on the permuted slice.
func TestReconcileWithKeptTables(t *testing.T) {
	for _, c := range diffCases(t) {
		t.Run(c.name, func(t *testing.T) {
			sk, err := BuildSketch(c.p, c.alice)
			if err != nil {
				t.Fatal(err)
			}
			first, err := NewView(sk.Params, c.bob)
			if err != nil {
				t.Fatal(err)
			}
			built := map[int]*iblt.Table{}
			want, werr := first.ReconcileWith(sk, built)
			ref, rerr := Reconcile(sk, c.bob)
			checkSameResult(t, "the first scan", want, werr, ref, rerr)
			kept := maps.Clone(built)
			var filled []int
			testHookLevelFill = func(level int) { filled = append(filled, level) }
			defer func() { testHookLevelFill = nil }()
			again, err := NewView(sk.Params, c.bob)
			if err != nil {
				t.Fatal(err)
			}
			got, gerr := again.ReconcileWith(sk, kept)
			checkSameResult(t, "with every table kept", got, gerr, want, werr)
			if len(filled) != 0 || again.sorted.Load() != nil || !maps.Equal(kept, built) {
				t.Fatalf("a scan handed every table built levels %v (presorted %v, map changed %v)", filled, again.sorted.Load() != nil, !maps.Equal(kept, built))
			}
			if werr != nil {
				return
			}
			// Only the chosen level's table: the scan builds the others.
			filled = nil
			one := map[int]*iblt.Table{want.Level: built[want.Level]}
			again, _ = NewView(sk.Params, c.bob)
			got, gerr = again.ReconcileWith(sk, one)
			checkSameResult(t, "with the chosen level's table kept", got, gerr, want, werr)
			if slices.Contains(filled, want.Level) || one[want.Level] != built[want.Level] || len(one) != len(built) {
				t.Fatalf("a scan handed level %d built %v and kept %d of %d tables", want.Level, filled, len(one), len(built))
			}
			shuffled := slices.Clone(c.bob)
			slices.Reverse(shuffled)
			again, _ = NewView(sk.Params, shuffled)
			got, gerr = again.ReconcileWith(sk, maps.Clone(built))
			ref, rerr = Reconcile(sk, shuffled)
			checkSameResult(t, "permuted, with every table kept", got, gerr, ref, rerr)
		})
	}
}

// TestLevelEstimatorsAllocCeiling keeps per-cell allocations — a map
// entry per distinct cell per level, ~13 600 a level at this size, as a
// counter keyed by the encoded cell made — out of the estimator build.
func TestLevelEstimatorsAllocCeiling(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 20}
	inst := genInstance(t, workload.Config{N: 20000, Universe: u, Outliers: 64, Noise: workload.NoiseUniform, Scale: 4, Seed: 1})
	p := Params{Universe: u, Seed: 7, DiffBudget: 160}.WithLevels(0, 10)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := LevelEstimators(p, inst.Alice, 1024); err != nil {
			t.Fatal(err)
		}
	})
	if perLevel := allocs / 11; perLevel > 64 {
		t.Errorf("LevelEstimators: %.0f allocations per level, ceiling 64", perLevel)
	}
}

func TestSingleLevelValidation(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 10}
	inst := genInstance(t, workload.Config{N: 100, Universe: u, Outliers: 3, Noise: workload.NoiseNone, Seed: 51})
	p := testParams(u, 4, 53)
	v, err := NewView(p, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	good, err := BuildLevelTable(p, inst.Alice, 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReconcileLevel(good, 6, 32); err != nil {
		t.Fatalf("matching table rejected: %v", err)
	}
	for _, level := range []int{-1, u.Levels() + 1, 1 << 15} {
		if _, err := v.ReconcileLevel(good, level, 32); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("ReconcileLevel at level %d: %v, want ErrLevelOutOfRange", level, err)
		}
		if _, err := ReconcileLevel(p, good, inst.Bob, level); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("core.ReconcileLevel at level %d: %v, want ErrLevelOutOfRange", level, err)
		}
		if _, err := v.BuildLevelTable(level, 32); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("BuildLevelTable at level %d: %v, want ErrLevelOutOfRange", level, err)
		}
	}

	// Tables that are not the one asked for: another level's seed, another
	// capacity, another hash count, and — the one that used to panic in
	// iblt.checkKey — another key length.
	otherLevel, _ := BuildLevelTable(p, inst.Alice, 5, 32)
	otherCap, _ := BuildLevelTable(p, inst.Alice, 6, 64)
	q := p
	q.HashCount = 3
	otherHash, _ := BuildLevelTable(q, inst.Alice, 6, 32)
	u3 := points.Universe{Dim: 3, Delta: 1 << 10}
	otherDim, err := BuildLevelTable(testParams(u3, 4, 53), []points.Point{{1, 2, 3}}, 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReconcileLevel(otherLevel, 6, 32); !errors.Is(err, ErrLevelTableMismatch) {
		t.Errorf("other level's table: %v, want ErrLevelTableMismatch", err)
	}
	if _, err := v.ReconcileLevel(otherCap, 6, 32); !errors.Is(err, ErrLevelTableMismatch) {
		t.Errorf("other capacity's table: %v, want ErrLevelTableMismatch", err)
	}
	if _, err := v.ReconcileLevel(otherHash, 6, 32); !errors.Is(err, ErrLevelTableMismatch) {
		t.Errorf("other hash count's table: %v, want ErrLevelTableMismatch", err)
	}
	if _, err := v.ReconcileLevel(otherDim, 6, 32); !errors.Is(err, ErrLevelTableMismatch) {
		t.Errorf("other key length's table: %v, want ErrLevelTableMismatch", err)
	}
	if _, err := ReconcileLevel(p, otherDim, inst.Bob, 6); !errors.Is(err, ErrLevelTableMismatch) {
		t.Errorf("core.ReconcileLevel with other key length: %v, want ErrLevelTableMismatch", err)
	}
	// The capacity-less wrapper takes the table's own size.
	if _, err := ReconcileLevel(p, otherCap, inst.Bob, 6); err != nil {
		t.Errorf("core.ReconcileLevel rejected a larger table of the right level: %v", err)
	}
}

// TestViewConcurrentUse runs every pass of one View from several
// goroutines at once; under -race it shows the view is read-only.
func TestViewConcurrentUse(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{N: 400, Universe: u, Outliers: 4, Noise: workload.NoiseUniform, Scale: 2, Seed: 61})
	p := testParams(u, 8, 63)
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(p, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.ReconcileWith(sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := v.p.MinLevel; l <= v.p.MaxLevel; l++ {
				if _, err := v.LevelEstimator(l, 32); err != nil {
					t.Error(err)
				}
			}
			if _, err := v.BuildLevelTable(want.Level, 64); err != nil {
				t.Error(err)
			}
			got, err := v.ReconcileWith(sk, nil)
			if err != nil {
				t.Error(err)
			} else if !reflect.DeepEqual(got, want) {
				t.Error("concurrent reconcile over one view returned a different result")
			}
		}()
	}
	wg.Wait()
}

// allocBytes returns the bytes f allocates a call, over runs calls after
// a first one, on one P.
func allocBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// pages is the size of a large allocation of b bytes: the allocator hands
// out an array above 32 KiB in whole 8 KiB pages.
func pages(b int) uint64 { return uint64(b+8191) &^ 8191 }

// TestRepairAllocCeiling holds the repair of a decoded level difference
// at the ruler's noisy shape (n = 20 000, level 10) to S'_B's own bytes —
// its two arrays, a header and d coordinates for each kept and added
// point — plus 8 KiB for the lookup of the named cells and
// Result.Removed.
func TestRepairAllocCeiling(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 20}
	inst := genInstance(t, workload.Config{N: 20000, Universe: u, Outliers: 64, Noise: workload.NoiseUniform, Scale: 4, Seed: 1})
	v, err := NewView(Params{Universe: u, Seed: 7, DiffBudget: 160}, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	const level = 10
	capacity := v.Params().TableCapacity
	alice, err := BuildLevelTable(v.Params(), inst.Alice, level, capacity)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := v.BuildLevelTable(level, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Sub(mine); err != nil {
		t.Fatal(err)
	}
	diff, err := alice.Decode()
	if err != nil {
		t.Fatal(err)
	}
	res := new(Result)
	got := allocBytes(5, func() {
		if err := v.repair(res, level, diff); err != nil {
			t.Fatal(err)
		}
	})
	rows := len(inst.Bob) - len(diff.Neg) + len(diff.Pos)
	if len(res.SPrime) != rows || cap(res.SPrime) != rows {
		t.Fatalf("S'_B holds %d points of capacity %d, want %d", len(res.SPrime), cap(res.SPrime), rows)
	}
	own := pages(rows*24) + pages(rows*8*u.Dim)
	t.Logf("|Neg| %d, |Pos| %d: %d B allocated, %d B of them S'_B's", len(diff.Neg), len(diff.Pos), got, own)
	if got > own+8<<10 {
		t.Errorf("the repair allocates %d B, over S'_B's %d B + 8 KiB", got, own)
	}
}
