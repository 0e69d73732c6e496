package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"robustset/internal/emd"
	"robustset/internal/points"
	"robustset/internal/workload"
)

func testParams(u points.Universe, k int, seed uint64) Params {
	return Params{Universe: u, Seed: seed, DiffBudget: k}
}

func genInstance(t *testing.T, cfg workload.Config) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestParallelBuildByteIdentical pins the parallel sketch builder to the
// sequential one: every worker count must produce byte-identical wire
// encodings.
func TestParallelBuildByteIdentical(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{
		N: 3000, Universe: u, Outliers: 10,
		Noise: workload.NoiseUniform, Scale: 3, Seed: 42,
	})
	// Duplicate some points so occurrence indexing is exercised.
	pts := append(append([]points.Point{}, inst.Alice...), inst.Alice[:50]...)
	p := testParams(u, 8, 99)
	want, err := BuildSketchParallel(p, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 7} {
		got, err := BuildSketchParallel(p, pts, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(gotBytes) != string(wantBytes) {
			t.Errorf("workers=%d: sketch bytes diverge from sequential build", workers)
		}
	}
	// A maintainer seeded with the same points must hold the same bytes.
	m, err := NewMaintainerParallel(p, pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	mBytes, err := m.Sketch().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(mBytes) != string(wantBytes) {
		t.Error("maintainer-built sketch diverges from BuildSketch")
	}
}

// TestMortonCodesEveryWidth holds the presort to the points' reference
// codes in universes whose codes take one word (42 bits, and exactly 64),
// two (68 and 80 bits), five (272 bits, where cells end inside words) and
// ten (600 bits in 100 dimensions, more than a word apart),
// and every cell its scan decodes to the grid's own; the sketch is the
// same across worker counts, and a single-level table is the same level
// of the full sketch and the map-based reference's.
func TestMortonCodesEveryWidth(t *testing.T) {
	for _, u := range []points.Universe{
		{Dim: 2, Delta: 1 << 20}, {Dim: 4, Delta: 1 << 15},
		{Dim: 4, Delta: 1 << 16}, {Dim: 8, Delta: 1 << 9}, {Dim: 16, Delta: 1 << 16},
		{Dim: 100, Delta: 1 << 5},
	} {
		inst := genInstance(t, workload.Config{
			N: 400, Universe: u, Outliers: 4,
			Noise: workload.NoiseUniform, Scale: 2, Seed: 5,
		})
		pts := append(points.Clone(inst.Alice), inst.Alice[:30]...)
		p, err := testParams(u, 4, 17).Normalized()
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(p, pts)
		if err != nil {
			t.Fatal(err)
		}
		x := v.order()
		if got, want := slices.Concat(x.chunks...), refCodes(v.g, pts); !slices.Equal(got, want) || x.len() != len(pts) {
			t.Fatalf("%+v: the presort holds %d words (%d codes), not the points' %d", u, len(got), x.len(), len(want))
		}
		key := make([]byte, KeyLen(u.Dim))
		for _, pt := range pts[:40] {
			code := refCodes(v.g, []points.Point{pt})
			for l := 0; l <= u.Levels(); l++ {
				x.putCell(key, code, l)
				if want := v.g.AppendCell(nil, l, pt); !bytes.Equal(key[:8*u.Dim], want) {
					t.Fatalf("%+v: %v's level-%d cell decodes to %x, want %x", u, pt, l, key[:8*u.Dim], want)
				}
			}
		}
		seq, err := BuildSketchParallel(p, pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := BuildSketchParallel(p, pts, 4)
		if err != nil {
			t.Fatal(err)
		}
		sb, _ := seq.MarshalBinary()
		pb, _ := par.MarshalBinary()
		if !bytes.Equal(sb, pb) {
			t.Errorf("%+v: parallel build diverges from sequential", u)
		}
		for _, level := range []int{0, 3, p.MaxLevel} {
			lt, err := BuildLevelTable(p, pts, level, p.TableCapacity)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refBuildLevelTable(p, pts, level, p.TableCapacity)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := seq.Tables[level-p.MinLevel].MarshalBinary()
			got, _ := lt.MarshalBinary()
			rb, _ := ref.MarshalBinary()
			if !bytes.Equal(got, want) || !bytes.Equal(rb, want) {
				t.Errorf("%+v level %d: single-level table diverges from the sketch's or the reference's", u, level)
			}
		}
	}
}

func TestParamsValidation(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 10}
	if _, err := BuildSketch(Params{Universe: u, DiffBudget: 0}, nil); err == nil {
		t.Error("zero diff budget accepted")
	}
	if _, err := BuildSketch(Params{Universe: points.Universe{Dim: 0, Delta: 4}, DiffBudget: 1}, nil); err == nil {
		t.Error("invalid universe accepted")
	}
	if _, err := BuildSketch(testParams(u, 4, 1).WithLevels(5, 2), nil); err == nil {
		t.Error("inverted level range accepted")
	}
	if _, err := BuildSketch(testParams(u, 4, 1).WithLevels(0, 99), nil); err == nil {
		t.Error("excessive max level accepted")
	}
	if _, err := BuildSketch(Params{Universe: u, DiffBudget: 1, HashCount: 1}, nil); err == nil {
		t.Error("hash count 1 accepted")
	}
	// Out-of-universe points rejected.
	if _, err := BuildSketch(testParams(u, 4, 1), []points.Point{{-1, 0}}); err == nil {
		t.Error("out-of-universe point accepted")
	}
}

func TestExactRegimeRecoversExactDifference(t *testing.T) {
	// With zero noise the finest level (width-1 cells, lossless) decodes,
	// and Bob ends with exactly Alice's multiset.
	u := points.Universe{Dim: 2, Delta: 1 << 16}
	for _, k := range []int{1, 5, 20} {
		inst := genInstance(t, workload.Config{
			N: 500, Universe: u, Outliers: k, Noise: workload.NoiseNone, Seed: uint64(k),
		})
		sk, err := BuildSketch(testParams(u, k, 42), inst.Alice)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Reconcile(sk, inst.Bob)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Level != u.Levels() {
			t.Errorf("k=%d: decoded at level %d, want finest %d", k, res.Level, u.Levels())
		}
		if !points.EqualMultisets(res.SPrime, inst.Alice) {
			t.Errorf("k=%d: S'_B != S_A in exact regime", k)
		}
		if len(res.Added) != k || len(res.Removed) != k {
			t.Errorf("k=%d: added %d removed %d, want %d each", k, len(res.Added), len(res.Removed), k)
		}
	}
}

func TestIdenticalSetsNoOp(t *testing.T) {
	u := points.Universe{Dim: 3, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{N: 300, Universe: u, Seed: 7})
	sk, _ := BuildSketch(testParams(u, 2, 1), inst.Bob)
	res, err := Reconcile(sk, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffSize() != 0 {
		t.Errorf("identical sets decoded %d differences", res.DiffSize())
	}
	if !points.EqualMultisets(res.SPrime, inst.Bob) {
		t.Error("S'_B changed for identical sets")
	}
	if res.Level != u.Levels() {
		t.Errorf("identical sets should decode at the finest level, got %d", res.Level)
	}
}

func TestNoisyReconciliationImprovesEMD(t *testing.T) {
	// The headline behaviour: under noise, Bob's reconciled set is much
	// closer to Alice's than his original set was, and the size invariant
	// |S'_B| = n holds.
	u := points.Universe{Dim: 2, Delta: 1 << 16}
	inst := genInstance(t, workload.Config{
		N: 160, Universe: u, Outliers: 6,
		Noise: workload.NoiseUniform, Scale: 3, Seed: 99,
	})
	sk, err := BuildSketch(testParams(u, 6, 1234), inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reconcile(sk, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SPrime) != len(inst.Bob) {
		t.Fatalf("|S'_B| = %d, want %d", len(res.SPrime), len(inst.Bob))
	}
	for _, p := range res.SPrime {
		if !u.Contains(p) {
			t.Fatalf("reconciled point %v outside universe", p)
		}
	}
	before, err := emd.Exact(inst.Alice, inst.Bob, points.L1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := emd.Exact(inst.Alice, res.SPrime, points.L1)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("reconciliation did not improve EMD: before %v, after %v", before, after)
	}
	// Outliers are huge in a 2^16 universe; the residual should be within
	// a moderate factor of the noise floor rather than outlier-sized.
	if after > before/4 {
		t.Errorf("EMD only improved from %v to %v; expected at least 4×", before, after)
	}
}

func TestApproximationFactorAgainstEMDk(t *testing.T) {
	// EMD(S_A, S'_B) should be within a dimension-dependent constant of
	// EMD_k(S_A, S_B). The paper proves O(d) in expectation; we allow a
	// generous empirical band (d·logn-ish) to keep the test stable.
	u := points.Universe{Dim: 2, Delta: 1 << 14}
	k := 4
	worst := 0.0
	for seed := uint64(0); seed < 5; seed++ {
		inst := genInstance(t, workload.Config{
			N: 100, Universe: u, Outliers: k,
			Noise: workload.NoiseUniform, Scale: 2, Seed: seed,
		})
		sk, _ := BuildSketch(testParams(u, k, seed+100), inst.Alice)
		res, err := Reconcile(sk, inst.Bob)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after, _ := emd.Exact(inst.Alice, res.SPrime, points.L1)
		base, _ := emd.Partial(inst.Alice, inst.Bob, points.L1, k)
		if base == 0 {
			base = 1
		}
		if ratio := after / base; ratio > worst {
			worst = ratio
		}
	}
	if worst > 60 {
		t.Errorf("worst EMD/EMD_k ratio %.1f implausibly high for d=2", worst)
	}
}

func TestLevelSelectionTracksNoise(t *testing.T) {
	// Higher noise must force decoding at coarser (smaller) levels.
	u := points.Universe{Dim: 2, Delta: 1 << 16}
	level := func(scale float64) int {
		inst := genInstance(t, workload.Config{
			N: 400, Universe: u, Outliers: 4,
			Noise: workload.NoiseUniform, Scale: scale, Seed: uint64(scale * 10),
		})
		sk, _ := BuildSketch(testParams(u, 4, 5), inst.Alice)
		res, err := Reconcile(sk, inst.Bob)
		if err != nil {
			t.Fatalf("scale %v: %v", scale, err)
		}
		return res.Level
	}
	lo, hi := level(1), level(512)
	if !(hi < lo) {
		t.Errorf("level at high noise (%d) not coarser than at low noise (%d)", hi, lo)
	}
}

func TestUnequalSizes(t *testing.T) {
	// The protocol tolerates |S_A| != |S_B|: the repaired size equals
	// Alice's count.
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{N: 200, Universe: u, Seed: 3})
	alice := inst.Alice[:180]
	sk, _ := BuildSketch(testParams(u, 25, 9), alice)
	res, err := Reconcile(sk, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SPrime) != len(alice) {
		t.Errorf("|S'_B| = %d, want %d", len(res.SPrime), len(alice))
	}
}

func TestDuplicatePointsMultisetSemantics(t *testing.T) {
	// Heavy duplication: the occurrence-index encoding must keep counts
	// straight. Alice has the same point 50×, Bob 47×, plus distinct junk.
	u := points.Universe{Dim: 1, Delta: 1 << 10}
	dup := points.Point{500}
	var alice, bob []points.Point
	for i := 0; i < 50; i++ {
		alice = append(alice, dup.Clone())
	}
	for i := 0; i < 47; i++ {
		bob = append(bob, dup.Clone())
	}
	for i := int64(0); i < 20; i++ {
		alice = append(alice, points.Point{i})
		bob = append(bob, points.Point{i})
	}
	sk, err := BuildSketch(testParams(u, 6, 11), alice)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reconcile(sk, bob)
	if err != nil {
		t.Fatal(err)
	}
	if !points.EqualMultisets(res.SPrime, alice) {
		t.Error("duplicate-heavy multiset not reconciled exactly in exact regime")
	}
	if len(res.Added) != 3 || len(res.Removed) != 0 {
		t.Errorf("added %d removed %d, want 3 and 0", len(res.Added), len(res.Removed))
	}
}

func TestOverBudgetFailsLoudly(t *testing.T) {
	// Differences an order of magnitude past the budget at every level:
	// Reconcile must return ErrNoDecodableLevel, not garbage. Disjoint
	// uniform sets differ everywhere, including level 1; restricting the
	// sketch to fine levels removes the coarse safety net.
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	rng := rand.New(rand.NewPCG(5, 5))
	mk := func() []points.Point {
		s := make([]points.Point, 400)
		for i := range s {
			s[i] = points.Point{rng.Int64N(u.Delta), rng.Int64N(u.Delta)}
		}
		return s
	}
	p := testParams(u, 2, 13).WithLevels(6, u.Levels())
	sk, err := BuildSketch(p, mk())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Reconcile(sk, mk())
	if !errors.Is(err, ErrNoDecodableLevel) {
		t.Fatalf("want ErrNoDecodableLevel, got %v", err)
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 14}
	inst := genInstance(t, workload.Config{
		N: 200, Universe: u, Outliers: 3, Noise: workload.NoiseUniform, Scale: 2, Seed: 21,
	})
	run := func() *Result {
		sk, _ := BuildSketch(testParams(u, 3, 77), inst.Alice)
		res, err := Reconcile(sk, inst.Bob)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Level != b.Level || !points.EqualMultisets(a.SPrime, b.SPrime) {
		t.Error("protocol not deterministic for fixed seed")
	}
}

func TestSketchMarshalRoundtrip(t *testing.T) {
	u := points.Universe{Dim: 3, Delta: 1 << 10}
	inst := genInstance(t, workload.Config{N: 150, Universe: u, Outliers: 4, Seed: 31})
	sk, _ := BuildSketch(testParams(u, 4, 55), inst.Alice)
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != sk.WireSize() {
		t.Errorf("wire size %d != declared %d", len(blob), sk.WireSize())
	}
	var got Sketch
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	res, err := Reconcile(&got, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if !points.EqualMultisets(res.SPrime, inst.Alice) {
		t.Error("reconciliation via unmarshalled sketch failed")
	}
}

func TestSketchUnmarshalRejectsCorrupt(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 8}
	sk, _ := BuildSketch(testParams(u, 2, 1), []points.Point{{1, 2}, {3, 4}})
	good, _ := sk.MarshalBinary()
	var got Sketch
	cases := map[string][]byte{
		"short":     good[:10],
		"bad magic": append([]byte("NOPE"), good[4:]...),
		"old magic": append([]byte("RSK1"), good[4:]...),
		"truncated": good[:len(good)-2],
		"trailing":  append(append([]byte{}, good...), 9),
	}
	for name, blob := range cases {
		if err := got.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: corrupt sketch accepted", name)
		}
	}
	// Corrupting the embedded seed must be detected via config mismatch
	// (the tables' seeds no longer match the sketch parameters).
	bad := append([]byte{}, good...)
	bad[14] ^= 0xff
	if err := got.UnmarshalBinary(bad); err == nil {
		t.Error("seed-corrupted sketch accepted")
	}
}

// TestRobustSketchUnderHalfNaive pins the trade the paper is about at the
// regime the ruler measures (n = 20 000, d = 2, Δ = 2^20, DiffBudget 160,
// all 21 levels): the sketch crosses the wire in at most half the bytes
// of the set it reconciles. And the dimension sweep pins why: a cell
// costs its count, its checksum and the key-sum columns that are live —
// at most three bytes a coordinate below 2^21 (fewer on the coarse
// levels), two of the occurrence index — so the sketch grows by about 2
// bytes a cell per dimension where fixed-width cells grew by 8.
func TestRobustSketchUnderHalfNaive(t *testing.T) {
	const n = 20000
	perCell := func(dim int, seed uint64) float64 {
		u := points.Universe{Dim: dim, Delta: 1 << 20}
		inst := genInstance(t, workload.Config{N: n, Universe: u, Outliers: 64, Noise: workload.NoiseUniform, Scale: 4, Seed: seed})
		sk, err := BuildSketch(Params{Universe: u, Seed: seed + 1, DiffBudget: 160}, inst.Alice)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		naive := n * points.EncodedSize(dim)
		if len(sk.Tables) != 21 || 2*len(blob) > naive {
			t.Errorf("dim %d seed %d: %d levels in %d bytes, sending the set is %d", dim, seed, len(sk.Tables), len(blob), naive)
		}
		cells := 0
		for _, tbl := range sk.Tables {
			cells += tbl.Cells()
		}
		t.Logf("dim %d seed %d: %d B = %.3f × naive, %.2f B a cell (fixed width %d)",
			dim, seed, len(blob), float64(len(blob))/float64(naive), float64(len(blob))/float64(cells), KeyLen(dim)+12)
		return float64(len(blob)) / float64(cells)
	}
	for _, seed := range []uint64{1, 5, 42} {
		perCell(2, seed)
	}
	d2, d4, d8 := perCell(2, 7), perCell(4, 7), perCell(8, 7)
	for _, c := range []struct {
		dim  int
		cell float64
	}{{2, d2}, {4, d4}, {8, d8}} {
		if most := float64(2 + 8 + 2 + 3*c.dim); c.cell > most {
			t.Errorf("dim %d: %.2f bytes a cell, above count + checksum + occurrence + 3 a coordinate = %.0f", c.dim, c.cell, most)
		}
	}
	if slope := (d8 - d2) / 6; slope < 1.5 || slope > 3.1 || d4 < d2 || d8 < d4 {
		t.Errorf("bytes a cell %.2f, %.2f, %.2f at d = 2, 4, 8: %.2f a dimension, want 1.5 to 3, far from 8", d2, d4, d8, slope)
	}
}

func TestFixedLevelReconcile(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 14}
	inst := genInstance(t, workload.Config{
		N: 300, Universe: u, Outliers: 5, Noise: workload.NoiseUniform, Scale: 4, Seed: 61,
	})
	p := testParams(u, 5, 7)
	// Choose a level coarse enough that noise cancels: width ≥ 64·noise.
	level := u.Levels() - 10
	alice, err := BuildLevelTable(p, inst.Alice, level, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReconcileLevel(p, alice, inst.Bob, level)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != level {
		t.Errorf("level = %d, want %d", res.Level, level)
	}
	if len(res.SPrime) != len(inst.Bob) {
		t.Errorf("|S'_B| = %d, want %d", len(res.SPrime), len(inst.Bob))
	}
}

func TestReconcileLevelFailsWhenOverloaded(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 14}
	inst := genInstance(t, workload.Config{
		N: 300, Universe: u, Outliers: 5, Noise: workload.NoiseUniform, Scale: 4, Seed: 61,
	})
	p := testParams(u, 5, 7)
	// The finest level separates nearly every pair; a 16-key table must fail.
	alice, err := BuildLevelTable(p, inst.Alice, u.Levels(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconcileLevel(p, alice, inst.Bob, u.Levels()); err == nil {
		t.Error("overloaded single-level reconcile succeeded")
	}
}

func TestLevelEstimatorsAndChooseLevel(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 14}
	inst := genInstance(t, workload.Config{
		N: 500, Universe: u, Outliers: 8, Noise: workload.NoiseUniform, Scale: 8, Seed: 71,
	})
	p := testParams(u, 8, 19)
	ae, err := LevelEstimators(p, inst.Alice, 128)
	if err != nil {
		t.Fatal(err)
	}
	be, err := LevelEstimators(p, inst.Bob, 128)
	if err != nil {
		t.Fatal(err)
	}
	level, est, err := ChooseLevel(p, ae, be, 64)
	if err != nil {
		t.Fatal(err)
	}
	if level < 0 || level > u.Levels() {
		t.Fatalf("chosen level %d out of range", level)
	}
	// The chosen level must actually reconcile with a table sized from
	// the estimate.
	capacity := int(est*1.5) + 16
	alice, err := BuildLevelTable(p, inst.Alice, level, capacity)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReconcileLevel(p, alice, inst.Bob, level)
	if err != nil {
		t.Fatalf("estimate-chosen level %d (est %.0f, cap %d) failed: %v", level, est, capacity, err)
	}
	if len(res.SPrime) != len(inst.Bob) {
		t.Errorf("|S'_B| = %d, want %d", len(res.SPrime), len(inst.Bob))
	}
	// Estimator count mismatch is rejected.
	if _, _, err := ChooseLevel(p, ae[:3], be, 64); err == nil {
		t.Error("estimator count mismatch accepted")
	}
}

func TestKeyRoundtrip(t *testing.T) {
	u := points.Universe{Dim: 3, Delta: 1 << 8}
	p, _ := testParams(u, 1, 1).Normalized()
	g, err := gridFor(p)
	if err != nil {
		t.Fatal(err)
	}
	cell := g.Cell(4, points.Point{10, 200, 77})
	key := appendKey(nil, g, cell, 123456)
	if len(key) != KeyLen(3) {
		t.Fatalf("key length %d != %d", len(key), KeyLen(3))
	}
	c2, occ, err := splitKey(g, key)
	if err != nil || !c2.Equal(cell) || occ != 123456 {
		t.Fatalf("key roundtrip: %v %d %v", c2, occ, err)
	}
	if _, _, err := splitKey(g, key[:5]); err == nil {
		t.Error("short key accepted")
	}
}

func TestOutcomesRecorded(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{
		N: 300, Universe: u, Outliers: 3, Noise: workload.NoiseUniform, Scale: 16, Seed: 81,
	})
	sk, _ := BuildSketch(testParams(u, 3, 3), inst.Alice)
	res, err := Reconcile(sk, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) == 0 {
		t.Fatal("no outcomes recorded")
	}
	last := res.Outcomes[len(res.Outcomes)-1]
	if !last.Decoded || last.Level != res.Level {
		t.Errorf("last outcome %+v inconsistent with result level %d", last, res.Level)
	}
	for _, o := range res.Outcomes[:len(res.Outcomes)-1] {
		if o.Decoded {
			t.Errorf("non-final outcome %+v marked decoded", o)
		}
	}
}
