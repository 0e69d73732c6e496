package core

import (
	"math/rand/v2"
	"testing"

	"robustset/internal/points"
	"robustset/internal/workload"
)

func benchWorkload(b *testing.B, n int) (*workload.Instance, Params) {
	return benchWorkloadIn(b, n, points.Universe{Dim: 2, Delta: 1 << 20})
}

// wideUniverse is E3's d = 8 row at Δ = 2^16: 8 × 17 = 136-bit Morton
// codes, three words.
var wideUniverse = points.Universe{Dim: 8, Delta: 1 << 16}

func benchWorkloadIn(b *testing.B, n int, u points.Universe) (*workload.Instance, Params) {
	b.Helper()
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: u, Outliers: 16,
		Noise: workload.NoiseUniform, Scale: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst, Params{Universe: u, Seed: 7, DiffBudget: 16}
}

func BenchmarkBuildSketch4096(b *testing.B) {
	inst, p := benchWorkload(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSketch(p, inst.Alice); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(4096, "points")
}

func BenchmarkBuildSketch100k(b *testing.B) {
	inst, p := benchWorkload(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSketch(p, inst.Alice); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100000, "points")
}

func BenchmarkBuildSketch100kSequential(b *testing.B) {
	inst, p := benchWorkload(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSketchParallel(p, inst.Alice, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100000, "points")
}

func BenchmarkNewMaintainer100k(b *testing.B) {
	benchNewMaintainer(b, points.Universe{Dim: 2, Delta: 1 << 20})
}

func BenchmarkNewMaintainer100kWide(b *testing.B) { benchNewMaintainer(b, wideUniverse) }

func benchNewMaintainer(b *testing.B, u points.Universe) {
	inst, p := benchWorkloadIn(b, 100000, u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMaintainer(p, inst.Alice); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconcile4096(b *testing.B) {
	inst, p := benchWorkload(b, 4096)
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconcile(sk, inst.Bob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaintainerAdd(b *testing.B) {
	inst, p := benchWorkload(b, 1024)
	m, err := NewMaintainer(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	pts := inst.Bob
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Add(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaintainerAddRemove(b *testing.B) {
	inst, p := benchWorkload(b, 1024)
	m, err := NewMaintainer(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	pt := points.Point{12345, 67890}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Add(pt); err != nil {
			b.Fatal(err)
		}
		if err := m.Remove(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchMarshal(b *testing.B) {
	inst, p := benchWorkload(b, 4096)
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

// The benchmarks below run at the ruler's size (benchmark/workloads.go):
// n = 20 000 in d = 2, Δ = 2^20, noise ±4, 64 outliers, DiffBudget 160,
// and the adaptive workload's estimator shape (k = 1024, levels 0..10).

func rulerWorkload(b *testing.B, n int) (*workload.Instance, Params) {
	return rulerWorkloadIn(b, n, points.Universe{Dim: 2, Delta: 1 << 20})
}

func rulerWorkloadIn(b *testing.B, n int, u points.Universe) (*workload.Instance, Params) {
	b.Helper()
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: u, Outliers: 64,
		Noise: workload.NoiseUniform, Scale: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst, Params{Universe: u, Seed: 7, DiffBudget: 160}
}

// BenchmarkSketchUnmarshal20k is the ruler's core.sketch_unmarshal_ms:
// the 21-level sketch of the headline regime through the cell codec.
func BenchmarkSketchUnmarshal20k(b *testing.B) {
	inst, p := rulerWorkload(b, 20000)
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := new(Sketch).UnmarshalBinary(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconcile20k(b *testing.B) {
	inst, p := rulerWorkload(b, 20000)
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconcile(sk, inst.Bob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconcileEqual2k is one shard session of a quiescent cluster
// round: equal sets, decoded at the first level tried.
func BenchmarkReconcileEqual2k(b *testing.B) {
	inst, p := rulerWorkload(b, 2000)
	p.DiffBudget = 16
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconcile(sk, inst.Alice); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelEstimators20k(b *testing.B) {
	inst, p := rulerWorkload(b, 20000)
	p = p.WithLevels(0, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LevelEstimators(p, inst.Alice, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainerChurn20k is one add of a fresh point and one remove
// of a present one at n = 20 000, the set size held steady: the
// mutations of the ruler's churn workload. The Wide variant runs them in
// wideUniverse.
func BenchmarkMaintainerChurn20k(b *testing.B) {
	benchMaintainerChurn(b, points.Universe{Dim: 2, Delta: 1 << 20})
}

func BenchmarkMaintainerChurn20kWide(b *testing.B) { benchMaintainerChurn(b, wideUniverse) }

func benchMaintainerChurn(b *testing.B, u points.Universe) {
	inst, p := rulerWorkloadIn(b, 20000, u)
	m, err := NewMaintainer(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	current := points.Clone(inst.Alice)
	rng := rand.New(rand.NewPCG(1, 2))
	fresh := make([]points.Point, 4096)
	for i := range fresh {
		fresh[i] = make(points.Point, u.Dim)
		for j := range fresh[i] {
			fresh[i][j] = rng.Int64N(u.Delta)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := fresh[i%len(fresh)]
		if err := m.Add(pt); err != nil {
			b.Fatal(err)
		}
		j := rng.IntN(len(current))
		if err := m.Remove(current[j]); err != nil {
			b.Fatal(err)
		}
		current[j] = pt
	}
}

// BenchmarkMaintainerLevelTable20k is the table an adaptive session's
// level request builds under the dataset lock at the ruler's size: level
// 10, capacity 466.
func BenchmarkMaintainerLevelTable20k(b *testing.B) {
	inst, p := rulerWorkload(b, 20000)
	m, err := NewMaintainer(p, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.BuildLevelTable(10, 466); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMortonOrder20k(b *testing.B) {
	inst, p := rulerWorkload(b, 20000)
	p, err := p.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	g, err := gridFor(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if presort(g, inst.Alice).len() != len(inst.Alice) {
			b.Fatal("the Morton order lost codes")
		}
	}
}

// BenchmarkRepair20k is a warm robust fetch's client work once the level
// is known, at the ruler's noisy shape: ReconcileLevelWith on prebuilt
// level-10 tables — a table copy, the subtraction, the peel and the
// repair that turns the decoded difference into S'_B.
func BenchmarkRepair20k(b *testing.B) {
	inst, p := rulerWorkload(b, 20000)
	v, err := NewView(p, inst.Bob)
	if err != nil {
		b.Fatal(err)
	}
	capacity := v.Params().TableCapacity
	alice, err := BuildLevelTable(p, inst.Alice, 10, capacity)
	if err != nil {
		b.Fatal(err)
	}
	mine, err := v.BuildLevelTable(10, capacity)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ReconcileLevelWith(alice, mine, 10); err != nil {
			b.Fatal(err)
		}
	}
}
