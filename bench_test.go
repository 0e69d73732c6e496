// Benchmarks over the paper's evaluation: one family per experiment
// E1–E11 (DESIGN.md "Benchmark harness" maps each to the `cmd/bench -mode
// paper` sweep, core-matrix column or test that records it). Each runs a
// point of its experiment at reduced scale and reports its headline
// quantity via b.ReportMetric, so `go test -bench=.` both exercises the
// full protocol pipelines and prints the reproduction's key numbers.
package robustset_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"testing"

	"robustset"
	"robustset/internal/baseline"
	"robustset/internal/core"
	"robustset/internal/emd"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
	"robustset/internal/workload"
)

var benchUniverse = points.Universe{Dim: 2, Delta: 1 << 20}

func benchInstance(b *testing.B, n, k int, noise float64) *workload.Instance {
	b.Helper()
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: benchUniverse, Outliers: k,
		Noise: workload.NoiseUniform, Scale: noise, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// exchange runs one in-process exchange of strat, failing b on error.
func exchange(b *testing.B, strat robustset.Strategy, p robustset.Params, inst *workload.Instance) (*robustset.SyncResult, int64) {
	b.Helper()
	res, st, err := baseline.Exchange(context.Background(), strat, p, inst.Alice, inst.Bob)
	if err != nil {
		b.Fatal(err)
	}
	return res, st.Total()
}

// runExchange executes strat once per iteration and reports mean bytes.
func runExchange(b *testing.B, strat robustset.Strategy, p robustset.Params, inst *workload.Instance) {
	b.Helper()
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, bytes = exchange(b, strat, p, inst)
	}
	b.ReportMetric(float64(bytes), "wire-bytes")
}

// --- E1: communication vs k ---

func BenchmarkE1CommVsK_RobustOneShot_K16(b *testing.B) {
	inst := benchInstance(b, 1024, 16, 4)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 16}
	runExchange(b, robustset.Robust{}, params, inst)
}

func BenchmarkE1CommVsK_RobustOneShot_K64(b *testing.B) {
	inst := benchInstance(b, 1024, 64, 4)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 64}
	runExchange(b, robustset.Robust{}, params, inst)
}

func BenchmarkE1CommVsK_ExactIBLT(b *testing.B) {
	inst := benchInstance(b, 1024, 16, 4)
	runExchange(b, robustset.ExactIBLT{}, robustset.Params{Universe: benchUniverse, Seed: 11}, inst)
}

func BenchmarkE1CommVsK_Naive(b *testing.B) {
	inst := benchInstance(b, 1024, 16, 4)
	runExchange(b, robustset.Naive{}, robustset.Params{Universe: benchUniverse}, inst)
}

// --- E2: communication vs n ---

func BenchmarkE2CommVsN_Robust_N512(b *testing.B) {
	inst := benchInstance(b, 512, 16, 4)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 16}
	runExchange(b, robustset.Robust{}, params, inst)
}

func BenchmarkE2CommVsN_Robust_N4096(b *testing.B) {
	inst := benchInstance(b, 4096, 16, 4)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 16}
	runExchange(b, robustset.Robust{}, params, inst)
}

// --- E3: approximation factor vs dimension ---

func benchApproxRatio(b *testing.B, d int) {
	u := points.Universe{Dim: d, Delta: 1 << 16}
	inst, err := workload.Generate(workload.Config{
		N: 128, Universe: u, Outliers: 4,
		Noise: workload.NoiseUniform, Scale: 2, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	params := core.Params{Universe: u, Seed: 7, DiffBudget: 4}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := exchange(b, robustset.Robust{}, params, inst)
		after, _ := emd.Exact(inst.Alice, out.SPrime, points.L1)
		floor, _ := emd.Partial(inst.Alice, inst.Bob, points.L1, 4)
		if floor < 1 {
			floor = 1
		}
		ratio = after / floor
	}
	b.ReportMetric(ratio, "emd-ratio")
	b.ReportMetric(ratio/float64(d), "emd-ratio/d")
}

func BenchmarkE3ApproxVsDim_D2(b *testing.B)  { benchApproxRatio(b, 2) }
func BenchmarkE3ApproxVsDim_D8(b *testing.B)  { benchApproxRatio(b, 8) }
func BenchmarkE3ApproxVsDim_D16(b *testing.B) { benchApproxRatio(b, 16) }

// --- E4: noise sweep ---

func benchNoise(b *testing.B, eps float64) {
	inst := benchInstance(b, 256, 8, eps)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 8}
	var robustBytes, exactBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, robustBytes = exchange(b, robustset.Robust{}, params, inst)
		_, exactBytes = exchange(b, robustset.ExactIBLT{}, robustset.Params{Universe: benchUniverse, Seed: 11}, inst)
	}
	b.ReportMetric(float64(robustBytes), "robust-bytes")
	b.ReportMetric(float64(exactBytes), "exact-bytes")
}

func BenchmarkE4NoiseSweep_Eps0(b *testing.B)  { benchNoise(b, 0) }
func BenchmarkE4NoiseSweep_Eps4(b *testing.B)  { benchNoise(b, 4) }
func BenchmarkE4NoiseSweep_Eps64(b *testing.B) { benchNoise(b, 64) }

// --- E5: IBLT decode threshold ---

func benchIBLTLoad(b *testing.B, alpha float64) {
	rng := rand.New(rand.NewPCG(5, 5))
	const diff = 64
	cells := int(alpha * diff)
	ok, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := iblt.New(iblt.Config{Cells: cells, HashCount: 4, KeyLen: 16, Seed: rng.Uint64()})
		if err != nil {
			b.Fatal(err)
		}
		var key [16]byte
		for j := 0; j < diff; j++ {
			u, v := rng.Uint64(), rng.Uint64()
			for l := 0; l < 8; l++ {
				key[l], key[8+l] = byte(u>>(8*l)), byte(v>>(8*l))
			}
			t.Insert(key[:])
		}
		if _, err := t.Decode(); err == nil {
			ok++
		}
		total++
	}
	b.ReportMetric(float64(ok)/float64(total), "decode-rate")
}

func BenchmarkE5IBLTThreshold_Load1_2(b *testing.B) { benchIBLTLoad(b, 1.2) }
func BenchmarkE5IBLTThreshold_Load1_5(b *testing.B) { benchIBLTLoad(b, 1.5) }
func BenchmarkE5IBLTThreshold_Load2_0(b *testing.B) { benchIBLTLoad(b, 2.0) }

// --- E6: level selection vs noise ---

func benchLevel(b *testing.B, eps float64) {
	inst := benchInstance(b, 512, 8, eps)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 8}
	sk, err := core.BuildSketch(params, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	var level int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Reconcile(sk, inst.Bob)
		if err != nil {
			b.Fatal(err)
		}
		level = res.Level
	}
	b.ReportMetric(float64(level), "decoded-level")
}

func BenchmarkE6LevelSelection_Eps1(b *testing.B)  { benchLevel(b, 1) }
func BenchmarkE6LevelSelection_Eps64(b *testing.B) { benchLevel(b, 64) }

// --- E7: runtime scaling (the classic ns/op benchmarks) ---

func benchEncode(b *testing.B, n int) {
	inst := benchInstance(b, n, 16, 4)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildSketch(params, inst.Alice); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "points")
}

func BenchmarkE7Runtime_Encode_N1000(b *testing.B)  { benchEncode(b, 1000) }
func BenchmarkE7Runtime_Encode_N8000(b *testing.B)  { benchEncode(b, 8000) }
func BenchmarkE7Runtime_Encode_N64000(b *testing.B) { benchEncode(b, 64000) }

func BenchmarkE7Runtime_Reconcile_N8000(b *testing.B) {
	inst := benchInstance(b, 8000, 16, 4)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 16}
	sk, err := core.BuildSketch(params, inst.Alice)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Reconcile(sk, inst.Bob); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: exact regime baselines ---

func BenchmarkE8ExactBaselines_CPI(b *testing.B) {
	inst := benchInstance(b, 1024, 8, 0)
	runExchange(b, robustset.CPI{Capacity: 20}, robustset.Params{Universe: benchUniverse, Seed: 13}, inst)
}

func BenchmarkE8ExactBaselines_ExactIBLT(b *testing.B) {
	inst := benchInstance(b, 1024, 8, 0)
	runExchange(b, robustset.ExactIBLT{}, robustset.Params{Universe: benchUniverse, Seed: 11}, inst)
}

func BenchmarkE8ExactBaselines_Robust(b *testing.B) {
	inst := benchInstance(b, 1024, 8, 0)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 8}
	runExchange(b, robustset.Robust{}, params, inst)
}

// --- E9: estimator accuracy (throughput of the estimators themselves) ---

func BenchmarkE9Estimators_BottomK(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	keys := make([][]byte, 4096)
	for i := range keys {
		k := make([]byte, 16)
		for j := range k {
			k[j] = byte(rng.Uint32())
		}
		keys[i] = k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := sketch.NewBottomK(128, 7)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			est.Add(k)
		}
	}
}

// --- E10: protocol variants ---

func BenchmarkE10Variants_OneShot(b *testing.B) {
	inst := benchInstance(b, 1024, 8, 4)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 8}
	runExchange(b, robustset.Robust{}, params, inst)
}

func BenchmarkE10Variants_EstimateFirst(b *testing.B) {
	inst := benchInstance(b, 1024, 8, 4)
	params := core.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 8}
	runExchange(b, robustset.Adaptive{}, params, inst)
}

// --- E11: design-choice ablations ---

func benchAblation(b *testing.B, q, capFactor int) {
	inst := benchInstance(b, 512, 16, 4)
	params := core.Params{
		Universe: benchUniverse, Seed: 7,
		DiffBudget: 16, HashCount: q, TableCapacity: capFactor * 16,
	}
	var level int
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk, err := core.BuildSketch(params, inst.Alice)
		if err != nil {
			b.Fatal(err)
		}
		bytes = sk.WireSize()
		res, err := core.Reconcile(sk, inst.Bob)
		if err != nil {
			b.Fatal(err)
		}
		level = res.Level
	}
	b.ReportMetric(float64(bytes), "sketch-bytes")
	b.ReportMetric(float64(level), "decoded-level")
}

func BenchmarkE11Ablation_Q3_Cap2(b *testing.B) { benchAblation(b, 3, 2) }
func BenchmarkE11Ablation_Q4_Cap1(b *testing.B) { benchAblation(b, 4, 1) }
func BenchmarkE11Ablation_Q4_Cap2(b *testing.B) { benchAblation(b, 4, 2) }
func BenchmarkE11Ablation_Q4_Cap4(b *testing.B) { benchAblation(b, 4, 4) }
func BenchmarkE11Ablation_Q5_Cap2(b *testing.B) { benchAblation(b, 5, 2) }

// --- public API micro-benchmarks ---

func BenchmarkPublicSketchMarshal(b *testing.B) {
	inst := benchInstance(b, 2048, 16, 4)
	params := robustset.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 16}
	sk, err := robustset.NewSketch(params, inst.Alice)
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

func BenchmarkPublicEMDExact_N128(b *testing.B) {
	inst := benchInstance(b, 128, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := robustset.EMD(inst.Alice, inst.Bob, robustset.L1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicEMDApprox_N4096(b *testing.B) {
	inst := benchInstance(b, 4096, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := robustset.EMDApprox(inst.Alice, inst.Bob, benchUniverse, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRatelessChurn20k is the ruler's exact_churn_durable op as a Go
// benchmark: a durable server holding 20 000 points, a loopback client
// holding the previous fetch's result, and per iteration one 32+32 churn
// cycle followed by one rateless Fetch that repairs it.
func BenchmarkRatelessChurn20k(b *testing.B) {
	const n, batch, period = 20000, 32, 64
	inst, err := workload.Generate(workload.Config{
		N: n + period/2*batch, Universe: benchUniverse, Noise: workload.NoiseNone, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool, initial := inst.Bob[:period*batch], inst.Bob[period/2*batch:]
	srv := robustset.NewServer(robustset.WithServerDataDir(b.TempDir()),
		robustset.WithServerFsync(robustset.SyncNone), robustset.WithServerSnapshotEvery(256))
	defer srv.Close()
	d, err := srv.PublishDurable("churn", robustset.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 84}, initial)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Close
	ctx := context.Background()
	cl, err := robustset.DialClient(ctx, ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	sess, err := cl.Session("churn", robustset.Rateless{})
	if err != nil {
		b.Fatal(err)
	}
	local := robustset.ClonePoints(initial)
	var wire int64
	cycle := func(i int) {
		add := pool[i%period*batch:][:batch]
		rem := pool[(i+period/2)%period*batch:][:batch]
		if err := errors.Join(d.AddBatch(add), d.RemoveBatch(rem)); err != nil {
			b.Fatal(err)
		}
		res, st, err := sess.Fetch(ctx, local)
		if err != nil {
			b.Fatal(err)
		}
		local, wire = res.SPrime, wire+st.Total()
	}
	cycle(0) // the first session builds whatever the server keeps
	wire = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		cycle(i)
	}
	b.StopTimer()
	if !robustset.EqualMultisets(local, d.Snapshot()) {
		b.Fatal("fetched set differs from the server's snapshot")
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
}

// BenchmarkAdaptiveFetch20k is the ruler's adaptive_noisy op as a Go
// benchmark: a server holding 20 000 points under levels 0–10, a loopback
// client holding a noisy copy with 64 outliers, one estimate-first Fetch
// per iteration with k = 1024 estimators. warm fetches an unchanged
// dataset, so every session after the first is answered from the
// estimator body the first left behind; cold puts one AddBatch and one
// RemoveBatch of 32 between fetches, so every session finds that body
// stale and is the stateless one over a snapshot.
func BenchmarkAdaptiveFetch20k(b *testing.B) {
	const n, batch = 20000, 32
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: benchUniverse, Outliers: 64, Noise: workload.NoiseUniform, Scale: 4, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	params := robustset.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 160}.WithLevels(0, 10)
	for _, cold := range []bool{false, true} {
		name := map[bool]string{false: "warm", true: "cold"}[cold]
		b.Run(name, func(b *testing.B) {
			srv := robustset.NewServer()
			defer srv.Close()
			d, err := srv.Publish("noisy", params, inst.Alice)
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Close
			ctx := context.Background()
			cl, err := robustset.DialClient(ctx, ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			opts := robustset.AdaptiveOptions{EstimatorK: 1024}
			sess, err := cl.Session("noisy", robustset.Adaptive{Options: opts})
			if err != nil {
				b.Fatal(err)
			}
			var wire int64
			fetch := func() {
				res, st, err := sess.Fetch(ctx, inst.Bob)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.SPrime) != n {
					b.Fatalf("result of %d points, want %d", len(res.SPrime), n)
				}
				wire += st.Total()
			}
			fetch() // the first session builds whatever the server keeps
			wire = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					// The same 32 points out and back in: the multiset, and so
					// the session's work, is the same every iteration.
					pts := inst.Alice[i%(n/batch)*batch:][:batch]
					if err := errors.Join(d.RemoveBatch(pts), d.AddBatch(pts)); err != nil {
						b.Fatal(err)
					}
				}
				fetch()
			}
			b.StopTimer()
			b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
		})
	}
}
