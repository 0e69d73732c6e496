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

func BenchmarkE1CommVsK_Rateless(b *testing.B) {
	inst := benchInstance(b, 1024, 16, 4)
	runExchange(b, robustset.Rateless{}, robustset.Params{Universe: benchUniverse, Seed: 11}, inst)
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
		_, exactBytes = exchange(b, robustset.Rateless{}, robustset.Params{Universe: benchUniverse, Seed: 11}, inst)
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

func BenchmarkE8ExactBaselines_Rateless(b *testing.B) {
	inst := benchInstance(b, 1024, 8, 0)
	runExchange(b, robustset.Rateless{}, robustset.Params{Universe: benchUniverse, Seed: 11}, inst)
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
// cycle followed by one rateless Fetch that repairs it. warm is the
// ruler's op: every fetch after the first opens warm from the 64-key
// difference the one before decoded. cold makes the client forget that
// before every fetch, so each opens on the 32-cell head and keys its
// points. rounds/op counts the round trips a fetch waits out, the hello's
// included; keyed/op the share of fetches that keyed the client's points
// for some of their cells instead of subtracting the cells kept from the
// fetch before.
func BenchmarkRatelessChurn20k(b *testing.B) {
	const n, batch, period = 20000, 32, 64
	inst, err := workload.Generate(workload.Config{
		N: n + period/2*batch, Universe: benchUniverse, Noise: workload.NoiseNone, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	pool, initial := inst.Bob[:period*batch], inst.Bob[period/2*batch:]
	for _, cold := range []bool{false, true} {
		name := map[bool]string{false: "warm", true: "cold"}[cold]
		b.Run(name, func(b *testing.B) {
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
			var keyed int64
			sess, err := cl.Session("churn", robustset.Rateless{}, robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
				if kept, _ := st.Stat("kept_cells"); kept == 0 || lastFrontier(st) > kept {
					keyed++
				}
			}))
			if err != nil {
				b.Fatal(err)
			}
			local := robustset.ClonePoints(initial)
			var wire, rounds int64
			cycle := func(i int) {
				add := pool[i%period*batch:][:batch]
				rem := pool[(i+period/2)%period*batch:][:batch]
				if err := errors.Join(d.AddBatch(add), d.RemoveBatch(rem)); err != nil {
					b.Fatal(err)
				}
				if cold {
					robustset.ForgetHints(cl, "churn")
				}
				res, st, err := sess.Fetch(ctx, local)
				if err != nil {
					b.Fatal(err)
				}
				// Every message but the closing DONE waits for an answer.
				local, wire, rounds = res.SPrime, wire+st.Total(), rounds+st.MsgsSent-1
			}
			cycle(0) // the first session builds whatever the server keeps
			wire, rounds, keyed = 0, 0, 0
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
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(keyed)/float64(b.N), "keyed/op")
		})
	}
}

// BenchmarkRobustFetch20k is the ruler's robust_noisy op as a Go
// benchmark: a server holding 20 000 points under all 21 levels of the
// universe, a loopback client holding a noisy copy with 64 outliers, one
// one-shot Fetch per iteration. warm is the ruler's op: every fetch after
// the first asks for the window of the levels around the one the last
// chose, and subtracts the tables the last fetch kept of the unchanged
// local set. cold makes the client forget its hint before every fetch, so
// each gets the full sketch and keys its points. warm-moved hands every
// fetch the local set with one point moved by one unit, a different point
// each time, so it opens on the window but misses the kept tables and
// keys its points. tables-parsed/op counts the level tables the client's
// SKETCHes carried, keyed/op the sessions that kept no table.
func BenchmarkRobustFetch20k(b *testing.B) {
	const n = 20000
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: benchUniverse, Outliers: 64, Noise: workload.NoiseUniform, Scale: 4, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	params := robustset.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 160}
	for _, name := range []string{"warm", "cold", "warm-moved"} {
		b.Run(name, func(b *testing.B) {
			srv := robustset.NewServer()
			defer srv.Close()
			if _, err := srv.Publish("noisy", params, inst.Alice); err != nil {
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
			var tables, keyed int64
			count := robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
				if lo, ok := st.Stat("window_lo"); ok {
					hi, _ := st.Stat("window_hi")
					tables += hi - lo + 1
				} else {
					tables += int64(params.Universe.Levels() + 1)
				}
				if kept, _ := st.Stat("kept_levels"); kept == 0 {
					keyed++
				}
			})
			sess, err := cl.Session("noisy", robustset.Robust{}, count)
			if err != nil {
				b.Fatal(err)
			}
			// local is Bob's set, in warm-moved a clone of it in which the
			// fetch moves one point by one unit and the next puts it back.
			local, moved := inst.Bob, 0
			if name == "warm-moved" {
				local = robustset.ClonePoints(inst.Bob)
			}
			var wire int64
			var first *robustset.SyncResult
			fetch := func() {
				switch name {
				case "cold":
					robustset.ForgetHints(cl, "noisy")
				case "warm-moved":
					local[moved%n][0] ^= 1
					local[(moved+n-1)%n][0] = inst.Bob[(moved+n-1)%n][0]
					moved++
				}
				res, st, err := sess.Fetch(ctx, local)
				if err != nil {
					b.Fatal(err)
				}
				if first == nil {
					first = res
				} else if res.Robust.Level != first.Robust.Level || len(res.SPrime) != len(first.SPrime) {
					b.Fatalf("fetch chose level %d (%d points), the first %d (%d points)",
						res.Robust.Level, len(res.SPrime), first.Robust.Level, len(first.SPrime))
				}
				wire += st.Total()
			}
			fetch() // the first session marshals the blob the server caches
			wire, tables, keyed = 0, 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch()
			}
			b.StopTimer()
			b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
			b.ReportMetric(float64(tables)/float64(b.N), "tables-parsed/op")
			b.ReportMetric(float64(keyed)/float64(b.N), "keyed/op")
		})
	}
}

// BenchmarkReplicatorRound16 is the ruler's cluster_quiescent op as a Go
// benchmark: two nodes publishing the same 32 000 points in 16 shards,
// and a replicator on the first that pulls from the second with two
// workers, one RunRound per iteration. converged is the ruler's op: the
// round is one roots exchange that settles every shard. one-diverged adds
// a fresh point on the peer before every round, so the round runs the
// exchange and the full session of that point's shard. streams/op counts
// the streams the peer accepted (its server_mux_streams_total).
func BenchmarkReplicatorRound16(b *testing.B) {
	const shards, perShard = 16, 2000
	inst, err := workload.Generate(workload.Config{
		N: shards * perShard, Universe: benchUniverse, Noise: workload.NoiseNone, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	params := robustset.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 16}
	for _, name := range []string{"converged", "one-diverged"} {
		b.Run(name, func(b *testing.B) {
			m := robustset.NewMetrics()
			local, remote := robustset.NewServer(), robustset.NewServer(robustset.WithServerMetrics(m))
			defer local.Close()
			defer remote.Close()
			if _, err := local.PublishSharded("cluster", params, inst.Bob, shards); err != nil {
				b.Fatal(err)
			}
			peer, err := remote.PublishSharded("cluster", params, inst.Bob, shards)
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go func() { _ = remote.Serve(ln) }() // returns ErrServerClosed on Close
			rep, err := robustset.NewReplicator(local, []robustset.Peer{{Name: "peer", Addr: ln.Addr().String()}},
				robustset.WithReplicatorWorkers(2))
			if err != nil {
				b.Fatal(err)
			}
			defer rep.Close()
			ctx := context.Background()
			added := 0
			round := func() int64 {
				if name == "one-diverged" {
					// Outside the generated points' range: always fresh.
					added++
					if err := peer.Add(robustset.Point{benchUniverse.Delta - 1, int64(added)}); err != nil {
						b.Fatal(err)
					}
				}
				st, err := rep.RunRound(ctx)
				if err != nil || st.Errors != 0 || st.Sessions != shards || st.Converged != (name == "converged") {
					b.Fatalf("round %+v, %v", st, err)
				}
				return st.Bytes
			}
			round() // dials the peer
			streams := m.Snapshot()["server_mux_streams_total"]
			var wire int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wire += round()
			}
			b.StopTimer()
			b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
			b.ReportMetric(float64(m.Snapshot()["server_mux_streams_total"]-streams)/float64(b.N), "streams/op")
		})
	}
}

// BenchmarkAdaptiveFetch20k is the ruler's adaptive_noisy op as a Go
// benchmark: a server holding 20 000 points under levels 0–10, a loopback
// client holding a noisy copy with 64 outliers, one estimate-first Fetch
// per iteration with k = 1024 estimators. warm fetches an unchanged
// dataset with an unchanged local set, so every session after the first
// is answered from the estimators and the level-table reply the first
// left cached, and subtracts the estimators and table the client kept.
// cold puts one AddBatch and one RemoveBatch of 32 between fetches, so
// every session finds the server's cache dropped and builds the levels it
// asks for from the Maintainer. warm-moved hands every fetch the local set
// with one point moved by one unit, a different point each time, so the
// client misses its kept state and keys its points. None reads the
// server's points: server_sessions_cold_total stays 0. keyed/op counts the
// sessions that kept nothing.
func BenchmarkAdaptiveFetch20k(b *testing.B) {
	const n, batch = 20000, 32
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: benchUniverse, Outliers: 64, Noise: workload.NoiseUniform, Scale: 4, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	params := robustset.Params{Universe: benchUniverse, Seed: 7, DiffBudget: 160}.WithLevels(0, 10)
	for _, name := range []string{"warm", "cold", "warm-moved"} {
		b.Run(name, func(b *testing.B) {
			m := robustset.NewMetrics()
			srv := robustset.NewServer(robustset.WithServerMetrics(m))
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
			var keyed int64
			count := robustset.WithSessionTrace(func(st *robustset.SessionTrace) {
				if kept, _ := st.Stat("kept_levels"); kept == 0 {
					keyed++
				}
			})
			opts := robustset.AdaptiveOptions{EstimatorK: 1024}
			sess, err := cl.Session("noisy", robustset.Adaptive{Options: opts}, count)
			if err != nil {
				b.Fatal(err)
			}
			// local is Bob's set, in warm-moved a clone of it in which the
			// fetch moves one point by one unit and the next puts it back.
			local, moved := inst.Bob, 0
			if name == "warm-moved" {
				local = robustset.ClonePoints(inst.Bob)
			}
			var wire int64
			fetch := func() {
				if name == "warm-moved" {
					local[moved%n][0] ^= 1
					local[(moved+n-1)%n][0] = inst.Bob[(moved+n-1)%n][0]
					moved++
				}
				res, st, err := sess.Fetch(ctx, local)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.SPrime) != n {
					b.Fatalf("result of %d points, want %d", len(res.SPrime), n)
				}
				wire += st.Total()
			}
			fetch() // the first session builds whatever either end keeps
			wire, keyed = 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if name == "cold" {
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
			b.ReportMetric(float64(keyed)/float64(b.N), "keyed/op")
			if got := m.Snapshot()["server_sessions_cold_total"]; got != 0 {
				b.Fatalf("server_sessions_cold_total = %d: an adaptive session read the points", got)
			}
		})
	}
}
