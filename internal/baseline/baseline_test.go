package baseline

import (
	"context"
	"testing"

	"robustset"
	"robustset/internal/emd"
	"robustset/internal/grid"
	"robustset/internal/points"
	"robustset/internal/workload"
)

var testUniverse = points.Universe{Dim: 2, Delta: 1 << 16}

func noisyInstance(t *testing.T, n, k int, scale float64, seed uint64) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: testUniverse, Outliers: k,
		Noise: workload.NoiseUniform, Scale: scale, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func exactInstance(t *testing.T, n, k int, seed uint64) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		N: n, Universe: testUniverse, Outliers: k, Noise: workload.NoiseNone, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// exchange runs Exchange with a background context.
func exchange(strat robustset.Strategy, p robustset.Params, alice, bob []robustset.Point) (*robustset.SyncResult, robustset.TransferStats, error) {
	return Exchange(context.Background(), strat, p, alice, bob)
}

func messages(st robustset.TransferStats) int64 { return st.MsgsSent + st.MsgsRecv }

func TestAllReconcilersExactRegime(t *testing.T) {
	// With no noise, every scheme except estimate-first must deliver
	// S'_B = S_A exactly. Estimate-first picks its level from noisy
	// difference estimators, so it only promises EMD-closeness: it may
	// settle one level short of lossless and round by a cell radius.
	inst := exactInstance(t, 400, 8, 5)
	params := robustset.Params{Universe: testUniverse, Seed: 9, DiffBudget: 8}
	for _, strat := range []robustset.Strategy{
		robustset.Robust{}, robustset.Adaptive{}, robustset.Naive{},
		robustset.Rateless{},
	} {
		out, st, err := exchange(strat, params, inst.Alice, inst.Bob)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if _, ok := strat.(robustset.Adaptive); ok {
			if len(out.SPrime) != len(inst.Alice) {
				t.Errorf("%s: |S'_B| = %d, want %d", strat.Name(), len(out.SPrime), len(inst.Alice))
			}
			d, err := emd.Exact(inst.Alice, out.SPrime, points.L1)
			if err != nil {
				t.Fatal(err)
			}
			// At worst one level short of lossless: ≤ cellwidth·d per
			// recovered diff, far below any real data scale.
			if maxResidual := float64(out.Robust.CellWidth) * 2 * float64(out.Robust.DiffSize()); d > maxResidual {
				t.Errorf("%s: residual EMD %v exceeds one-level rounding bound %v", strat.Name(), d, maxResidual)
			}
		} else if !points.EqualMultisets(out.SPrime, inst.Alice) {
			t.Errorf("%s: S'_B != S_A in exact regime", strat.Name())
		}
		if st.Total() <= 0 || messages(st) <= 0 {
			t.Errorf("%s: implausible accounting %+v", strat.Name(), st)
		}
	}
}

func TestRobustBeatsExactOnCommunicationUnderNoise(t *testing.T) {
	// The paper's headline: under noise, exact sync transfers Θ(n) while
	// the robust sketch stays Õ(k). The one-shot sketch costs
	// O(k·logΔ·cellBytes) regardless of n, so its crossover against naive
	// transfer sits near n ≈ 1500 for these parameters; n = 4000 is
	// comfortably past it (the bench's E2 sweep charts the crossover).
	inst := noisyInstance(t, 4000, 8, 3, 21)
	params := robustset.Params{Universe: testUniverse, Seed: 31, DiffBudget: 8}

	robust, robustSt, err := exchange(robustset.Robust{}, params, inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	_, exactSt, err := exchange(robustset.Rateless{}, params, inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	_, naiveSt, err := exchange(robustset.Naive{}, params, inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if robustSt.Total() >= exactSt.Total() {
		t.Errorf("robust %dB not cheaper than exact sync %dB under noise", robustSt.Total(), exactSt.Total())
	}
	if robustSt.Total() >= naiveSt.Total() {
		t.Errorf("robust %dB not cheaper than naive %dB", robustSt.Total(), naiveSt.Total())
	}
	// And the quality must be real: EMD improves substantially (grid
	// estimate — exact EMD at n=1000 is too slow for a unit test).
	g, err := grid.New(testUniverse, 71)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := emd.GridApprox(inst.Alice, inst.Bob, g)
	after, _ := emd.GridApprox(inst.Alice, robust.SPrime, g)
	if after >= before {
		t.Errorf("robust reconciliation did not reduce EMD estimate: %v → %v", before, after)
	}
}

func TestEstimateFirstCheaperThanOneShot(t *testing.T) {
	// The estimate-first variant replaces log Δ tables with estimators
	// plus one table: about 10 KB of estimators here whatever k is, where
	// the one-shot sketch grows with k, so from moderate k up it is the
	// cheaper. The cell codec moved "moderate" from k = 2 to k ≈ 9 — it
	// took the k = 8 sketch from 22 195 B to 9 795 and the estimators,
	// which are not IBLTs, from 12 378 to 10 557 — so at k = 8
	// estimate-first is held to its own pre-codec bytes, and to being
	// the cheaper at k = 16.
	for _, k := range []int{8, 16} {
		inst := noisyInstance(t, 800, k, 3, 41)
		params := robustset.Params{Universe: testUniverse, Seed: 51, DiffBudget: k}
		one, oneSt, err := exchange(robustset.Robust{}, params, inst.Alice, inst.Bob)
		if err != nil {
			t.Fatal(err)
		}
		est, estSt, err := exchange(robustset.Adaptive{}, params, inst.Alice, inst.Bob)
		if err != nil {
			t.Fatal(err)
		}
		if est.Robust == nil || one.Robust == nil {
			t.Fatal("robust outcomes missing result details")
		}
		t.Logf("k=%d: estimate-first %dB, one-shot %dB", k, estSt.Total(), oneSt.Total())
		if k == 8 && estSt.Total() > 12378 {
			t.Errorf("k=8: estimate-first %dB, above its 12378B under fixed-width cells", estSt.Total())
		}
		if k > 8 && estSt.Total() >= oneSt.Total() {
			t.Errorf("k=%d: estimate-first %dB not cheaper than one-shot %dB", k, estSt.Total(), oneSt.Total())
		}
		if len(est.SPrime) != len(inst.Bob) {
			t.Errorf("k=%d: |S'_B| = %d, want %d", k, len(est.SPrime), len(inst.Bob))
		}
	}
}

func TestNaiveByteCount(t *testing.T) {
	inst := exactInstance(t, 256, 0, 91)
	_, st, err := exchange(robustset.Naive{}, robustset.Params{Universe: testUniverse}, inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	// 1 type byte + 4 count + n·16 payload + 4 framing.
	want := int64(1 + 4 + 256*16 + 4)
	if st.Total() != want {
		t.Errorf("naive bytes %d, want %d", st.Total(), want)
	}
}
