package baseline

import (
	"context"
	"net"
	"testing"

	"robustset/internal/core"
	"robustset/internal/emd"
	"robustset/internal/grid"
	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/transport"
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

func TestAllReconcilersExactRegime(t *testing.T) {
	// With no noise, every scheme except estimate-first must deliver
	// S'_B = S_A exactly. Estimate-first picks its level from noisy
	// difference estimators, so it only promises EMD-closeness: it may
	// settle one level short of lossless and round by a cell radius.
	inst := exactInstance(t, 400, 8, 5)
	params := core.Params{Universe: testUniverse, Seed: 9, DiffBudget: 8}
	recs := []Reconciler{
		RobustOneShot{Params: params},
		RobustEstimateFirst{Params: params},
		Naive{Universe: testUniverse},
		ExactIBLT{Config: protocol.ExactConfig{Universe: testUniverse, Seed: 11}},
		CPISync{Config: protocol.CPIConfig{Universe: testUniverse, Seed: 13, Capacity: 40}},
	}
	for _, r := range recs {
		out, err := r.Run(inst.Alice, inst.Bob)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if r.Name() == "robust-estimate" {
			if len(out.SPrime) != len(inst.Alice) {
				t.Errorf("%s: |S'_B| = %d, want %d", r.Name(), len(out.SPrime), len(inst.Alice))
			}
			d, err := emd.Exact(inst.Alice, out.SPrime, points.L1)
			if err != nil {
				t.Fatal(err)
			}
			// At worst one level short of lossless: ≤ cellwidth·d per
			// recovered diff, far below any real data scale.
			if maxResidual := float64(out.Robust.CellWidth) * 2 * float64(out.Robust.DiffSize()); d > maxResidual {
				t.Errorf("%s: residual EMD %v exceeds one-level rounding bound %v", r.Name(), d, maxResidual)
			}
		} else if !points.EqualMultisets(out.SPrime, inst.Alice) {
			t.Errorf("%s: S'_B != S_A in exact regime", r.Name())
		}
		if out.BytesTransferred() <= 0 || out.Messages() <= 0 {
			t.Errorf("%s: implausible accounting %+v", r.Name(), out.BobStats)
		}
	}
}

func TestRobustBeatsExactOnCommunicationUnderNoise(t *testing.T) {
	// The paper's headline: under noise, exact sync transfers Θ(n) while
	// the robust sketch stays Õ(k). The one-shot sketch costs
	// O(k·logΔ·cellBytes) regardless of n, so its crossover against naive
	// transfer sits near n ≈ 1500 for these parameters; n = 4000 is
	// comfortably past it (E2 charts the crossover itself).
	inst := noisyInstance(t, 4000, 8, 3, 21)
	params := core.Params{Universe: testUniverse, Seed: 31, DiffBudget: 8}

	robust, err := RobustOneShot{Params: params}.Run(inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactIBLT{Config: protocol.ExactConfig{Universe: testUniverse, Seed: 33}}.Run(inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Naive{Universe: testUniverse}.Run(inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if robust.BytesTransferred() >= exact.BytesTransferred() {
		t.Errorf("robust %dB not cheaper than exact sync %dB under noise",
			robust.BytesTransferred(), exact.BytesTransferred())
	}
	if robust.BytesTransferred() >= naive.BytesTransferred() {
		t.Errorf("robust %dB not cheaper than naive %dB", robust.BytesTransferred(), naive.BytesTransferred())
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
		params := core.Params{Universe: testUniverse, Seed: 51, DiffBudget: k}
		one, err := RobustOneShot{Params: params}.Run(inst.Alice, inst.Bob)
		if err != nil {
			t.Fatal(err)
		}
		est, err := RobustEstimateFirst{Params: params}.Run(inst.Alice, inst.Bob)
		if err != nil {
			t.Fatal(err)
		}
		if est.Robust == nil || one.Robust == nil {
			t.Fatal("robust outcomes missing result details")
		}
		t.Logf("k=%d: estimate-first %dB, one-shot %dB", k, est.BytesTransferred(), one.BytesTransferred())
		if k == 8 && est.BytesTransferred() > 12378 {
			t.Errorf("k=8: estimate-first %dB, above its 12378B under fixed-width cells", est.BytesTransferred())
		}
		if k > 8 && est.BytesTransferred() >= one.BytesTransferred() {
			t.Errorf("k=%d: estimate-first %dB not cheaper than one-shot %dB",
				k, est.BytesTransferred(), one.BytesTransferred())
		}
		if len(est.SPrime) != len(inst.Bob) {
			t.Errorf("k=%d: |S'_B| = %d, want %d", k, len(est.SPrime), len(inst.Bob))
		}
	}
}

func TestCPICapacityExceededSurfaces(t *testing.T) {
	inst := exactInstance(t, 200, 30, 61) // 60 diffs > capacity 10
	_, err := CPISync{Config: protocol.CPIConfig{Universe: testUniverse, Seed: 71, Capacity: 10}}.
		Run(inst.Alice, inst.Bob)
	if err == nil {
		t.Fatal("over-capacity CPI sync succeeded")
	}
}

func TestExactIBLTRetryPath(t *testing.T) {
	// Start with a hopeless slack so the first table stalls and the retry
	// doubling has to kick in.
	inst := exactInstance(t, 300, 40, 81)
	cfg := protocol.ExactConfig{Universe: testUniverse, Seed: 91, Slack: 0.3, MaxRetries: 6}
	out, err := ExactIBLT{Config: cfg}.Run(inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if !points.EqualMultisets(out.SPrime, inst.Alice) {
		t.Error("retry path did not converge to S_A")
	}
	if out.Messages() <= 4 {
		t.Errorf("expected retries (> 4 messages), got %d", out.Messages())
	}
}

func TestNaiveByteCount(t *testing.T) {
	inst := exactInstance(t, 256, 0, 91)
	out, err := Naive{Universe: testUniverse}.Run(inst.Alice, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	// 1 type byte + 4 count + n·16 payload + 4 framing.
	want := int64(1 + 4 + 256*16 + 4)
	if out.BytesTransferred() != want {
		t.Errorf("naive bytes %d, want %d", out.BytesTransferred(), want)
	}
}

func TestRobustOverRealTCP(t *testing.T) {
	// End-to-end over a real socket: the wire format must survive TCP
	// segmentation, not just the in-memory pipe.
	inst := noisyInstance(t, 300, 5, 2, 101)
	params := core.Params{Universe: testUniverse, Seed: 111, DiffBudget: 5}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	aliceDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			aliceDone <- err
			return
		}
		tr := transport.NewConn(conn)
		defer tr.Close()
		aliceDone <- protocol.RunPushAlice(context.Background(), tr, params, inst.Alice)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewConn(conn)
	defer tr.Close()
	res, err := protocol.RunPushBob(context.Background(), tr, inst.Bob)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-aliceDone; err != nil {
		t.Fatal(err)
	}
	if len(res.SPrime) != len(inst.Bob) {
		t.Errorf("|S'_B| = %d over TCP, want %d", len(res.SPrime), len(inst.Bob))
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	// Alice fed garbage parameters must surface a RemoteError at Bob, not
	// a hang.
	at, bt := transport.Pair()
	defer at.Close()
	defer bt.Close()
	go func() {
		badParams := core.Params{Universe: points.Universe{Dim: 0, Delta: 4}, DiffBudget: 1}
		_ = protocol.RunPushAlice(context.Background(), at, badParams, nil)
	}()
	_, err := protocol.RunPushBob(context.Background(), bt, nil)
	if err == nil {
		t.Fatal("bob succeeded against failing alice")
	}
}
