package protocol

import (
	"context"
	"net"
	"testing"

	"robustset/internal/core"
	"robustset/internal/points"
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
		aliceDone <- RunPushAlice(context.Background(), tr, params, inst.Alice)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewConn(conn)
	defer tr.Close()
	res, err := RunPushBob(context.Background(), tr, inst.Bob)
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
		_ = RunPushAlice(context.Background(), at, badParams, nil)
	}()
	_, err := RunPushBob(context.Background(), bt, nil)
	if err == nil {
		t.Fatal("bob succeeded against failing alice")
	}
}
