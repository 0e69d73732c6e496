package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"robustset"
	"robustset/internal/pointio"
	"robustset/internal/points"
)

// TestGenLocalWorkflow drives the CLI's primary workflow end to end:
// generate a base file, derive a noisy copy, reconcile them, and verify
// the written result.
func TestGenLocalWorkflow(t *testing.T) {
	dir := t.TempDir()
	bob := filepath.Join(dir, "bob.txt")
	alice := filepath.Join(dir, "alice.txt")
	sprime := filepath.Join(dir, "sprime.txt")

	if err := cmdGen([]string{"-out", bob, "-n", "300", "-dim", "2", "-delta", "65536", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGen([]string{"-out", alice, "-from", bob, "-noise", "3", "-outliers", "7", "-seed", "6"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLocal([]string{"-alice", alice, "-bob", bob, "-k", "7", "-out", sprime}); err != nil {
		t.Fatal(err)
	}

	u, got, err := readFile(sprime)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("result has %d points, want 300", len(got))
	}
	if err := u.CheckSet(got); err != nil {
		t.Fatal(err)
	}
}

func TestGenAdaptiveLocal(t *testing.T) {
	dir := t.TempDir()
	bob := filepath.Join(dir, "bob.txt")
	alice := filepath.Join(dir, "alice.txt")
	if err := cmdGen([]string{"-out", bob, "-n", "200", "-dim", "2", "-delta", "16384", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGen([]string{"-out", alice, "-from", bob, "-noise", "2", "-outliers", "4", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLocal([]string{"-alice", alice, "-bob", bob, "-k", "4", "-proto", "adaptive"}); err != nil {
		t.Fatal(err)
	}
}

func TestGenClusters(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "c.txt")
	if err := cmdGen([]string{"-out", out, "-n", "100", "-dim", "3", "-delta", "1024", "-clusters", "2", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	u, pts, err := pointio.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if u.Dim != 3 || u.Delta != 1024 || len(pts) != 100 {
		t.Fatalf("unexpected file contents: %+v, %d points", u, len(pts))
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := cmdGen([]string{"-n", "10"}); err == nil {
		t.Error("gen without -out accepted")
	}
	if err := cmdLocal([]string{"-alice", "nope.txt"}); err == nil {
		t.Error("local without -bob accepted")
	}
	if err := cmdLocal([]string{"-alice", "nope.txt", "-bob", "nope2.txt"}); err == nil {
		t.Error("local with missing files accepted")
	}
	// Universe mismatch is rejected.
	a := filepath.Join(dir, "a.txt")
	b := filepath.Join(dir, "b.txt")
	if err := cmdGen([]string{"-out", a, "-n", "10", "-dim", "2", "-delta", "1024", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGen([]string{"-out", b, "-n", "10", "-dim", "3", "-delta", "1024", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLocal([]string{"-alice", a, "-bob", b}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	_ = points.Point{} // keep the import honest if assertions change
}

// TestClusterDemo smoke-tests the anti-entropy demo: a small 3-node
// sharded cluster, and an unsharded 2-node one under random selection,
// must converge within the deadline.
func TestClusterDemo(t *testing.T) {
	if err := cmdCluster([]string{"-nodes", "3", "-n", "120", "-extra", "4",
		"-shards", "2", "-deadline", "30s"}); err != nil {
		t.Fatalf("sharded cluster demo: %v", err)
	}
	if err := cmdCluster([]string{"-nodes", "2", "-n", "120", "-extra", "4",
		"-shards", "1", "-select", "random", "-deadline", "30s"}); err != nil {
		t.Fatalf("random-selection cluster demo: %v", err)
	}
}

// TestClusterKillRestart runs the crash-recovery demo on durable nodes,
// sharded and unsharded: one node dies mid-churn, restarts from its data
// directory and must catch up.
func TestClusterKillRestart(t *testing.T) {
	for _, shards := range []string{"2", "1"} {
		if err := cmdCluster([]string{"-nodes", "3", "-n", "120", "-extra", "4", "-shards", shards,
			"-data", t.TempDir(), "-fsync", "none", "-kill-restart", "-churn", "16", "-deadline", "30s"}); err != nil {
			t.Fatalf("-shards %s: %v", shards, err)
		}
	}
}

// TestClusterValidation covers the demo's flag validation.
func TestClusterValidation(t *testing.T) {
	if err := cmdCluster([]string{"-nodes", "1"}); err == nil {
		t.Error("one-node cluster accepted")
	}
	if err := cmdCluster([]string{"-select", "bogus"}); err == nil {
		t.Error("unknown selection policy accepted")
	}
	if err := cmdCluster([]string{"-nodes", "64", "-delta", "64"}); err == nil {
		t.Error("delta too small for the extra stripes accepted")
	}
}

// TestServeMetricsAddrInUse asserts the graceful failure mode of
// -metrics-addr: with the port already taken, serve must report the
// conflict and exit non-zero instead of running without observability.
func TestServeMetricsAddrInUse(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.txt")
	if err := cmdGen([]string{"-out", data, "-n", "20", "-dim", "2", "-delta", "1024", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = cmdServe([]string{"-data", data, "-listen", "127.0.0.1:0",
		"-metrics-addr", ln.Addr().String()})
	if err == nil {
		t.Fatal("serve with an occupied metrics port succeeded")
	}
	if !strings.Contains(err.Error(), "metrics listener") {
		t.Fatalf("error %q does not name the metrics listener", err)
	}
}

// TestPullTrace drives pull -trace (the explain path) against a live
// server and checks the printed breakdown carries the phase spans and
// the wire table.
func TestPullTrace(t *testing.T) {
	dir := t.TempDir()
	aliceFile := filepath.Join(dir, "demo.txt")
	bobFile := filepath.Join(dir, "bob.txt")
	if err := cmdGen([]string{"-out", aliceFile, "-n", "150", "-dim", "2", "-delta", "65536", "-seed", "11"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGen([]string{"-out", bobFile, "-from", aliceFile, "-noise", "2", "-outliers", "3", "-seed", "12"}); err != nil {
		t.Fatal(err)
	}
	u, alice, err := readFile(aliceFile)
	if err != nil {
		t.Fatal(err)
	}
	srv := robustset.NewServer()
	if _, err := srv.Publish("demo", robustset.Params{Universe: u, Seed: 42, DiffBudget: 16}, alice); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// Capture stdout across the pull; the trace breakdown prints there.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	pullErr := cmdPull([]string{"-data", bobFile, "-connect", ln.Addr().String(),
		"-dataset", "demo", "-proto", "adaptive", "-trace"})
	w.Close()
	os.Stdout = old
	outBytes, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if pullErr != nil {
		t.Fatalf("pull -trace: %v\noutput:\n%s", pullErr, outBytes)
	}
	out := string(outBytes)
	for _, want := range []string{"client session #", "phases:", "estimate", "wire:", "HELLO", "total: in=", "strategy=robust-adaptive"} {
		if !strings.Contains(out, want) {
			t.Errorf("pull -trace output lacks %q:\n%s", want, out)
		}
	}
	// The last line is the counterfactual: the session's bytes against
	// sending the 150 reconciled points of 16 bytes each.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var wire, naive int64
	var ratio float64
	if _, err := fmt.Sscanf(lines[len(lines)-1], "wire %d B · naive %d B (%f ×)", &wire, &naive, &ratio); err != nil ||
		naive != 150*16 || wire <= 0 || math.Abs(ratio-float64(wire)/float64(naive)) > 0.006 {
		t.Errorf("pull -trace ends with %q (%v), want the wire bytes against naive %d B", lines[len(lines)-1], err, 150*16)
	}
}
