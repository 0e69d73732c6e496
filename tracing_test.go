package robustset_test

// Observability integration tests for session tracing: the wire-byte
// attribution contract (per-frame-type bytes sum exactly to the
// session's transfer accounting, for every strategy), the server-side
// capture pipeline (/metrics Prometheus text covering every registered
// family, /debug/traces slow capture, trace-derived metric families),
// and the replicator's round → peer-session trace tree.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"robustset"
	"robustset/internal/metrics"
)

// fetchTraced runs one traced session against addr and returns the
// result, the transfer accounting and the captured trace.
func fetchTraced(t *testing.T, addr string, dataset string, strat robustset.Strategy,
	local []robustset.Point) (*robustset.SyncResult, robustset.TransferStats, *robustset.SessionTrace) {
	t.Helper()
	var captured *robustset.SessionTrace
	res, stats, err := fetchOnce(t, addr, dataset, strat, local,
		robustset.WithSessionTrace(func(st *robustset.SessionTrace) { captured = st }))
	if err != nil {
		t.Fatalf("%s: %v", strat.Name(), err)
	}
	if captured == nil {
		t.Fatalf("%s: no trace delivered to the sink", strat.Name())
	}
	return res, stats, captured
}

// TestTraceByteAttributionSums is the acceptance assertion: for every
// strategy, the traced session's per-frame-type wire table must sum —
// bytes and message counts, per direction — to exactly the transfer
// accounting the transport reports. Nothing on the wire goes
// unattributed, and nothing is double-charged.
func TestTraceByteAttributionSums(t *testing.T) {
	srv := robustset.NewServer(WithTestLogger(t))
	sets := publishMany(t, srv, 1, 8900)
	addr := startServer(t, srv)
	var name string
	for n := range sets {
		name = n
	}
	_, bob := deterministicPair(8900, 120, 4, 2)

	for _, strat := range robustset.Strategies() {
		res, stats, snap := fetchTraced(t, addr.String(), name, strat, bob)
		if len(res.SPrime) != len(sets[name]) {
			t.Errorf("%s: result has %d points, want %d", strat.Name(), len(res.SPrime), len(sets[name]))
		}
		var inBytes, outBytes, inMsgs, outMsgs int64
		for _, f := range snap.Frames {
			switch f.Dir {
			case "in":
				inBytes += f.Bytes
				inMsgs += f.Msgs
			case "out":
				outBytes += f.Bytes
				outMsgs += f.Msgs
			default:
				t.Errorf("%s: frame row %s has direction %q", strat.Name(), f.Type, f.Dir)
			}
		}
		if inBytes != snap.BytesIn || outBytes != snap.BytesOut {
			t.Errorf("%s: frame rows sum to in=%d out=%d, snapshot totals in=%d out=%d",
				strat.Name(), inBytes, outBytes, snap.BytesIn, snap.BytesOut)
		}
		if snap.BytesIn != stats.BytesRecv || snap.BytesOut != stats.BytesSent {
			t.Errorf("%s: trace attributes in=%d out=%d bytes, transport counted recv=%d sent=%d",
				strat.Name(), snap.BytesIn, snap.BytesOut, stats.BytesRecv, stats.BytesSent)
		}
		if total := snap.TotalBytes(); total != stats.Total() {
			t.Errorf("%s: trace total %d bytes != transfer total %d", strat.Name(), total, stats.Total())
		}
		if inMsgs != stats.MsgsRecv || outMsgs != stats.MsgsSent {
			t.Errorf("%s: trace attributes %d/%d msgs, transport counted %d/%d",
				strat.Name(), inMsgs, outMsgs, stats.MsgsRecv, stats.MsgsSent)
		}
		if snap.Strategy != strat.Name() {
			t.Errorf("strategy label %q, want %q", snap.Strategy, strat.Name())
		}
		if snap.Dataset != name {
			t.Errorf("%s: dataset label %q, want %q", strat.Name(), snap.Dataset, name)
		}
		var hello bool
		for _, sp := range snap.Spans {
			hello = hello || sp.Name == "hello"
		}
		if !hello {
			t.Errorf("%s: trace has no hello span (spans: %+v)", strat.Name(), snap.Spans)
		}
	}
}

// TestServerObservabilityEndpoints drives traced traffic through a
// server exposing a debug listener and checks the whole exposition
// surface: /metrics must serve lintable Prometheus text naming every
// registered family (the trace-derived session_* families included),
// and /debug/traces must have captured the sessions the byte-threshold
// policy marks as expensive.
func TestServerObservabilityEndpoints(t *testing.T) {
	m := robustset.NewMetrics()
	tl := robustset.NewTraceLog(robustset.WithByteThreshold(1))
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m),
		robustset.WithServerTracing(tl), robustset.WithServerMetricsListener(mln))
	sets := publishMany(t, srv, 2, 9400)
	addr := startServer(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, bob := deterministicPair(9400, 120, 4, 2)
	for name := range sets {
		for _, strat := range []robustset.Strategy{robustset.Robust{}, robustset.Rateless{}} {
			cs, err := cl.Session(name, strat)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := cs.Fetch(ctx, bob); err != nil {
				t.Fatalf("%s over %s: %v", name, strat.Name(), err)
			}
		}
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + mln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return body
	}

	// The server folds a session's trace into the registry after the
	// client's Fetch has already returned, so settle until the derived
	// samples appear before asserting on the exposition.
	wanted := []string{
		`session_wire_bytes_total{frame="ACCEPT",dir="out"}`,
		`session_wire_bytes_total{frame="SKETCH",dir="out"}`,
		`session_rounds_total{strategy="rateless"}`,
	}
	var promText string
	deadline := time.Now().Add(5 * time.Second)
	for {
		promText = string(get("/metrics"))
		settled := true
		for _, want := range wanted {
			settled = settled && strings.Contains(promText, want)
		}
		if settled || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := metrics.LintPrometheus(strings.NewReader(promText)); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
	// Every registered metric must appear: reduce each snapshot key to
	// its family name (strip the label suffix and the histogram summary
	// suffixes) and require the family in the exposition.
	for key := range m.Snapshot() {
		family := key
		if i := strings.IndexByte(family, ':'); i >= 0 {
			family = family[:i]
		}
		for _, suffix := range []string{"_count", "_sum_ns", "_p50_ns", "_p99_ns"} {
			family = strings.TrimSuffix(family, suffix)
		}
		if !strings.Contains(promText, family) {
			t.Errorf("registered metric %q (family %q) missing from /metrics", key, family)
		}
	}
	// The trace-derived families only exist because tracing is on: wire
	// attribution per frame type, and the serving side's round counts.
	for _, want := range wanted {
		if !strings.Contains(promText, want) {
			t.Errorf("/metrics lacks the trace-derived sample %s", want)
		}
	}

	var traces struct {
		Recent []*robustset.SessionTrace `json:"recent"`
		Slow   []*robustset.SessionTrace `json:"slow"`
	}
	if err := json.Unmarshal(get("/debug/traces"), &traces); err != nil {
		t.Fatalf("/debug/traces is not valid JSON: %v", err)
	}
	if len(traces.Slow) == 0 {
		t.Fatal("byte-threshold 1 captured no slow traces")
	}
	for _, snap := range traces.Slow {
		if snap.Role != "server" || snap.Strategy == "" || len(snap.Frames) == 0 {
			t.Errorf("captured trace lacks identity or wire table: role=%q strategy=%q frames=%d",
				snap.Role, snap.Strategy, len(snap.Frames))
		}
	}
}

// TestMetricInventoryDocumented drives every instrumented subsystem —
// traced mux serving, durable storage with churn, a replication round —
// against one shared registry, then requires each live metric family to
// appear in DESIGN.md's metric inventory table. A new metric without a
// documented meaning fails here.
func TestMetricInventoryDocumented(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := robustset.NewMetrics()
	tl := robustset.NewTraceLog()
	srv := robustset.NewServer(WithTestLogger(t), robustset.WithServerMetrics(m),
		robustset.WithServerTracing(tl), robustset.WithServerDataDir(t.TempDir()))
	sets := publishMany(t, srv, 1, 9900)
	alice, bob := deterministicPair(9901, 120, 4, 2)
	d, err := srv.PublishDurable("durable", robustset.Params{Universe: testU, Seed: 7, DiffBudget: 8}, alice)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(robustset.Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := robustset.DialClient(ctx, addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for name := range sets {
		for _, strat := range []robustset.Strategy{robustset.Robust{}, robustset.Rateless{}} {
			cs, err := cl.Session(name, strat)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := cs.Fetch(ctx, bob); err != nil {
				t.Fatal(err)
			}
		}
	}
	srvB := robustset.NewServer(WithTestLogger(t))
	publishMany(t, srvB, 1, 9950)
	addrB := startServer(t, srvB)
	rep, err := robustset.NewReplicator(srv,
		[]robustset.Peer{{Name: "b", Addr: addrB.String()}},
		robustset.WithReplicatorMetrics(m), robustset.WithReplicatorTracing(robustset.NewTraceLog()))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.RunRound(ctx); err != nil {
		t.Fatal(err)
	}

	// Settle until the traced sessions' derived families have been
	// folded in (the server records them after the client returns).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := m.Snapshot()["session_wire_bytes_total:frame=SKETCH,dir=out"]; ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	families := map[string]bool{}
	for key := range m.Snapshot() {
		family := key
		if i := strings.IndexByte(family, ':'); i >= 0 {
			family = family[:i]
		}
		for _, suffix := range []string{"_count", "_sum_ns", "_p50_ns", "_p99_ns"} {
			family = strings.TrimSuffix(family, suffix)
		}
		families[family] = true
	}
	if len(families) < 15 {
		t.Fatalf("only %d families registered — the exercise stack lost coverage", len(families))
	}
	for family := range families {
		if !strings.Contains(string(doc), "`"+family+"`") {
			t.Errorf("metric family %q is live but undocumented in DESIGN.md's inventory", family)
		}
	}
}

// TestReplicatorTraceTree asserts a replication round records one trace
// tree: the round at the root with its outcome stats, one peer-session
// child per reconciled dataset carrying the negotiated strategy, the
// peer name and its own phase spans and wire attribution.
func TestReplicatorTraceTree(t *testing.T) {
	srvA := robustset.NewServer(WithTestLogger(t))
	setsA := publishMany(t, srvA, 3, 9700)
	srvB := robustset.NewServer(WithTestLogger(t))
	publishMany(t, srvB, 3, 9800) // same names, diverged content
	addrB := startServer(t, srvB)

	tl := robustset.NewTraceLog()
	rep, err := robustset.NewReplicator(srvA,
		[]robustset.Peer{{Name: "b", Addr: addrB.String()}},
		robustset.WithReplicatorTracing(tl))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := rep.RunRound(ctx); err != nil {
		t.Fatal(err)
	}

	recent := tl.Recent()
	if len(recent) != 1 {
		t.Fatalf("trace log holds %d traces after one round, want 1", len(recent))
	}
	round := recent[0]
	if round.Role != "round" {
		t.Fatalf("root trace role %q, want \"round\"", round.Role)
	}
	if n, ok := round.Stat("sessions"); !ok || n != int64(len(setsA)) {
		t.Errorf("round records %d sessions (ok=%v), want %d", n, ok, len(setsA))
	}
	if len(round.Children) != len(setsA) {
		t.Fatalf("round has %d peer-session children, want %d", len(round.Children), len(setsA))
	}
	var childBytes int64
	for _, child := range round.Children {
		if child.Role != "peer-session" {
			t.Errorf("child role %q, want \"peer-session\"", child.Role)
		}
		if child.Peer != "b" {
			t.Errorf("child peer %q, want \"b\"", child.Peer)
		}
		if child.Strategy == "" || child.Dataset == "" {
			t.Errorf("child lacks identity: strategy=%q dataset=%q", child.Strategy, child.Dataset)
		}
		if child.BytesIn+child.BytesOut <= 0 {
			t.Errorf("child %s attributes no wire bytes", child.Dataset)
		}
		var hello bool
		for _, sp := range child.Spans {
			hello = hello || sp.Name == "hello"
		}
		if !hello {
			t.Errorf("child %s has no hello span", child.Dataset)
		}
		childBytes += child.BytesIn + child.BytesOut
	}
	if total := round.TotalBytes(); total < childBytes {
		t.Errorf("round total %d bytes below its children's %d", total, childBytes)
	}
}
