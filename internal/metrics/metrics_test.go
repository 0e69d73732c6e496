package metrics

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	r.Counter("sessions_total").Inc()
	r.Counter("sessions_total").Add(4)
	if got := r.Counter("sessions_total").Value(); got != 5 {
		t.Fatalf("counter: %d, want 5", got)
	}
	g := r.Gauge("streams_per_conn_max")
	g.SetMax(3)
	g.SetMax(9)
	g.SetMax(7) // must not lower
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge max: %d, want 9", got)
	}
	h := r.Histogram("round_seconds")
	h.Observe(2 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	h.Observe(3 * time.Second)
	if h.Count() != 3 {
		t.Fatalf("hist count: %d, want 3", h.Count())
	}
	if h.Sum() < 3*time.Second {
		t.Fatalf("hist sum too small: %v", h.Sum())
	}

	snap := r.Snapshot()
	if snap["sessions_total"] != 5 || snap["streams_per_conn_max"] != 9 || snap["round_seconds_count"] != 3 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if names := r.sortedNames(); len(names) != 3 {
		t.Fatalf("sortedNames: %v", names)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").SetMax(7)
	r.Histogram("z").Observe(time.Second)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry exported values")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestNilRegistryAccessorsDoNotAllocate(t *testing.T) {
	var r *Registry
	if got := testing.AllocsPerRun(100, func() {
		r.Counter("c").Inc()
		r.Gauge("g").Set(1)
		r.Histogram("h").Observe(time.Millisecond)
	}); got != 0 {
		t.Fatalf("nil-registry accessors allocate %v objects per op, want 0", got)
	}
	// The accessors hand out shared singletons, not fresh objects.
	if r.Counter("a") != r.Counter("b") {
		t.Fatal("nil-registry counters are not shared")
	}
	if r.Gauge("a") != r.Gauge("b") {
		t.Fatal("nil-registry gauges are not shared")
	}
	if r.Histogram("a") != r.Histogram("b") {
		t.Fatal("nil-registry histograms are not shared")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 100 observations at ~3ms land in the (2ms, 4ms] bucket; the median
	// must interpolate inside it and the extremes must clamp to its
	// bounds.
	for i := 0; i < 100; i++ {
		h.Observe(3 * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 2*time.Millisecond || p50 > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want within (2ms, 4ms]", p50)
	}
	if lo, hi := h.Quantile(-1), h.Quantile(2); lo < 2*time.Millisecond || hi > 4*time.Millisecond {
		t.Fatalf("clamped quantiles escaped the bucket: %v %v", lo, hi)
	}
	// A bimodal distribution: p50 stays in the low mode, p99 reaches the
	// high mode, and the estimate is monotone in q.
	h2 := newHistogram()
	for i := 0; i < 90; i++ {
		h2.Observe(3 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(3 * time.Second)
	}
	if p := h2.Quantile(0.5); p > 4*time.Millisecond {
		t.Fatalf("bimodal p50 = %v, want <= 4ms", p)
	}
	if p := h2.Quantile(0.99); p < 2*time.Second {
		t.Fatalf("bimodal p99 = %v, want >= 2s", p)
	}
	if h2.Quantile(0.5) > h2.Quantile(0.9) || h2.Quantile(0.9) > h2.Quantile(0.99) {
		t.Fatal("quantile estimate is not monotone in q")
	}
	// Overflow observations (past the last finite bucket) are credited
	// the largest finite bound, not +Inf.
	h3 := newHistogram()
	h3.Observe(10 * time.Minute)
	if p := h3.Quantile(0.99); p <= 0 || time.Duration(p) > 2*time.Minute {
		t.Fatalf("overflow quantile = %v, want the largest finite bound", p)
	}
}

func TestSnapshotExportsQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("round_seconds")
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	snap := r.Snapshot()
	if snap["round_seconds_p50_ns"] <= 0 || snap["round_seconds_p99_ns"] <= 0 {
		t.Fatalf("flat snapshot missing quantile keys: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "round_seconds_count 10\n") {
		t.Fatalf("exposition missing the histogram count:\n%s", buf.String())
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(j))
				r.Histogram("h").Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("concurrent counter: %d, want 8000", got)
	}
}

// TestJSONEndpoint checks the served endpoint: /metrics is lintable
// Prometheus text carrying the registry's samples, and the JSON document
// /debug/vars once served is gone.
func TestJSONEndpoint(t *testing.T) {
	r := New()
	r.Counter("mux_decode_failures_total").Add(0)
	r.Counter("server_sessions_total").Add(12)
	r.Histogram("session_seconds").Observe(5 * time.Millisecond)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = r.Serve(ln) }()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if err := LintPrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{"server_sessions_total 12\n", "session_seconds_count 1\n"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, body)
		}
	}
	if code, _ := get("/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("/debug/vars: status %d, want 404", code)
	}
}
