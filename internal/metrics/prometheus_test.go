package metrics

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSplitName(t *testing.T) {
	cases := []struct{ in, family, labels string }{
		{"server_conns_total", "server_conns_total", ""},
		{"server_sessions_total:sensors/a", "server_sessions_total", `dataset="sensors/a"`},
		{"replicator_sessions_total:peer=b,outcome=ok", "replicator_sessions_total", `peer="b",outcome="ok"`},
		{"session_wire_bytes_total:frame=STRATA,dir=in", "session_wire_bytes_total", `frame="STRATA",dir="in"`},
		// A dataset name containing '=' in only some chunks falls back to
		// the legacy whole-suffix dataset form.
		{"x_total:a=1,b", "x_total", `dataset="a=1,b"`},
	}
	for _, c := range cases {
		family, labels := splitName(c.in)
		if family != c.family || labels != c.labels {
			t.Errorf("splitName(%q) = %q, %q; want %q, %q", c.in, family, labels, c.family, c.labels)
		}
	}
}

func TestHistogramQuantilePinned(t *testing.T) {
	// A known distribution with exact interpolation answers. 100
	// observations at 1.5ms all land in the (1ms, 2ms] bucket, so
	// Quantile(q) must interpolate to exactly 1ms + q·1ms.
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Microsecond)
	}
	pin := func(got time.Duration, wantSec float64) {
		t.Helper()
		want := wantSec * 1e9
		if math.Abs(float64(got)-want) > want*1e-3 {
			t.Fatalf("quantile = %v, want %v ±0.1%%", got, time.Duration(want))
		}
	}
	pin(h.Quantile(0.5), 0.0015)
	pin(h.Quantile(0.99), 0.00199)
	pin(h.Quantile(1.0), 0.002)

	// Split across buckets with a gap: 50 in (1,2]ms, 50 in (4,5]ms.
	// p50 exhausts the first mode exactly (→ its upper bound 2ms); p75
	// is halfway through the second (→ 4.5ms).
	h2 := newHistogram()
	for i := 0; i < 50; i++ {
		h2.Observe(1500 * time.Microsecond)
		h2.Observe(5 * time.Millisecond)
	}
	pin(h2.Quantile(0.5), 0.002)
	pin(h2.Quantile(0.75), 0.0045)

	// Below a millisecond the ladder keeps its resolution: a loopback
	// session served from state (~150µs) and a converged handshake (~15µs)
	// each interpolate inside a bucket no wider than its lower bound, and
	// anything under the first bound interpolates from zero.
	for _, tc := range []struct {
		obs      time.Duration
		p50, p99 float64
	}{
		{150 * time.Microsecond, 150e-6, 199e-6},
		{15 * time.Microsecond, 15e-6, 19.9e-6},
		{900 * time.Microsecond, 850e-6, 899e-6}, // on a bound: the bucket it closes
		{3 * time.Microsecond, 5e-6, 9.9e-6},
	} {
		h := newHistogram()
		for i := 0; i < 100; i++ {
			h.Observe(tc.obs)
		}
		pin(h.Quantile(0.5), tc.p50)
		pin(h.Quantile(0.99), tc.p99)
	}
	// Fast and slow sessions no longer share bucket 0: the median of 90
	// fast ones is not dragged to the millisecond scale by 10 slow ones.
	h3 := newHistogram()
	for i := 0; i < 90; i++ {
		h3.Observe(120 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h3.Observe(12 * time.Millisecond)
	}
	if p := h3.Quantile(0.5); p < 100*time.Microsecond || p > 200*time.Microsecond {
		t.Fatalf("p50 of a fast majority = %v, want within (100µs, 200µs]", p)
	}
	if p := h3.Quantile(0.99); p < 10*time.Millisecond || p > 20*time.Millisecond {
		t.Fatalf("p99 of a slow tail = %v, want within (10ms, 20ms]", p)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("server_conns_total").Add(3)
	r.Counter("server_sessions_total:sensors/a").Add(7)
	r.Counter("replicator_sessions_total:peer=b,outcome=ok").Add(2)
	r.Gauge("server_mux_streams_per_conn_max").Set(16)
	h := r.Histogram("server_session_seconds")
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(100 * time.Second) // past the last finite bound → only +Inf grows

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE server_conns_total counter\nserver_conns_total 3\n",
		"# TYPE replicator_sessions_total counter\nreplicator_sessions_total{peer=\"b\",outcome=\"ok\"}",
		"# TYPE server_mux_streams_per_conn_max gauge\nserver_mux_streams_per_conn_max 16\n",
		`server_sessions_total{dataset="sensors/a"} 7`,
		"# TYPE server_session_seconds histogram",
		"server_session_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Labeled samples within a family must render the same label *set*;
	// splitName sorts nothing, so pin the literal order only where the
	// registered name fixes it.
	_ = out

	// The full cumulative bucket ladder: every configured boundary plus
	// +Inf must appear, counts must be monotone, and the +Inf bucket must
	// equal _count — the exposition-gap fix under test.
	var cum []int64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "server_session_seconds_bucket{le=") {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			cum = append(cum, v)
		}
	}
	if len(cum) != len(histBuckets) {
		t.Fatalf("%d bucket lines, want every boundary (%d)", len(cum), len(histBuckets))
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative buckets not monotone: %v", cum)
		}
	}
	if cum[len(cum)-1] != 3 {
		t.Fatalf("+Inf bucket = %d, want _count = 3", cum[len(cum)-1])
	}
	if !strings.Contains(out, `server_session_seconds_bucket{le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	// 3ms + 3ms + 100s in seconds.
	if !strings.Contains(out, "server_session_seconds_sum 100.006") {
		t.Fatalf("sum not in seconds:\n%s", out)
	}

	// The writer's own output must pass the linter.
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, out)
	}

	// A nil registry renders an empty (but non-erroring) exposition.
	var nilReg *Registry
	buf.Reset()
	if err := nilReg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry exposition: %q", buf.String())
	}
}

func TestLintPrometheusRejects(t *testing.T) {
	cases := []struct{ name, in string }{
		{"no samples", "# TYPE a counter\n"},
		{"sample without TYPE", "a_total 3\n"},
		{"bad value", "# TYPE a counter\na bogus\n"},
		{"bad metric name", "# TYPE 9a counter\n9a 1\n"},
		{"bad label name", "# TYPE a counter\na{9b=\"x\"} 1\n"},
		{"unterminated labels", "# TYPE a counter\na{x=\"y\" 1\n"},
		{"unknown type", "# TYPE a banana\na 1\n"},
	}
	for _, c := range cases {
		if err := LintPrometheus(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: lint accepted %q", c.name, c.in)
		}
	}
	good := "# TYPE a counter\na{x=\"y,z=\\\"q\\\"\"} 1\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.5\nh_count 2\n"
	if err := LintPrometheus(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

func TestHandlerPaths(t *testing.T) {
	r := New()
	r.Counter("server_conns_total").Inc()
	h := r.Handler()

	get := func(path string) (string, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Body.String(), rec.Header().Get("Content-Type")
	}
	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "# TYPE server_conns_total counter") {
		t.Fatalf("/metrics served %q (%s)", body, ct)
	}
	if err := LintPrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	for _, path := range []string{"/debug/vars", "/", "/anything"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, rec.Code)
		}
	}
}
