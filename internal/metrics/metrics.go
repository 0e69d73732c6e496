// Package metrics is the module's lightweight observability registry:
// named counters, gauges and latency histograms that servers, clients
// and replicators increment on their hot paths (atomics, no allocation),
// exported in the Prometheus text format on an optional debug listener
// so smoke tests and dashboards can assert on real counters.
//
// Names are flat strings by convention "subsystem_quantity_unit", with
// per-dataset variants appending ":" and the dataset name
// (e.g. "server_sessions_total:sensors/a").
package metrics

import (
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 with a monotone-max helper.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax raises the gauge to n if n is larger — the "high-water mark"
// update pattern (e.g. most streams ever carried by one connection).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the upper bounds (seconds) of the latency histogram,
// log-linear: 1, 2, … 9 times every power of ten from 10µs to 10s, then
// +Inf. A session answered from served state takes about 100µs and a
// stalled round a minute; both land in a bucket no wider than its lower
// bound. It is the one definition Observe, Quantile and the Prometheus
// exposition read.
var histBuckets = func() []float64 {
	var b []float64
	for decade := 10; decade <= 10_000_000; decade *= 10 { // microseconds
		for m := 1; m <= 9; m++ {
			b = append(b, float64(m*decade)/1e6)
		}
	}
	return append(b, math.Inf(1))
}()

// Histogram accumulates duration observations into the fixed histBuckets,
// plus count and sum, so percentile estimates survive the exposition.
type Histogram struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets []atomic.Int64
}

func newHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Int64, len(histBuckets))}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	// The first bound ≥ d; +Inf is one, so the index is always in range.
	h.buckets[sort.SearchFloat64s(histBuckets, d.Seconds())].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Quantile estimates the q-th quantile (q in [0,1]) of the observed
// durations by locating the bucket holding the target rank and
// interpolating linearly inside it. The estimate is off by at most the
// bucket's width, is monotone in q and cheap — good enough for the p50
// and p99 the debug endpoint reports. Observations that
// overflowed every finite bucket are credited the largest finite bound.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range histBuckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			hi := histBuckets[i]
			lo := 0.0
			if i > 0 {
				lo = histBuckets[i-1]
			}
			if math.IsInf(hi, 1) {
				// No upper bound to interpolate toward; report the last
				// finite boundary rather than inventing a value.
				return secondsToDuration(lo)
			}
			frac := (rank - float64(cum)) / float64(n)
			return secondsToDuration(lo + (hi-lo)*frac)
		}
		cum += n
	}
	return secondsToDuration(histBuckets[len(histBuckets)-2])
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Registry is a concurrent name → metric map. The zero value is not
// usable; construct with New. A nil *Registry is a valid no-op sink:
// Counter/Gauge/Histogram return metrics that are never exported, so
// instrumented code paths need no nil checks.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gaugs map[string]*Gauge
	hists map[string]*Histogram
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gaugs: make(map[string]*Gauge),
		hists: make(map[string]*Histogram),
	}
}

// Shared no-op sinks handed out by nil-Registry accessors. They absorb
// writes (harmless atomic bumps nobody reads) so the metrics-disabled
// serving path costs zero allocations per observation instead of a
// fresh object per accessor call.
var (
	noopCounter   = &Counter{}
	noopGauge     = &Gauge{}
	noopHistogram = newHistogram()
)

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return noopCounter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return noopGauge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gaugs[name]
	if !ok {
		g = &Gauge{}
		r.gaugs[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return noopHistogram
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every counter and gauge as a flat name → value map
// (histograms are summarized as name_count / name_sum_ns /
// name_p50_ns / name_p99_ns) — the form assertions in tests and smoke
// runs consume.
func (r *Registry) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		out[name] = c.Value()
	}
	for name, g := range r.gaugs {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+"_count"] = h.Count()
		out[name+"_sum_ns"] = h.Sum().Nanoseconds()
		out[name+"_p50_ns"] = h.Quantile(0.50).Nanoseconds()
		out[name+"_p99_ns"] = h.Quantile(0.99).Nanoseconds()
	}
	return out
}

// Handler returns the registry's debug handler: "/metrics" serves the
// Prometheus text exposition; every other path is 404.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/metrics" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Serve serves the debug endpoint on ln until the listener closes.
// Closing the listener is a complete shutdown: accepted keep-alive
// connections and their handler goroutines are reaped before Serve
// returns, so callers that `defer ln.Close()` leak nothing.
func (r *Registry) Serve(ln net.Listener) error {
	return ServeHandler(ln, r.Handler())
}

// ServeHandler serves h on ln with the debug-listener semantics Serve
// documents — the server may compose the registry handler with other
// debug endpoints (e.g. /debug/traces) on one listener.
func ServeHandler(ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	err := srv.Serve(ln)
	// Serve returns once ln closes, but the http.Server still holds any
	// keep-alive connections a poller left open; Close reaps them.
	_ = srv.Close()
	return err
}

// sortedNames is kept for tests that want deterministic iteration.
func (r *Registry) sortedNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.ctrs)+len(r.gaugs)+len(r.hists))
	for n := range r.ctrs {
		names = append(names, n)
	}
	for n := range r.gaugs {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
