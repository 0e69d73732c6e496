package robustset

import (
	"io"
	"net/http"
	"time"

	"robustset/internal/trace"
)

// SessionTrace is the completed record of one traced reconciliation
// session: its phase spans (handshake, estimate, per-round table or cell
// exchanges, repair/apply) with durations and attributes, its accumulated
// stats (estimated vs. actual difference, rounds, decode retries), and a
// per-frame-type wire-byte attribution whose totals equal the session's
// transfer accounting. Server-side traces of multiplexed connections and
// replicator rounds nest their per-stream sessions as Children, so one
// round renders as one tree.
type SessionTrace = trace.Snapshot

// TraceLog retains completed session traces for inspection: a bounded
// ring of the most recent traces plus a second ring that captures slow or
// wire-expensive sessions even after many fast ones displaced them from
// the recent ring. A nil *TraceLog is a valid no-op sink — components
// accept one unconditionally and tracing costs nothing until a log is
// attached (WithServerTracing, WithReplicatorTracing).
type TraceLog struct {
	r *trace.Ring
}

// slowSession is the latency from which a session is captured as slow.
const slowSession = 100 * time.Millisecond

// traceLogConfig collects the NewTraceLog options.
type traceLogConfig struct {
	capacity  int
	slowBytes int64
}

// TraceLogOption configures a TraceLog.
type TraceLogOption func(*traceLogConfig)

// WithTraceCapacity sets how many completed traces each ring retains.
// Default: 64.
func WithTraceCapacity(n int) TraceLogOption {
	return func(c *traceLogConfig) { c.capacity = n }
}

// WithByteThreshold marks sessions that moved at least n wire bytes
// (both directions, children included) as expensive, capturing them in
// the slow ring. 0 disables byte-based capture. Default: 1 MiB.
func WithByteThreshold(n int64) TraceLogOption {
	return func(c *traceLogConfig) { c.slowBytes = n }
}

// NewTraceLog builds a trace log with the given capture policy.
func NewTraceLog(opts ...TraceLogOption) *TraceLog {
	cfg := traceLogConfig{capacity: 64, slowBytes: 1 << 20}
	for _, opt := range opts {
		opt(&cfg)
	}
	return &TraceLog{r: trace.NewRing(cfg.capacity, slowSession, cfg.slowBytes)}
}

// ring unwraps the log for internal plumbing; nil-safe.
func (t *TraceLog) ring() *trace.Ring {
	if t == nil {
		return nil
	}
	return t.r
}

// add records a completed trace; nil-safe on both sides.
func (t *TraceLog) add(s *SessionTrace) {
	if r := t.ring(); r != nil && s != nil {
		r.Add(s)
	}
}

// Recent returns the retained traces oldest-first.
func (t *TraceLog) Recent() []*SessionTrace {
	if r := t.ring(); r != nil {
		return r.Recent()
	}
	return nil
}

// Slow returns the traces captured by the slow/expensive policy,
// oldest-first.
func (t *TraceLog) Slow() []*SessionTrace {
	if r := t.ring(); r != nil {
		return r.Slow()
	}
	return nil
}

// WriteJSON renders the log as one JSON object with "recent" and "slow"
// arrays of trace trees.
func (t *TraceLog) WriteJSON(w io.Writer) error {
	if r := t.ring(); r != nil {
		return r.WriteJSON(w)
	}
	_, err := io.WriteString(w, `{"recent":[],"slow":[]}`+"\n")
	return err
}

// Handler returns an http.Handler serving the JSON document — the
// /debug/traces endpoint a server with WithServerTracing exposes on its
// metrics listener.
func (t *TraceLog) Handler() http.Handler {
	if r := t.ring(); r != nil {
		return r.Handler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = (*TraceLog)(nil).WriteJSON(w)
	})
}
