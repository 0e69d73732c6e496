package robustset

import (
	"io"
	"net"
	"net/http"

	"robustset/internal/metrics"
)

// Metrics is the module's observability registry: servers and
// replicators handed one (WithServerMetrics, WithReplicatorMetrics)
// increment named counters, gauges and latency
// histograms on their hot paths, and the registry renders them in the
// Prometheus text format — either programmatically (Snapshot,
// WritePrometheus) or on a debug listener's /metrics (Serve, Handler)
// that smoke tests and dashboards poll. One registry may be shared by any
// number of components; their counters aggregate.
//
// Well-known names:
//
//	server_conns_total                 connections accepted
//	server_sessions_total[:dataset]    sessions served, total and per dataset
//	server_session_errors_total        sessions that ended in an error
//	server_sessions_unchanged_total    sessions that ended at the handshake (equal roots)
//	server_sessions_cold_total         rateless and adaptive sessions that read the points, not the served state
//	dataset_points:dataset             current size of a published dataset
//	dataset_root_fingerprint:dataset   its root fingerprint; equal on equal datasets of one seed
//	server_bytes_in_total              connection bytes received (framing included)
//	server_bytes_out_total             connection bytes sent
//	server_mux_conns_total             connections negotiated to MUX1 framing
//	server_mux_streams_total           mux streams accepted
//	server_mux_streams_per_conn_max    most streams ever carried by one connection
//	mux_decode_failures_total          malformed mux frames observed
//	server_session_seconds             session latency histogram
//	replicator_rounds_total            anti-entropy rounds driven
//	replicator_session_errors_total    failed peer sessions
//	replicator_bytes_total             round wire traffic
//	replicator_round_seconds           round latency histogram
//
// Durable datasets (PublishDurable) add the storage-engine names:
//
//	store_wal_records_total            mutation batches appended to the log
//	store_wal_bytes_total              bytes appended to the log
//	store_fsync_seconds                log fsync latency histogram
//	store_snapshots_total              snapshots written
//	store_snapshot_seconds             snapshot write latency histogram
//	store_snapshot_bytes_total         snapshot bytes written
//	store_snapshot_errors_total        failed snapshot writes
//	store_recoveries_total             storage directories opened
//	store_replay_records_total         log records replayed at recovery
//	store_torn_truncations_total       torn log tails truncated at recovery
//	server_recovered_datasets_total    datasets rebuilt from disk state
type Metrics struct{ reg *metrics.Registry }

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics { return &Metrics{reg: metrics.New()} }

// registry unwraps m for internal plumbing; nil-safe (a nil *Metrics is
// a valid no-op sink).
func (m *Metrics) registry() *metrics.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Snapshot returns every counter and gauge as a flat name → value map;
// histograms are summarized as name_count and name_sum_ns.
func (m *Metrics) Snapshot() map[string]int64 { return m.registry().Snapshot() }

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// latency histograms as cumulative le-bucket series with _sum (seconds)
// and _count. Names of the form "family:dataset" or "family:k=v,..."
// become one family with a dataset label or the listed label pairs.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.registry().WritePrometheus(w) }

// Handler returns an http.Handler serving /metrics in Prometheus text
// format; every other path is 404.
func (m *Metrics) Handler() http.Handler { return m.registry().Handler() }

// Serve serves the debug endpoint on ln until the listener closes —
// typically on a loopback port, from its own goroutine:
//
//	ln, _ := net.Listen("tcp", "127.0.0.1:9090")
//	go m.Serve(ln)
func (m *Metrics) Serve(ln net.Listener) error { return m.registry().Serve(ln) }
