package robustset

import (
	"context"
	"net"

	"robustset/internal/points"
	"robustset/internal/protocol"
	"robustset/internal/transport"
)

// This file keeps the original free-function surface alive as thin
// wrappers over the Session/Strategy API. Each wrapper builds the
// equivalent Session and delegates, so the wire traffic is byte-identical
// to the new surface (a property the parity tests assert) and the
// functions inherit nothing-extra semantics: no handshake, no
// cancellation (context.Background()), one exchange per call.
//
// New code should use NewSession / Server directly.

// TransferStats reports the bytes and messages an endpoint exchanged
// during a connection-oriented reconciliation.
type TransferStats = transport.Stats

// AdaptiveOptions tunes the estimate-first protocol (see PullAdaptive and
// the Adaptive strategy).
type AdaptiveOptions = protocol.EstimateOpts

// ExactConfig parameterizes the exact IBLT synchronization comparator.
type ExactConfig = protocol.ExactConfig

// CPIConfig parameterizes the characteristic-polynomial comparator.
type CPIConfig = protocol.CPIConfig

// mustSession builds the Session a deprecated wrapper delegates to.
// The only constructible failure is a nil strategy, which the wrappers
// never produce.
func mustSession(strategy Strategy, opts ...Option) *Session {
	s, err := NewSession(strategy, opts...)
	if err != nil {
		panic("robustset: " + err.Error())
	}
	return s
}

// Push runs Alice's side of the one-shot robust protocol over conn: one
// message carrying the full multiresolution sketch.
//
// Deprecated: use NewSession(Robust{}, WithParams(p)) and Session.Serve,
// which adds context cancellation and deadlines.
func Push(conn net.Conn, p Params, pts []Point) (TransferStats, error) {
	return mustSession(Robust{}, WithParams(p)).Serve(context.Background(), conn, pts)
}

// PushSketch sends an already-built sketch as the one-shot protocol's
// single message, without re-encoding.
//
// Deprecated: use Session.ServeSketch, or a Server with a published
// dataset, which maintains the sketch for you.
func PushSketch(conn net.Conn, s *Sketch) (TransferStats, error) {
	return mustSession(Robust{}).ServeSketch(context.Background(), conn, s)
}

// Pull runs Bob's side of the one-shot robust protocol over conn.
//
// Deprecated: use NewSession(Robust{}) and Session.Fetch.
func Pull(conn net.Conn, local []Point) (*Result, TransferStats, error) {
	res, stats, err := mustSession(Robust{}).Fetch(context.Background(), conn, local)
	if err != nil {
		return nil, stats, err
	}
	return res.Robust, stats, nil
}

// PushAdaptive serves Alice's side of the estimate-first protocol: tiny
// per-level difference estimators first, then exactly one level table
// sized to the estimated difference (plus retries if Bob asks).
//
// Deprecated: use NewSession(Adaptive{}, WithParams(p)) and Session.Serve.
func PushAdaptive(conn net.Conn, p Params, pts []Point) (TransferStats, error) {
	return mustSession(Adaptive{}, WithParams(p)).Serve(context.Background(), conn, pts)
}

// PullAdaptive drives Bob's side of the estimate-first protocol.
//
// Deprecated: use NewSession(Adaptive{Options: opts}, WithParams(p)) and
// Session.Fetch.
func PullAdaptive(conn net.Conn, p Params, local []Point, opts AdaptiveOptions) (*Result, TransferStats, error) {
	s, err := NewSession(Adaptive{Options: opts}, WithParams(p))
	if err != nil {
		return nil, TransferStats{}, err
	}
	res, stats, err := s.Fetch(context.Background(), conn, local)
	if err != nil {
		return nil, stats, err
	}
	return res.Robust, stats, nil
}

// SyncTwoWay runs the symmetric two-way protocol over conn: both peers
// call this same function, each pushing its sketch and reconciling
// against the other's. Each peer ends close (in EMD) to the other's
// original data; the sets do not converge to equality — use
// Result.Added for union-style ingestion.
//
// Deprecated: use NewSession(Robust{}, WithParams(p)) and Session.Sync.
func SyncTwoWay(conn net.Conn, p Params, pts []Point) (*Result, TransferStats, error) {
	res, stats, err := mustSession(Robust{}, WithParams(p)).Sync(context.Background(), conn, pts)
	if err != nil {
		return nil, stats, err
	}
	return res.Robust, stats, nil
}

// exactStrategy translates an ExactConfig into the equivalent strategy +
// session parameters.
func exactStrategy(cfg ExactConfig) (Strategy, Option) {
	return ExactIBLT{HashCount: cfg.HashCount, Slack: cfg.Slack, MaxRetries: cfg.MaxRetries},
		WithParams(Params{Universe: cfg.Universe, Seed: cfg.Seed})
}

// PushExact serves classic exact IBLT synchronization (difference digest:
// strata estimator + exactly-sized IBLT). Use it when values match
// bit-for-bit; under value noise its cost degenerates to Θ(n).
//
// Deprecated: use NewSession(ExactIBLT{...}, WithParams(...)) and
// Session.Serve.
func PushExact(conn net.Conn, cfg ExactConfig, pts []Point) (TransferStats, error) {
	strat, params := exactStrategy(cfg)
	s, err := NewSession(strat, params)
	if err != nil {
		return TransferStats{}, err
	}
	return s.Serve(context.Background(), conn, pts)
}

// PullExact drives Bob's side of exact IBLT synchronization; on success
// the returned multiset equals Alice's exactly.
//
// Deprecated: use NewSession(ExactIBLT{...}, WithParams(...)) and
// Session.Fetch.
func PullExact(conn net.Conn, cfg ExactConfig, local []Point) ([]Point, TransferStats, error) {
	strat, params := exactStrategy(cfg)
	s, err := NewSession(strat, params)
	if err != nil {
		return nil, TransferStats{}, err
	}
	res, stats, err := s.Fetch(context.Background(), conn, local)
	if err != nil {
		return nil, stats, err
	}
	return res.SPrime, stats, nil
}

// cpiStrategy translates a CPIConfig into the equivalent strategy +
// session parameters.
func cpiStrategy(cfg CPIConfig) (Strategy, Option) {
	return CPI{Capacity: cfg.Capacity},
		WithParams(Params{Universe: cfg.Universe, Seed: cfg.Seed})
}

// PushCPI serves characteristic-polynomial exact synchronization
// (minisketch-class: optimal O(capacity) communication for exact
// differences).
//
// Deprecated: use NewSession(CPI{...}, WithParams(...)) and Session.Serve.
func PushCPI(conn net.Conn, cfg CPIConfig, pts []Point) (TransferStats, error) {
	strat, params := cpiStrategy(cfg)
	s, err := NewSession(strat, params)
	if err != nil {
		return TransferStats{}, err
	}
	return s.Serve(context.Background(), conn, pts)
}

// PullCPI drives Bob's side of characteristic-polynomial sync.
//
// Deprecated: use NewSession(CPI{...}, WithParams(...)) and Session.Fetch.
func PullCPI(conn net.Conn, cfg CPIConfig, local []Point) ([]Point, TransferStats, error) {
	strat, params := cpiStrategy(cfg)
	s, err := NewSession(strat, params)
	if err != nil {
		return nil, TransferStats{}, err
	}
	res, stats, err := s.Fetch(context.Background(), conn, local)
	if err != nil {
		return nil, stats, err
	}
	return res.SPrime, stats, nil
}

// ValidateSet checks that every point belongs to the universe; protocols
// run this implicitly, but callers building pipelines may want the check
// at ingestion time.
func ValidateSet(u Universe, pts []Point) error {
	return u.CheckSet(pts)
}

// ClonePoints deep-copies a point slice.
func ClonePoints(pts []Point) []Point { return points.Clone(pts) }

// EqualMultisets reports whether two point slices contain the same points
// with the same multiplicities.
func EqualMultisets(a, b []Point) bool { return points.EqualMultisets(a, b) }
