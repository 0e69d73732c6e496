package protocol

import (
	"context"
	"errors"
	"fmt"

	"robustset/internal/core"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// RunPushAlice executes Alice's side of the one-shot robust protocol:
// a single message carrying the full multiresolution sketch.
func RunPushAlice(ctx context.Context, t transport.Transport, p core.Params, pts []points.Point) error {
	sk, err := core.BuildSketch(p, pts)
	if err != nil {
		return sendErr(ctx, t, err)
	}
	return RunPushSketchAlice(ctx, t, sk)
}

// RunPushSketchAlice pushes an already-built sketch — the path used by
// servers that maintain a sketch incrementally (core.Maintainer) instead
// of re-encoding per session.
func RunPushSketchAlice(ctx context.Context, t transport.Transport, sk *core.Sketch) error {
	blob, err := sk.MarshalBinary()
	if err != nil {
		return sendErr(ctx, t, err)
	}
	sp := trace.FromContext(ctx).Begin("sketch_send")
	if err := send(ctx, t, MsgSketch, blob); err != nil {
		return err
	}
	sp.End(trace.I("bytes", int64(len(blob))))
	return nil
}

// RunPushBob executes Bob's side of the one-shot robust protocol. The
// sketch carries its own parameters, so Bob needs only his points.
func RunPushBob(ctx context.Context, t transport.Transport, bobPts []points.Point) (*core.Result, error) {
	tr := trace.FromContext(ctx)
	sp := tr.Begin("sketch_recv")
	body, err := recvExpect(ctx, t, MsgSketch)
	if err != nil {
		return nil, err
	}
	var sk core.Sketch
	if err := sk.UnmarshalBinary(body); err != nil {
		return nil, err
	}
	sp.End(trace.I("bytes", int64(len(body))))
	sp = tr.Begin("repair")
	res, err := core.Reconcile(&sk, bobPts)
	if err != nil {
		return nil, err
	}
	sp.End(trace.I("level", int64(res.Level)),
		trace.I("added", int64(len(res.Added))), trace.I("removed", int64(len(res.Removed))))
	tr.Stat("actual_diff", int64(len(res.Added)+len(res.Removed)))
	return res, nil
}

// EstimateOpts tunes the estimate-first robust protocol.
type EstimateOpts struct {
	// Budget is the maximum number of difference keys Bob is willing to
	// receive a table for; the finest level estimated to fit is chosen.
	// 0 means 4·DiffBudget.
	Budget int
	// EstimatorK is the bottom-k size per level estimator. 0 means 64.
	EstimatorK int
	// MaxRetries bounds the decode-failure retry loop (each retry doubles
	// the requested capacity and may fall back one level). 0 means 3.
	MaxRetries int
}

// Bounds on the estimator size Alice serves; Bob's side rejects values
// outside them before opening a session.
const (
	minEstimatorK = 8
	maxEstimatorK = 1 << 16
)

// Validate rejects options no session could run under. Zero values mean
// the documented defaults and are valid.
func (o EstimateOpts) Validate() error {
	if o.EstimatorK != 0 && (o.EstimatorK < minEstimatorK || o.EstimatorK > maxEstimatorK) {
		return fmt.Errorf("protocol: estimator k %d outside [%d, %d]", o.EstimatorK, minEstimatorK, maxEstimatorK)
	}
	if o.Budget < 0 {
		return fmt.Errorf("protocol: estimate budget %d negative", o.Budget)
	}
	if o.MaxRetries < 0 {
		return fmt.Errorf("protocol: estimate max retries %d negative", o.MaxRetries)
	}
	return nil
}

func (o EstimateOpts) filled(p core.Params) EstimateOpts {
	if o.Budget == 0 {
		o.Budget = 4 * p.DiffBudget
	}
	if o.EstimatorK == 0 {
		o.EstimatorK = 64
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	return o
}

// RunEstimateAlice serves Alice's side of the estimate-first protocol:
// she answers one estimator request and then any number of level-table
// requests until Bob sends MsgDone.
func RunEstimateAlice(ctx context.Context, t transport.Transport, p core.Params, pts []points.Point) error {
	tr := trace.FromContext(ctx)
	sp := tr.Begin("estimate")
	body, err := recvExpect(ctx, t, MsgEstRequest)
	if err != nil {
		return err
	}
	if len(body) != 4 {
		return sendErr(ctx, t, errors.New("protocol: malformed estimator request"))
	}
	estK := int(uint32(body[0]) | uint32(body[1])<<8 | uint32(body[2])<<16 | uint32(body[3])<<24)
	if estK < minEstimatorK || estK > maxEstimatorK {
		return sendErr(ctx, t, fmt.Errorf("protocol: estimator k %d outside [%d, %d]", estK, minEstimatorK, maxEstimatorK))
	}
	// One ordered view serves the estimators and every level-table round.
	view, err := core.NewView(p, pts)
	if err != nil {
		return sendErr(ctx, t, err)
	}
	ests, err := view.LevelEstimators(estK)
	if err != nil {
		return sendErr(ctx, t, err)
	}
	blobs := make([][]byte, len(ests))
	for i, e := range ests {
		if blobs[i], err = e.MarshalBinary(); err != nil {
			return sendErr(ctx, t, err)
		}
	}
	if err := send(ctx, t, MsgEstimators, appendBlobList(nil, blobs)); err != nil {
		return err
	}
	sp.End(trace.I("levels", int64(len(blobs))))
	for {
		typ, body, err := recv(ctx, t)
		if err != nil {
			return err
		}
		switch typ {
		case MsgDone:
			return nil
		case MsgLevelRequest:
			round := tr.Begin("level_round")
			tr.Stat("rounds", 1)
			if len(body) != 6 {
				return sendErr(ctx, t, errors.New("protocol: malformed level request"))
			}
			level := int(uint16(body[0]) | uint16(body[1])<<8)
			capacity := int(uint32(body[2]) | uint32(body[3])<<8 | uint32(body[4])<<16 | uint32(body[5])<<24)
			if capacity < 1 || capacity > 1<<24 {
				return sendErr(ctx, t, fmt.Errorf("protocol: capacity %d out of range", capacity))
			}
			tbl, err := view.BuildLevelTable(level, capacity)
			if err != nil {
				return sendErr(ctx, t, err)
			}
			blob, err := tbl.MarshalBinary()
			if err != nil {
				return sendErr(ctx, t, err)
			}
			if err := send(ctx, t, MsgLevelTable, blob); err != nil {
				return err
			}
			round.End(trace.I("level", int64(level)), trace.I("capacity", int64(capacity)))
		default:
			return sendErr(ctx, t, fmt.Errorf("%w: 0x%02x", ErrUnexpectedMessage, typ))
		}
	}
}

// RunEstimateBob drives Bob's side of the estimate-first protocol:
// request estimators, pick the finest affordable level, fetch one
// exactly-sized table, reconcile — retrying with doubled capacity (and
// eventually a coarser level) if the table stalls.
func RunEstimateBob(ctx context.Context, t transport.Transport, p core.Params, bobPts []points.Point, opts EstimateOpts) (*core.Result, error) {
	opts = opts.filled(p)
	tr := trace.FromContext(ctx)
	sp := tr.Begin("estimate")
	var req [4]byte
	req[0], req[1], req[2], req[3] = byte(opts.EstimatorK), byte(opts.EstimatorK>>8), byte(opts.EstimatorK>>16), byte(opts.EstimatorK>>24)
	if err := send(ctx, t, MsgEstRequest, req[:]); err != nil {
		return nil, err
	}
	// Bob builds his own estimators while Alice builds hers, and only
	// then blocks on her reply. The view he sorts for them also serves
	// every level-table round and the repair.
	view, err := core.NewView(p, bobPts)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	bobEsts, err := view.LevelEstimators(opts.EstimatorK)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	body, err := recvExpect(ctx, t, MsgEstimators)
	if err != nil {
		return nil, err
	}
	blobs, err := parseBlobList(body)
	if err != nil {
		return nil, err
	}
	aliceEsts := make([]*sketch.BottomK, len(blobs))
	for i, b := range blobs {
		aliceEsts[i] = new(sketch.BottomK)
		if err := aliceEsts[i].UnmarshalBinary(b); err != nil {
			return nil, fmt.Errorf("protocol: estimator %d: %w", i, err)
		}
	}
	level, est, err := core.ChooseLevel(p, aliceEsts, bobEsts, opts.Budget)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	sp.End(trace.I("level", int64(level)), trace.I("est", int64(est)))
	tr.Stat("estimated_diff", int64(est))
	capacity := int(est*1.5) + 16
	var lastErr error
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		round := tr.Begin("level_round")
		tr.Stat("rounds", 1)
		tbl, err := fetchLevelTable(ctx, t, view, level, capacity)
		if err != nil {
			return nil, err
		}
		res, rerr := view.ReconcileLevel(tbl, level, capacity)
		round.End(trace.I("level", int64(level)), trace.I("capacity", int64(capacity)),
			trace.I("decoded", boolStat(rerr == nil)))
		if errors.Is(rerr, core.ErrLevelTableMismatch) {
			// Not a stalled decode: Alice served a table Bob did not ask
			// for, and a bigger request would not change that.
			return nil, abort(ctx, t, rerr)
		}
		if rerr == nil {
			if err := send(ctx, t, MsgDone, nil); err != nil {
				return nil, err
			}
			tr.Stat("actual_diff", int64(len(res.Added)+len(res.Removed)))
			return res, nil
		}
		tr.Stat("decode_retries", 1)
		lastErr = rerr
		// Decode stalled: the estimate undershot. Double the capacity and
		// step a level coarser, where the true difference shrinks — the
		// combination converges even when the estimator was badly off.
		capacity *= 2
		if level > p.MinLevel {
			level--
		}
	}
	_ = send(ctx, t, MsgDone, nil)
	return nil, fmt.Errorf("protocol: estimate-first reconciliation failed after retries: %w", lastErr)
}

// boolStat renders a bool as a span attribute value.
func boolStat(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// abort tells Alice we are giving up and returns err.
func abort(ctx context.Context, t transport.Transport, err error) error {
	_ = send(ctx, t, MsgDone, nil)
	return err
}

// fetchLevelTable asks Alice for one level's table and parses her answer
// against the shape the request implies.
func fetchLevelTable(ctx context.Context, t transport.Transport, view *core.View, level, capacity int) (*iblt.Table, error) {
	body := []byte{
		byte(level), byte(level >> 8),
		byte(capacity), byte(capacity >> 8), byte(capacity >> 16), byte(capacity >> 24),
	}
	if err := send(ctx, t, MsgLevelRequest, body); err != nil {
		return nil, err
	}
	blob, err := recvExpect(ctx, t, MsgLevelTable)
	if err != nil {
		return nil, err
	}
	tbl, err := view.UnmarshalLevelTable(level, capacity, blob)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	return tbl, nil
}
