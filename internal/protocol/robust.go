package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

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

// EstimateOpening is what one estimate-first session is served from: a
// multiset's estimators, already in their wire form, and the way to the
// table of any one level.
type EstimateOpening struct {
	// Estimators is the MsgEstimators body: the blob list of the per-level
	// estimators of levels MinLevel..MaxLevel, coarsest first.
	Estimators []byte
	// MinLevel and MaxLevel are the multiset's level range; a request for
	// a table outside it is refused with core.ErrLevelOutOfRange.
	MinLevel, MaxLevel int
	// LevelTable builds the table of one level of the range. It may
	// describe a newer version of the multiset than Estimators does: the
	// fetching side then reconciles to that version, if the capacity it
	// asked for still decodes, or retries.
	LevelTable func(level, capacity int) (*iblt.Table, error)
}

// OpenEstimates builds the opening of a fixed point multiset for
// estimator size k: one ordered view serves the estimators and every
// level-table round.
func OpenEstimates(p core.Params, pts []points.Point, k int) (*EstimateOpening, error) {
	view, err := core.NewView(p, pts)
	if err != nil {
		return nil, err
	}
	ests, err := view.LevelEstimators(k)
	if err != nil {
		return nil, err
	}
	blobs := make([][]byte, len(ests))
	for i, e := range ests {
		if blobs[i], err = e.MarshalBinary(); err != nil {
			return nil, err
		}
	}
	p = view.Params()
	return &EstimateOpening{
		Estimators: appendBlobList(nil, blobs),
		MinLevel:   p.MinLevel,
		MaxLevel:   p.MaxLevel,
		LevelTable: view.BuildLevelTable,
	}, nil
}

// RunEstimateAlice serves Alice's side of the estimate-first protocol
// over her points: she answers one estimator request and then any number
// of level-table requests until Bob sends MsgDone.
func RunEstimateAlice(ctx context.Context, t transport.Transport, p core.Params, pts []points.Point) error {
	return RunEstimateServed(ctx, t, func(k int) (*EstimateOpening, error) { return OpenEstimates(p, pts, k) })
}

// RunEstimateServed is the serving side of the estimate-first protocol:
// open is called with the estimator size the peer asked for, and the
// session is answered from what it returns. An error from open is
// relayed to the peer.
func RunEstimateServed(ctx context.Context, t transport.Transport, open func(k int) (*EstimateOpening, error)) error {
	tr := trace.FromContext(ctx)
	sp := tr.Begin("estimate")
	body, err := recvExpect(ctx, t, MsgEstRequest)
	if err != nil {
		return err
	}
	if len(body) != 4 {
		return sendErr(ctx, t, errors.New("protocol: malformed estimator request"))
	}
	estK := int(binary.LittleEndian.Uint32(body))
	if estK < minEstimatorK || estK > maxEstimatorK {
		return sendErr(ctx, t, fmt.Errorf("protocol: estimator k %d outside [%d, %d]", estK, minEstimatorK, maxEstimatorK))
	}
	o, err := open(estK)
	if err != nil {
		return sendErr(ctx, t, err)
	}
	if err := send(ctx, t, MsgEstimators, o.Estimators); err != nil {
		return err
	}
	sp.End(trace.I("levels", int64(o.MaxLevel-o.MinLevel+1)))
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
			level := int(binary.LittleEndian.Uint16(body))
			capacity := int(binary.LittleEndian.Uint32(body[2:]))
			if capacity < 1 || capacity > 1<<24 {
				return sendErr(ctx, t, fmt.Errorf("protocol: capacity %d out of range", capacity))
			}
			if level < o.MinLevel || level > o.MaxLevel {
				return sendErr(ctx, t, fmt.Errorf("%w: %d outside [%d,%d]", core.ErrLevelOutOfRange, level, o.MinLevel, o.MaxLevel))
			}
			tbl, err := o.LevelTable(level, capacity)
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

// bobEstimators holds Bob's per-level estimators, each built the first
// time it is asked for.
type bobEstimators struct {
	view  *core.View
	k     int
	ests  []*sketch.BottomK // by level−MinLevel; nil until built
	built int
}

// at returns the estimator of level MinLevel+i.
func (b *bobEstimators) at(i int) (*sketch.BottomK, error) {
	if b.ests[i] == nil {
		e, err := b.view.LevelEstimator(b.view.Params().MinLevel+i, b.k)
		if err != nil {
			return nil, err
		}
		b.ests[i] = e
		b.built++
	}
	return b.ests[i], nil
}

// fillBelow builds the estimators of the levels under the finest, finest
// first, until all are built or stop is set.
func (b *bobEstimators) fillBelow(stop *atomic.Bool) error {
	for i := len(b.ests) - 2; i >= 0; i-- {
		// On one processor whoever sets stop has had no turn; give it one.
		runtime.Gosched()
		if stop.Load() {
			return nil
		}
		if _, err := b.at(i); err != nil {
			return err
		}
	}
	return nil
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
	binary.LittleEndian.PutUint32(req[:], uint32(opts.EstimatorK))
	if err := send(ctx, t, MsgEstRequest, req[:]); err != nil {
		return nil, err
	}
	// The view Bob sorts serves his estimators, every level-table round
	// and the repair.
	view, err := core.NewView(p, bobPts)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	p = view.Params()
	mine := &bobEstimators{view: view, k: opts.EstimatorK, ests: make([]*sketch.BottomK, p.MaxLevel-p.MinLevel+1)}
	// The level choice reads Bob's estimators finest first and stops at
	// the first affordable level: the finest is always read, each coarser
	// one only if the scan gets there. So Bob builds the finest, and the
	// coarser ones — in the scan's order — only for as long as Alice has
	// not answered: she is then building hers, as slow as he is at his,
	// and he is ready when she is. Once she has, the scan builds what it
	// reads and no more. The filling goroutine touches only mine, stops at
	// the level it is in when the answer arrives, and is joined before
	// mine is read again.
	if _, err := mine.at(len(mine.ests) - 1); err != nil {
		return nil, abort(ctx, t, err)
	}
	var answered atomic.Bool
	filled := make(chan error, 1)
	go func() { filled <- mine.fillBelow(&answered) }()
	body, err := recvExpect(ctx, t, MsgEstimators)
	answered.Store(true)
	if ferr := <-filled; err == nil && ferr != nil {
		err = abort(ctx, t, ferr)
	}
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
	level, est, err := core.ChooseLevelLazy(p, aliceEsts, mine.at, opts.Budget)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	sp.End(trace.I("level", int64(level)), trace.I("est", int64(est)), trace.I("built", int64(mine.built)))
	tr.Stat("estimated_diff", int64(est))
	capacity := int(est*1.5) + 16
	var lastErr error
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		round := tr.Begin("level_round")
		tr.Stat("rounds", 1)
		var req [6]byte
		binary.LittleEndian.PutUint16(req[:], uint16(level))
		binary.LittleEndian.PutUint32(req[2:], uint32(capacity))
		if err := send(ctx, t, MsgLevelRequest, req[:]); err != nil {
			return nil, err
		}
		// Bob fills his table of the level while Alice fills hers.
		own, err := view.BuildLevelTable(level, capacity)
		if err != nil {
			return nil, abort(ctx, t, err)
		}
		blob, err := recvExpect(ctx, t, MsgLevelTable)
		if err != nil {
			return nil, err
		}
		tbl, err := view.UnmarshalLevelTable(level, capacity, blob)
		if err != nil {
			return nil, abort(ctx, t, err)
		}
		res, rerr := view.ReconcileLevelWith(tbl, own, level)
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
