package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"robustset/internal/core"
	"robustset/internal/points"
	"robustset/internal/sketch"
	"robustset/internal/transport"
)

// pushAllBob is the fetching side of the estimate-first protocol as it
// was before Alice's estimators were pulled a window at a time, kept as
// the reference the pull is held equal to. Bob asks once, with a window
// of every level, for every level's estimator; he builds all of his own, picks
// the level with core.ChooseLevel over both full slices and then runs the
// same level-table rounds. It returns the chosen level and estimate too.
func pushAllBob(ctx context.Context, t transport.Transport, p core.Params, bobPts []points.Point, opts EstimateOpts) (*core.Result, int, float64, error) {
	opts = opts.filled(p)
	p, err := p.Normalized()
	if err != nil {
		return nil, 0, 0, abort(ctx, t, err)
	}
	if err := send(ctx, t, MsgEstRequest, estRequestBody(opts.EstimatorK, p.MaxLevel, p.MaxLevel-p.MinLevel+1)); err != nil {
		return nil, 0, 0, err
	}
	view, err := core.NewView(p, bobPts)
	if err != nil {
		return nil, 0, 0, abort(ctx, t, err)
	}
	p = view.Params()
	mine, err := core.LevelEstimators(p, bobPts, opts.EstimatorK)
	if err != nil {
		return nil, 0, 0, abort(ctx, t, err)
	}
	body, err := recvExpect(ctx, t, MsgEstimators)
	if err != nil {
		return nil, 0, 0, err
	}
	blobs, err := parseBlobList(body)
	if err != nil {
		return nil, 0, 0, err
	}
	theirs := make([]*sketch.BottomK, len(blobs))
	for i, b := range blobs {
		theirs[i] = new(sketch.BottomK)
		if err := theirs[i].UnmarshalBinary(b); err != nil {
			return nil, 0, 0, fmt.Errorf("protocol: estimator %d: %w", i, err)
		}
	}
	level, est, err := core.ChooseLevel(p, theirs, mine, opts.Budget)
	if err != nil {
		return nil, 0, 0, abort(ctx, t, err)
	}
	chosen := level
	capacity := int(est*1.5) + 16
	var lastErr error
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		var req [6]byte
		binary.LittleEndian.PutUint16(req[:], uint16(level))
		binary.LittleEndian.PutUint32(req[2:], uint32(capacity))
		if err := send(ctx, t, MsgLevelRequest, req[:]); err != nil {
			return nil, 0, 0, err
		}
		own, err := view.BuildLevelTable(level, capacity)
		if err != nil {
			return nil, 0, 0, abort(ctx, t, err)
		}
		blob, err := recvExpect(ctx, t, MsgLevelTable)
		if err != nil {
			return nil, 0, 0, err
		}
		tbl, err := view.UnmarshalLevelTable(level, capacity, blob)
		if err != nil {
			return nil, 0, 0, abort(ctx, t, err)
		}
		res, rerr := view.ReconcileLevelWith(tbl, own, level)
		if errors.Is(rerr, core.ErrLevelTableMismatch) {
			return nil, 0, 0, abort(ctx, t, rerr)
		}
		if rerr == nil {
			if err := send(ctx, t, MsgDone, nil); err != nil {
				return nil, 0, 0, err
			}
			return res, chosen, est, nil
		}
		lastErr = rerr
		capacity *= 2
		if level > p.MinLevel {
			level--
		}
	}
	_ = send(ctx, t, MsgDone, nil)
	return nil, 0, 0, fmt.Errorf("protocol: estimate-first reconciliation failed after retries: %w", lastErr)
}
