package protocol

import (
	"context"

	"robustset/internal/points"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// RunNaiveAlice sends the entire point set — the trivial comparator every
// sublinear protocol must beat.
func RunNaiveAlice(ctx context.Context, t transport.Transport, u points.Universe, pts []points.Point) error {
	if err := u.CheckSet(pts); err != nil {
		return sendErr(ctx, t, err)
	}
	sp := trace.FromContext(ctx).Begin("full_transfer")
	if err := send(ctx, t, MsgSet, points.EncodeSet(pts, u.Dim)); err != nil {
		return err
	}
	sp.End(trace.I("points", int64(len(pts))))
	return nil
}

// RunNaiveBob receives Alice's entire set, which becomes Bob's result.
func RunNaiveBob(ctx context.Context, t transport.Transport, u points.Universe) ([]points.Point, error) {
	body, err := recvExpect(ctx, t, MsgSet)
	if err != nil {
		return nil, err
	}
	return points.DecodeSet(body, u.Dim)
}
