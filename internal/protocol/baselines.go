package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"robustset/internal/cpi"
	"robustset/internal/gf"
	"robustset/internal/hashutil"
	"robustset/internal/points"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// ---------------------------------------------------------------------
// Naive full transfer

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

// ---------------------------------------------------------------------
// Characteristic-polynomial (CPI) synchronization

// CPIConfig parameterizes the CPI comparator.
type CPIConfig struct {
	Universe points.Universe
	// Seed fixes sample points and the element-hash function.
	Seed uint64
	// Capacity is the maximum recoverable difference |AΔB|. CPI has no
	// cheap retry path (the sketch size is fixed up front), so experiments
	// provision it with an oracle bound.
	Capacity int
}

// cpiElems maps a point multiset to distinct 61-bit field elements via a
// keyed hash over occurrence-indexed encodings, returning the elements
// and the element→point lookup used for payload serving and local drops.
func cpiElems(cfg CPIConfig, pts []points.Point) ([]uint64, map[uint64]points.Point, error) {
	h := hashutil.NewHasher(hashutil.DeriveSeed(cfg.Seed, "cpisync/elem"))
	keys := points.OccurrenceKeys(pts, cfg.Universe.Dim)
	elems := make([]uint64, len(keys))
	lookup := make(map[uint64]points.Point, len(keys))
	for i, k := range keys {
		e := h.Hash(k) % gf.P
		if _, dup := lookup[e]; dup {
			return nil, nil, fmt.Errorf("protocol: cpi element hash collision (p ≈ n²/2⁶¹); use a different seed")
		}
		elems[i] = e
		lookup[e] = pts[i]
	}
	return elems, lookup, nil
}

// RunCPIAlice serves Alice's side of CPI sync: one sketch, then point
// payloads for whichever element hashes Bob asks for.
func RunCPIAlice(ctx context.Context, t transport.Transport, cfg CPIConfig, pts []points.Point) error {
	if err := cfg.Universe.CheckSet(pts); err != nil {
		return sendErr(ctx, t, err)
	}
	tr := trace.FromContext(ctx)
	elems, lookup, err := cpiElems(cfg, pts)
	if err != nil {
		return sendErr(ctx, t, err)
	}
	sp := tr.Begin("cpi_sketch")
	sk, err := cpi.NewSketch(elems, cfg.Capacity, hashutil.DeriveSeed(cfg.Seed, "cpisync/sketch"))
	if err != nil {
		return sendErr(ctx, t, err)
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		return sendErr(ctx, t, err)
	}
	if err := send(ctx, t, MsgCPISketch, blob); err != nil {
		return err
	}
	sp.End(trace.I("bytes", int64(len(blob))))
	for {
		typ, body, err := recv(ctx, t)
		if err != nil {
			return err
		}
		switch typ {
		case MsgDone:
			return nil
		case MsgPayloadRequest:
			tr.Stat("rounds", 1)
			if len(body) < 4 {
				return sendErr(ctx, t, errors.New("protocol: malformed payload request"))
			}
			n := int(binary.LittleEndian.Uint32(body))
			if len(body) != 4+8*n {
				return sendErr(ctx, t, errors.New("protocol: malformed payload request body"))
			}
			reply := make([]points.Point, 0, n)
			for i := 0; i < n; i++ {
				e := binary.LittleEndian.Uint64(body[4+8*i:])
				p, ok := lookup[e]
				if !ok {
					return sendErr(ctx, t, fmt.Errorf("protocol: peer requested unknown element %d", e))
				}
				reply = append(reply, p)
			}
			if err := send(ctx, t, MsgPayloads, points.EncodeSet(reply, cfg.Universe.Dim)); err != nil {
				return err
			}
		default:
			return sendErr(ctx, t, fmt.Errorf("%w: 0x%02x", ErrUnexpectedMessage, typ))
		}
	}
}

// RunCPIBob drives Bob's side of CPI sync. On success Bob's result equals
// Alice's multiset exactly; if the difference exceeds cfg.Capacity it
// returns cpi.ErrCapacityExceeded.
func RunCPIBob(ctx context.Context, t transport.Transport, cfg CPIConfig, bobPts []points.Point) ([]points.Point, error) {
	if err := cfg.Universe.CheckSet(bobPts); err != nil {
		return nil, abort(ctx, t, err)
	}
	tr := trace.FromContext(ctx)
	elems, lookup, err := cpiElems(cfg, bobPts)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	sp := tr.Begin("cpi_sketch")
	blob, err := recvExpect(ctx, t, MsgCPISketch)
	if err != nil {
		return nil, err
	}
	aliceSk := new(cpi.Sketch)
	if err := aliceSk.UnmarshalBinary(blob); err != nil {
		return nil, abort(ctx, t, err)
	}
	mine, err := cpi.NewSketch(elems, cfg.Capacity, hashutil.DeriveSeed(cfg.Seed, "cpisync/sketch"))
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	onlyA, onlyB, err := cpi.Diff(aliceSk, mine)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	sp.End(trace.I("only_a", int64(len(onlyA))), trace.I("only_b", int64(len(onlyB))))
	tr.Stat("actual_diff", int64(len(onlyA)+len(onlyB)))
	ap := tr.Begin("apply")
	defer func() { ap.End() }()
	var fetched []points.Point
	if len(onlyA) > 0 {
		req := binary.LittleEndian.AppendUint32(nil, uint32(len(onlyA)))
		for _, e := range onlyA {
			req = binary.LittleEndian.AppendUint64(req, e)
		}
		if err := send(ctx, t, MsgPayloadRequest, req); err != nil {
			return nil, err
		}
		body, err := recvExpect(ctx, t, MsgPayloads)
		if err != nil {
			return nil, err
		}
		fetched, err = points.DecodeSet(body, cfg.Universe.Dim)
		if err != nil {
			return nil, abort(ctx, t, err)
		}
		if len(fetched) != len(onlyA) {
			return nil, abort(ctx, t, fmt.Errorf("protocol: got %d payloads for %d requests", len(fetched), len(onlyA)))
		}
	}
	dropPts := make(map[string]int)
	for _, e := range onlyB {
		p, ok := lookup[e]
		if !ok {
			return nil, abort(ctx, t, fmt.Errorf("protocol: cpi names element %d Bob does not hold", e))
		}
		dropPts[string(points.EncodeNew(p))]++
	}
	out := make([]points.Point, 0, len(bobPts)+len(fetched)-len(onlyB))
	for _, p := range bobPts {
		enc := points.EncodeNew(p)
		if dropPts[string(enc)] > 0 {
			dropPts[string(enc)]--
			continue
		}
		out = append(out, p.Clone())
	}
	out = append(out, fetched...)
	return out, send(ctx, t, MsgDone, nil)
}
