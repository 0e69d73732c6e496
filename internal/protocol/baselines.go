package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"robustset/internal/cpi"
	"robustset/internal/gf"
	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
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
// Exact IBLT synchronization (Difference Digest style)

// ExactConfig parameterizes the exact-IBLT comparator. Exact sync treats
// whole points as opaque keys: a noisy pair counts as two differences,
// which is precisely the failure mode robust reconciliation fixes.
type ExactConfig struct {
	Universe points.Universe
	// Seed fixes the estimator and IBLT hash functions (public coins).
	Seed uint64
	// HashCount is the IBLT q (0 → 4).
	HashCount int
	// Slack multiplies the estimated difference when sizing the IBLT
	// (0 → 2.0; the strata estimate is within ~2× whp).
	Slack float64
	// MaxRetries bounds decode-failure retries, each doubling capacity
	// (0 → 4).
	MaxRetries int
}

func (c ExactConfig) filled() ExactConfig {
	if c.HashCount == 0 {
		c.HashCount = 4
	}
	if c.Slack == 0 {
		c.Slack = 2.0
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	return c
}

// strata is the configuration of the exact family's strata estimator,
// which both sides derive and a received estimator is held to.
func (c ExactConfig) strata() sketch.StrataConfig {
	return sketch.StrataConfig{
		KeyLen: points.EncodedSize(c.Universe.Dim) + 4,
		Seed:   hashutil.DeriveSeed(c.Seed, "exact/strata"),
	}
}

// exactStrata builds the strata estimator of the exact family over
// occurrence keys (points.OccurrenceKeys), which give the exact protocols
// multiset semantics: identical points get distinct keys, the same ones
// on both sides.
func exactStrata(cfg ExactConfig, keys [][]byte) (*sketch.Strata, error) {
	s, err := sketch.NewStrata(cfg.strata())
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		s.Add(k)
	}
	return s, nil
}

func exactTable(cfg ExactConfig, keys [][]byte, capacity int) (*iblt.Table, error) {
	t, err := iblt.New(iblt.Config{
		Cells:     iblt.RecommendedCells(capacity, cfg.HashCount),
		HashCount: cfg.HashCount,
		KeyLen:    points.EncodedSize(cfg.Universe.Dim) + 4,
		Seed:      hashutil.DeriveSeed(cfg.Seed, "exact/iblt"),
	})
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		t.Insert(k)
	}
	return t, nil
}

// RunExactIBLTAlice serves Alice's side of exact-IBLT sync: estimator
// first, then exactly-sized tables on request.
func RunExactIBLTAlice(ctx context.Context, t transport.Transport, cfg ExactConfig, pts []points.Point) error {
	cfg = cfg.filled()
	tr := trace.FromContext(ctx)
	if err := cfg.Universe.CheckSet(pts); err != nil {
		return sendErr(ctx, t, err)
	}
	keys := points.OccurrenceKeys(pts, cfg.Universe.Dim)
	sp := tr.Begin("strata")
	st, err := exactStrata(cfg, keys)
	if err != nil {
		return sendErr(ctx, t, err)
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		return sendErr(ctx, t, err)
	}
	if err := send(ctx, t, MsgStrata, blob); err != nil {
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
		case MsgIBLTRequest:
			round := tr.Begin("iblt_round")
			tr.Stat("rounds", 1)
			if len(body) != 4 {
				return sendErr(ctx, t, errors.New("protocol: malformed IBLT request"))
			}
			capacity := int(binary.LittleEndian.Uint32(body))
			if capacity < 1 || capacity > 1<<24 {
				return sendErr(ctx, t, fmt.Errorf("protocol: capacity %d out of range", capacity))
			}
			tbl, err := exactTable(cfg, keys, capacity)
			if err != nil {
				return sendErr(ctx, t, err)
			}
			tb, err := tbl.MarshalBinary()
			if err != nil {
				return sendErr(ctx, t, err)
			}
			if err := send(ctx, t, MsgIBLT, tb); err != nil {
				return err
			}
			round.End(trace.I("capacity", int64(capacity)))
		default:
			return sendErr(ctx, t, fmt.Errorf("%w: 0x%02x", ErrUnexpectedMessage, typ))
		}
	}
}

// RunExactIBLTBob drives Bob's side of exact-IBLT sync. On success Bob's
// result equals Alice's multiset exactly.
func RunExactIBLTBob(ctx context.Context, t transport.Transport, cfg ExactConfig, bobPts []points.Point) ([]points.Point, error) {
	cfg = cfg.filled()
	tr := trace.FromContext(ctx)
	if err := cfg.Universe.CheckSet(bobPts); err != nil {
		return nil, abort(ctx, t, err)
	}
	keys := points.OccurrenceKeys(bobPts, cfg.Universe.Dim)
	sp := tr.Begin("strata")
	blob, err := recvExpect(ctx, t, MsgStrata)
	if err != nil {
		return nil, err
	}
	aliceStrata := new(sketch.Strata)
	if err := aliceStrata.UnmarshalAs(blob, cfg.strata()); err != nil {
		return nil, abort(ctx, t, err)
	}
	mine, err := exactStrata(cfg, keys)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	est, err := sketch.EstimateStrataDiff(aliceStrata, mine)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	sp.End(trace.I("est", int64(est)))
	tr.Stat("estimated_diff", int64(est))
	capacity := int(est*cfg.Slack) + 8
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		round := tr.Begin("iblt_round")
		tr.Stat("rounds", 1)
		var req [4]byte
		binary.LittleEndian.PutUint32(req[:], uint32(capacity))
		if err := send(ctx, t, MsgIBLTRequest, req[:]); err != nil {
			return nil, err
		}
		tb, err := recvExpect(ctx, t, MsgIBLT)
		if err != nil {
			return nil, err
		}
		mineTbl, err := exactTable(cfg, keys, capacity)
		if err != nil {
			return nil, abort(ctx, t, err)
		}
		// Alice's table must have the shape of Bob's, or the two would not
		// subtract; its header says so before a cell of it is allocated.
		work, err := iblt.UnmarshalTable(tb, mineTbl.Config())
		if err != nil {
			return nil, abort(ctx, t, err)
		}
		if err := work.Sub(mineTbl); err != nil {
			return nil, abort(ctx, t, err)
		}
		diff, derr := work.Decode()
		round.End(trace.I("capacity", int64(capacity)), trace.I("cells", int64(mineTbl.Config().Cells)),
			trace.I("decoded", boolStat(derr == nil)))
		if derr != nil {
			tr.Stat("decode_retries", 1)
			lastErr = derr
			capacity *= 2
			continue
		}
		tr.Stat("actual_diff", int64(len(diff.Pos)+len(diff.Neg)))
		ap := tr.Begin("apply")
		res, err := applyExactDiff(cfg.Universe, bobPts, keys, diff)
		if err != nil {
			return nil, abort(ctx, t, err)
		}
		ap.End(trace.I("added", int64(len(diff.Pos))), trace.I("removed", int64(len(diff.Neg))))
		return res, send(ctx, t, MsgDone, nil)
	}
	_ = send(ctx, t, MsgDone, nil)
	return nil, fmt.Errorf("protocol: exact IBLT sync failed after retries: %w", lastErr)
}

// applyExactDiff turns decoded keys back into points: Alice-only keys are
// added, Bob-only keys name Bob's own points to drop — keys[i] is
// bobPts[i]'s. The result is a deep copy carved out of one array.
func applyExactDiff(u points.Universe, bobPts []points.Point, keys [][]byte, diff *iblt.Diff) ([]points.Point, error) {
	encSize := points.EncodedSize(u.Dim)
	drop := make(map[string]struct{}, len(diff.Neg))
	for _, k := range diff.Neg {
		drop[string(k)] = struct{}{}
	}
	if len(drop) != len(diff.Neg) {
		return nil, errors.New("protocol: exact diff names a key twice")
	}
	n := len(bobPts) + len(diff.Pos)
	out := make([]points.Point, 0, n)
	coords := make([]int64, n*u.Dim)
	next := func() points.Point { // the result's next point, to be filled in
		out = append(out, coords[:u.Dim:u.Dim])
		coords = coords[u.Dim:]
		return out[len(out)-1]
	}
	for i, p := range bobPts {
		if _, gone := drop[string(keys[i])]; gone {
			delete(drop, string(keys[i]))
			continue
		}
		copy(next(), p)
	}
	if len(drop) != 0 {
		return nil, errors.New("protocol: exact diff names points Bob does not hold")
	}
	for _, k := range diff.Pos {
		if len(k) != encSize+4 {
			return nil, fmt.Errorf("protocol: exact diff key of %d bytes", len(k))
		}
		if err := points.DecodeInto(next(), k[:encSize]); err != nil {
			return nil, err
		}
	}
	return out, nil
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
