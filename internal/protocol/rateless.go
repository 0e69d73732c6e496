package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// ---------------------------------------------------------------------
// Rateless incremental synchronization
//
// The rateless protocol replaces the doubling retry loop of exact-IBLT
// sync with an extendable sketch: after the same strata-estimator opening,
// the fetching side streams fixed-increment ranges of rateless coded cells
// (internal/iblt's CellStream) until its decoder certifies completion.
// A mis-estimated difference then costs extra increments proportional to
// the shortfall instead of whole rebuilt-and-resent tables — the wire cost
// tracks the actual difference, not the estimate.
//
// Wire shape (Bob fetches from Alice):
//
//	Alice → MsgStrata
//	loop:  Bob → MsgCellsRequest(n)   ("MORE")
//	       Alice → MsgCells(block)    ("CELLS")
//	until decode (or Bob's byte budget trips), then Bob → MsgDone.

// Rateless message tags.
const (
	// MsgCellsRequest asks the serving side for the next cells of the
	// rateless stream: body is u32 cell count ("MORE").
	MsgCellsRequest byte = 0x0e
	// MsgCells carries one iblt.CellBlock ("CELLS").
	MsgCells byte = 0x0f
)

// ErrRatelessBudget is returned by the fetching side when the cell-stream
// byte budget is exhausted before the decoder completes — the typed
// give-up that replaces the doubling path's "failed after retries".
var ErrRatelessBudget = errors.New("protocol: rateless cell budget exhausted before decode")

const (
	// minChunkCells floors every requested increment, so near-zero
	// estimates still make progress.
	minChunkCells = 8
	// maxChunkCells bounds a single requested increment (allocation
	// guard on the serving side).
	maxChunkCells = 1 << 20
	// defaultRatelessBudget bounds the total streamed cell bytes when the
	// config does not say otherwise.
	defaultRatelessBudget = 64 << 20
)

// RatelessConfig parameterizes the rateless comparator. The estimator
// opening is wire-identical to ExactConfig's (same seed derivations).
type RatelessConfig struct {
	Universe points.Universe
	// Seed fixes the estimator and cell-stream hash functions.
	Seed uint64
	// InitialFactor scales the strata estimate into the first requested
	// increment (0 → 1.4, the stream's empirical decode overhead).
	InitialFactor float64
	// MaxBytes caps the total streamed cell bytes before the fetching
	// side gives up with ErrRatelessBudget (0 → 64 MiB).
	MaxBytes int64
}

func (c RatelessConfig) filled() RatelessConfig {
	if c.InitialFactor == 0 || c.InitialFactor < 0 ||
		math.IsNaN(c.InitialFactor) || math.IsInf(c.InitialFactor, 0) {
		// Non-finite or negative factors would turn the first request into
		// an implementation-defined float→int conversion; the Session layer
		// rejects them up front, and direct protocol users get the default.
		c.InitialFactor = 1.4
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = defaultRatelessBudget
	}
	return c
}

// maxChunkFor bounds one requested increment for the given key length:
// the cell-count ceiling, further capped so a full chunk's wire block
// stays far below the transport frame limit even at extreme dimensions.
func maxChunkFor(keyLen int) int {
	const maxChunkBytes = 64 << 20
	if byCap := maxChunkBytes / (iblt.CellOverheadBytes + keyLen); byCap < maxChunkCells {
		return byCap
	}
	return maxChunkCells
}

// exact returns the ExactConfig whose strata estimator the opening
// shares, under the same public coins.
func (c RatelessConfig) exact() ExactConfig {
	return ExactConfig{Universe: c.Universe, Seed: c.Seed}
}

// extend returns the cell-stream configuration both endpoints derive.
func (c RatelessConfig) extend() iblt.ExtendConfig {
	return iblt.ExtendConfig{
		KeyLen: points.EncodedSize(c.Universe.Dim) + 4,
		Seed:   hashutil.DeriveSeed(c.Seed, "rateless/cells"),
	}
}

// parseCells validates a MsgCells body into a cell block. It fronts every
// block the fetching side accepts, exactly as parseHello fronts sessions.
func parseCells(body []byte) (*iblt.CellBlock, error) {
	b := new(iblt.CellBlock)
	if err := b.UnmarshalBinary(body); err != nil {
		return nil, err
	}
	return b, nil
}

// RunRatelessAlice serves Alice's side of rateless sync: estimator first,
// then cell-stream increments on request until MsgDone.
func RunRatelessAlice(ctx context.Context, t transport.Transport, cfg RatelessConfig, pts []points.Point) error {
	cfg = cfg.filled()
	tr := trace.FromContext(ctx)
	if err := cfg.Universe.CheckSet(pts); err != nil {
		return sendErr(ctx, t, err)
	}
	keys := exactKeys(cfg.Universe, pts)
	sp := tr.Begin("strata")
	st, err := exactStrata(cfg.exact(), keys)
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
	var stream *iblt.CellStream // built lazily on the first request
	// One block and one encode buffer serve every cell request of the
	// session: EmitInto and AppendBinary reuse their storage, so the
	// steady-state serve loop allocates nothing per increment.
	var blk iblt.CellBlock
	var cellBuf []byte
	for {
		typ, body, err := recv(ctx, t)
		if err != nil {
			return err
		}
		switch typ {
		case MsgDone:
			return nil
		case MsgCellsRequest:
			round := tr.Begin("cells_round")
			tr.Stat("rounds", 1)
			if len(body) != 4 {
				return sendErr(ctx, t, errors.New("protocol: malformed cells request"))
			}
			n := int(binary.LittleEndian.Uint32(body))
			if max := maxChunkFor(cfg.extend().KeyLen); n < 1 || n > max {
				return sendErr(ctx, t, fmt.Errorf("protocol: cells request %d outside [1,%d]", n, max))
			}
			if stream == nil {
				if stream, err = iblt.NewCellStream(cfg.extend(), keys); err != nil {
					return sendErr(ctx, t, err)
				}
			}
			if stream.Frontier()+n > iblt.MaxStreamCells {
				return sendErr(ctx, t, fmt.Errorf("protocol: cell stream beyond %d cells", iblt.MaxStreamCells))
			}
			stream.EmitInto(&blk, n)
			cellBuf, err = blk.AppendBinary(cellBuf[:0])
			if err != nil {
				return sendErr(ctx, t, err)
			}
			if err := send(ctx, t, MsgCells, cellBuf); err != nil {
				return err
			}
			round.End(trace.I("chunk", int64(n)), trace.I("frontier", int64(stream.Frontier())))
		default:
			return sendErr(ctx, t, fmt.Errorf("%w: 0x%02x", ErrUnexpectedMessage, typ))
		}
	}
}

// RunRatelessBob drives Bob's side of rateless sync: estimate, then
// request increments — the first sized from the estimate, later ones a
// third of everything streamed so far — until the decoder certifies
// completion. On success Bob's result equals Alice's multiset exactly.
func RunRatelessBob(ctx context.Context, t transport.Transport, cfg RatelessConfig, bobPts []points.Point) ([]points.Point, error) {
	cfg = cfg.filled()
	tr := trace.FromContext(ctx)
	if err := cfg.Universe.CheckSet(bobPts); err != nil {
		return nil, abort(ctx, t, err)
	}
	keys := exactKeys(cfg.Universe, bobPts)
	sp := tr.Begin("strata")
	blob, err := recvExpect(ctx, t, MsgStrata)
	if err != nil {
		return nil, err
	}
	aliceStrata := new(sketch.Strata)
	if err := aliceStrata.UnmarshalBinary(blob); err != nil {
		return nil, abort(ctx, t, err)
	}
	mine, err := exactStrata(cfg.exact(), keys)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	est, err := sketch.EstimateStrataDiff(aliceStrata, mine)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	sp.End(trace.I("est", int64(est)))
	tr.Stat("estimated_diff", int64(est))
	dec, err := iblt.NewCellDecoder(cfg.extend(), keys)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	cellBytes := int64(iblt.CellOverheadBytes + points.EncodedSize(cfg.Universe.Dim) + 4)
	budgetCells := cfg.MaxBytes / cellBytes
	maxChunk := maxChunkFor(cfg.extend().KeyLen)
	// Clamp the (peer-influenced) estimate before converting: a hostile
	// strata blob must not drive an out-of-range float→int conversion.
	if est*cfg.InitialFactor > float64(maxChunk) {
		est = float64(maxChunk) / cfg.InitialFactor
	}
	chunk := int(est*cfg.InitialFactor) + minChunkCells
	// One reusable block parses every received increment (AddBlock
	// copies what it keeps), mirroring the serving side's reuse.
	block := new(iblt.CellBlock)
	for {
		if remaining := budgetCells - int64(dec.Frontier()); int64(chunk) > remaining {
			if remaining < minChunkCells {
				return nil, abort(ctx, t, fmt.Errorf("%w: %d cells (%d bytes) streamed",
					ErrRatelessBudget, dec.Frontier(), int64(dec.Frontier())*cellBytes))
			}
			chunk = int(remaining)
		}
		if chunk > maxChunk {
			chunk = maxChunk
		}
		round := tr.Begin("cells_round")
		tr.Stat("rounds", 1)
		var req [4]byte
		binary.LittleEndian.PutUint32(req[:], uint32(chunk))
		if err := send(ctx, t, MsgCellsRequest, req[:]); err != nil {
			return nil, err
		}
		body, err := recvExpect(ctx, t, MsgCells)
		if err != nil {
			return nil, err
		}
		if err := block.UnmarshalBinary(body); err != nil {
			return nil, abort(ctx, t, err)
		}
		if block.Len() != chunk {
			return nil, abort(ctx, t, fmt.Errorf("protocol: peer sent %d cells, %d requested", block.Len(), chunk))
		}
		if err := dec.AddBlock(block); err != nil {
			return nil, abort(ctx, t, err)
		}
		diff, ok := dec.Decoded()
		round.End(trace.I("chunk", int64(chunk)),
			trace.I("frontier", int64(dec.Frontier())), trace.I("decoded", boolStat(ok)))
		if ok {
			ap := tr.Begin("apply")
			res, err := applyExactDiff(cfg.Universe, bobPts, diff)
			if err != nil {
				return nil, abort(ctx, t, err)
			}
			ap.End(trace.I("added", int64(len(diff.Pos))), trace.I("removed", int64(len(diff.Neg))))
			tr.Stat("actual_diff", int64(len(diff.Pos)+len(diff.Neg)))
			return res, send(ctx, t, MsgDone, nil)
		}
		// Geometric growth: each round adds a third of everything streamed
		// so far, so total cells overshoot the point of decodability by at
		// most ~33% while the number of round trips stays logarithmic.
		chunk = dec.Frontier() / 3
		if chunk < minChunkCells {
			chunk = minChunkCells
		}
	}
}
