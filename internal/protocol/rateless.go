package protocol

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// ---------------------------------------------------------------------
// Rateless incremental synchronization
//
// The module's exact IBLT sync (Difference Digest style, with an
// extendable sketch): exact sync treats whole points as opaque keys, so a
// noisy pair counts as two differences — precisely the failure mode
// robust reconciliation fixes. The fetching side streams ranges of
// rateless coded cells (internal/iblt's CellStream) until its decoder
// certifies completion. One stream serves every difference (Lázaro &
// Matuz), so its head is its own estimator: a session opens with Alice
// answering a first request at once, with no estimator. A warm opening's
// was sized from the last difference and rode the hello
// (RatelessConfig.First); a cold opening's is the fixed headCells-cell
// head, and Bob sizes his next request from the cells of its residual
// that the difference left empty (iblt.CellDecoder.Estimate). A mis-estimated
// difference costs extra increments proportional to the shortfall, never
// a rebuilt table — the wire cost tracks the actual difference, not the
// estimate.
//
// Wire shape (Bob fetches from Alice):
//
//	       (the first request — First cells, or the head — is implicit)
//	loop:  Alice → MsgCells(block)    ("CELLS")
//	       Bob → MsgCellsRequest(n)   ("MORE")
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
// byte budget is exhausted before the decoder completes.
var ErrRatelessBudget = errors.New("protocol: rateless cell budget exhausted before decode")

const (
	// minChunkCells floors every requested increment, so near-zero
	// estimates still make progress.
	minChunkCells = 8
	// maxChunkCells bounds a single requested increment (allocation
	// guard on the serving side).
	maxChunkCells = 1 << 20
	// defaultRatelessBudget bounds the total bytes of received cell
	// blocks when the config does not say otherwise.
	defaultRatelessBudget = 64 << 20
)

// RatelessConfig parameterizes the rateless comparator.
type RatelessConfig struct {
	Universe points.Universe
	// Seed fixes the cell-stream hash functions.
	Seed uint64
	// InitialFactor scales the difference the cells are sized from — the
	// head's estimate on a cold opening, in all cells streamed, or a warm
	// opening's hint (WarmFirst) — (0 → 1.4, the stream's empirical decode
	// overhead).
	InitialFactor float64
	// MaxBytes caps the total bytes of cell blocks received before the
	// fetching side gives up with ErrRatelessBudget (0 → 64 MiB).
	MaxBytes int64
	// First, when not 0, opens warm: the fetching side has already asked
	// for the first First cells of the stream. 0 opens cold, on the
	// headCells-cell head. Either way the serving side answers at once.
	First int
	// Kept, on the fetching side, is what it keeps of the multiset its last
	// session returned (RatelessKept). The session subtracts its cells
	// instead of keying the local points when it describes them, and leaves
	// it describing the multiset this session returns. nil keeps nothing.
	Kept *RatelessKept
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

// cellsWithin returns how many cells of the given key length are sure to
// fit a cell block of at most size bytes, whatever they hold.
func cellsWithin(size int64, keyLen int) int64 {
	empty := iblt.MaxWireSize(0, keyLen)
	return (size - int64(empty)) / int64(iblt.MaxWireSize(1, keyLen)-empty)
}

// maxChunkFor bounds one requested increment for the given key length:
// the cell-count ceiling, further capped so a full chunk's wire block
// stays far below the transport frame limit even at extreme dimensions.
func maxChunkFor(keyLen int) int {
	const maxChunkBytes = 64 << 20
	return int(min(cellsWithin(maxChunkBytes, keyLen), maxChunkCells))
}

// extend returns the cell-stream configuration both endpoints derive.
func (c RatelessConfig) extend() iblt.ExtendConfig {
	return iblt.ExtendConfig{
		KeyLen: points.EncodedSize(c.Universe.Dim) + 4,
		Seed:   hashutil.DeriveSeed(c.Seed, "rateless/cells"),
	}
}

// parseCells validates a MsgCells body — the answer to a request for
// chunk cells past frontier — into block. It fronts every block the
// fetching side accepts: cells of the stream's key length, the chunk
// asked for or, in a restart block (the peer's set moved under the
// stream; start 0), the frontier's more. The header is held to that
// before the block is sized, so a peer allocates only what was asked for.
func parseCells(block *iblt.CellBlock, body []byte, keyLen, frontier, chunk int) error {
	if err := block.UnmarshalWithin(body, keyLen, frontier+chunk); err != nil {
		return err
	}
	want := chunk
	if block.Start == 0 {
		want += frontier
	}
	if block.Len() != want {
		return fmt.Errorf("protocol: peer sent %d cells, %d expected", block.Len(), want)
	}
	return nil
}

// ratelessPrefixCells is how much of its cell stream a RatelessState
// keeps. A request is the estimate times 1.4, so 1024 cells answer every
// session whose difference is under about 650 keys; at 36 bytes a cell in
// memory (about 16 on the wire) the state costs its dataset about 37 KB.
const ratelessPrefixCells = 1024

// maxWarmCells bounds a warm opening's first request: half the prefix, so
// a dataset's maintained state always answers it.
const maxWarmCells = ratelessPrefixCells / 2

// headCells is a cold opening's first block: the cells Alice sends
// unasked. Their residual decodes a difference of up to about 10 keys
// outright and measures one of up to about 30; a larger one leaves no
// cell empty, and Bob asks for three times the head (coldNext).
const headCells = 32

// opening returns the size of the session's first block, which Alice
// sends unasked — First, or on a cold opening the head — and records a
// warm opening on tr.
func (c RatelessConfig) opening(tr *trace.Trace) int {
	if c.First == 0 {
		return headCells
	}
	tr.Stat(trace.StatWarm, 1)
	return c.First
}

// coldNext sizes a cold session's next request from the block it just
// received, which did not decode, and returns the difference it estimated
// (CellDecoder.Estimate; 0 for none). With no cell of the block's
// residual empty, the difference is beyond what the block measures: three
// times everything streamed. Otherwise up to the estimate times
// InitialFactor plus minChunkCells in all, and at least an eighth of
// everything streamed: a block sized from an estimate that still does not
// decode is one whose difference sits just past the decode threshold
// (about 1.36 cells a key), so the next step can be small.
func (c RatelessConfig) coldNext(dec *iblt.CellDecoder) (chunk int, est float64) {
	frontier := dec.Frontier()
	est, ok := dec.Estimate()
	if !ok {
		return 3 * frontier, 0
	}
	// A hostile block must not drive an out-of-range float→int conversion.
	total := min(est*c.InitialFactor, iblt.MaxStreamCells)
	return max(int(total)+minChunkCells-frontier, frontier/8, minChunkCells), est
}

// WarmFirst returns the first request of a warm opening sized from hint,
// the size of the difference an earlier session against the same set
// decoded: hint·InitialFactor + 8 cells, or 0 — open cold — when that is
// above 512 cells.
func (c RatelessConfig) WarmFirst(hint int) int {
	f := float64(hint) * c.filled().InitialFactor
	if hint < 0 || f > maxWarmCells { // also keeps the conversion in range
		return 0
	}
	if first := int(f) + minChunkCells; first <= maxWarmCells {
		return first
	}
	return 0
}

// RatelessState is what a dataset that serves rateless sessions keeps so
// that a session need not read its points: the first ratelessPrefixCells
// cells of the rateless stream over the dataset's occurrence keys. They
// are linear in the key set, so Add and Remove keep them equal to a fresh
// build, and one stream serves every fetching peer whatever its
// difference (Lázaro & Matuz), so the prefix kept is the prefix every
// session asks for. Not safe for concurrent use.
type RatelessState struct {
	prefix *iblt.CellPrefix
	key    []byte // scratch for Add and Remove
}

// NewRatelessState builds the state of pts, which must lie in the
// configured universe.
func NewRatelessState(cfg RatelessConfig, pts []points.Point) (*RatelessState, error) {
	prefix, err := iblt.NewCellPrefix(cfg.extend(), ratelessPrefixCells)
	if err != nil {
		return nil, err
	}
	for _, k := range points.OccurrenceKeys(pts, cfg.Universe.Dim) {
		prefix.Add(k)
	}
	return &RatelessState{prefix: prefix}, nil
}

// occurrenceKey builds, in the scratch buffer, the key that
// points.OccurrenceKeys gives the occ-th occurrence of the point encoded
// as enc.
func (s *RatelessState) occurrenceKey(enc string, occ uint32) []byte {
	s.key = binary.LittleEndian.AppendUint32(append(s.key[:0], enc...), occ)
	return s.key
}

// Add puts the occ-th occurrence of the point encoded as enc in.
func (s *RatelessState) Add(enc string, occ uint32) {
	s.prefix.Add(s.occurrenceKey(enc, occ))
}

// Remove takes the occ-th occurrence of the point encoded as enc out; it
// must be in.
func (s *RatelessState) Remove(enc string, occ uint32) {
	s.prefix.Remove(s.occurrenceKey(enc, occ))
}

// Opening copies out what one session is served from, the prefix, in
// O(cells). The caller supplies Rest.
func (s *RatelessState) Opening() *RatelessOpening {
	return &RatelessOpening{Prefix: s.prefix.Snapshot()}
}

// RatelessOpening is what one rateless session is served from: the head
// of a key set's cell stream, with the way to go on past it.
type RatelessOpening struct {
	Prefix *iblt.CellBlock // cells [0, Prefix.Len()) of the stream
	// Rest is called once, by the first request that runs past Prefix. It
	// returns the occurrence keys to stream on from and whether they are
	// still the set Prefix describes.
	Rest func() (keys [][]byte, same bool, err error)
}

// RunRatelessAlice serves Alice's side of rateless sync over her points:
// the first block at once, then cell-stream increments on request until
// MsgDone.
func RunRatelessAlice(ctx context.Context, t transport.Transport, cfg RatelessConfig, pts []points.Point) error {
	return RunRatelessServed(ctx, t, cfg, func() (*RatelessOpening, error) {
		if err := cfg.Universe.CheckSet(pts); err != nil {
			return nil, err
		}
		keys := points.OccurrenceKeys(pts, cfg.Universe.Dim)
		return &RatelessOpening{
			Prefix: new(iblt.CellBlock),
			Rest:   func() ([][]byte, bool, error) { return keys, true, nil },
		}, nil
	})
}

// RunRatelessServed is the serving side of rateless sync: it answers the
// session's first request — cfg.First, or the head — at once, then each
// cells request, from the prefix while the requests stay inside it and
// from a stream over Rest's keys from the first one that does not. If by
// then the key set is no longer the one the cells already sent describe,
// that answer is a restart block: it starts at cell 0 and carries the new
// set's cells up to the requested frontier, and the fetching side starts
// over on it. An error from open, and a request out of bounds, the first
// one too, is relayed to the peer; a first one out of bounds is refused
// before open is called.
func RunRatelessServed(ctx context.Context, t transport.Transport, cfg RatelessConfig, open func() (*RatelessOpening, error)) error {
	cfg = cfg.filled()
	tr := trace.FromContext(ctx)
	maxChunk := maxChunkFor(cfg.extend().KeyLen)
	first := cfg.opening(tr)
	var o *RatelessOpening      // opened by the first request
	var stream *iblt.CellStream // built by the first request past the prefix
	frontier := 0
	// One block and one encode buffer serve every cell request of the
	// session: EmitInto and AppendBinary reuse their storage, so the
	// steady-state serve loop allocates nothing per increment.
	var blk iblt.CellBlock
	var cellBuf []byte
	answer := func(n int) error {
		round := tr.Begin("cells_round")
		tr.Stat("rounds", 1)
		if n < 1 || n > maxChunk {
			return sendErr(ctx, t, fmt.Errorf("protocol: cells request %d outside [1,%d]", n, maxChunk))
		}
		if frontier+n > iblt.MaxStreamCells {
			return sendErr(ctx, t, fmt.Errorf("protocol: cell stream beyond %d cells", iblt.MaxStreamCells))
		}
		var err error
		if o == nil {
			if o, err = open(); err != nil {
				return sendErr(ctx, t, err)
			}
		}
		out := &blk
		switch {
		case stream != nil:
			stream.EmitInto(&blk, n)
		case frontier+n <= o.Prefix.Len():
			out = o.Prefix.Slice(frontier, frontier+n)
		default:
			keys, same, err := o.Rest()
			if err != nil {
				return sendErr(ctx, t, err)
			}
			if stream, err = iblt.NewCellStream(cfg.extend(), keys); err != nil {
				return sendErr(ctx, t, err)
			}
			stream.EmitInto(&blk, frontier+n)
			if same {
				out = blk.Slice(frontier, frontier+n)
			}
		}
		if cellBuf, err = out.AppendBinary(cellBuf[:0]); err != nil {
			return sendErr(ctx, t, err)
		}
		if err := send(ctx, t, MsgCells, cellBuf); err != nil {
			return err
		}
		frontier += n
		round.End(trace.I("chunk", int64(n)), trace.I("frontier", int64(frontier)))
		return nil
	}
	if err := answer(first); err != nil {
		return err
	}
	for {
		typ, body, err := recv(ctx, t)
		if err != nil {
			return err
		}
		switch typ {
		case MsgDone:
			return nil
		case MsgCellsRequest:
			if len(body) != 4 {
				return sendErr(ctx, t, errors.New("protocol: malformed cells request"))
			}
			if err := answer(int(binary.LittleEndian.Uint32(body))); err != nil {
				return err
			}
		default:
			return sendErr(ctx, t, fmt.Errorf("%w: 0x%02x", ErrUnexpectedMessage, typ))
		}
	}
}

// RatelessResult is the fetching side's outcome of a rateless session.
type RatelessResult struct {
	// SPrime is Alice's multiset, exactly: copies of the local points
	// the difference kept, in their order, then the points it added.
	SPrime []points.Point
	// Diff is the size of the difference decoded to reach it, in keys: what
	// a later session's warm opening is sized from (WarmFirst).
	Diff int
	// Kept is the config's Kept, which now describes SPrime (nil if the
	// session kept nothing).
	Kept *RatelessKept
}

// ErrNotLocal marks a decoded difference that removes a point, or an
// occurrence of one, that the local multiset does not hold.
var ErrNotLocal = errors.New("protocol: exact diff removes points Bob does not hold")

// ErrKeptStale marks a session that subtracted kept cells whose decoded
// difference does not apply to the local points (it wraps ErrNotLocal):
// the cells were not the local multiset's after all. The session forgets
// them, so the next one keys the points and does not depend on them.
var ErrKeptStale = errors.New("protocol: kept cells are not the local multiset's")

// RatelessKept is what a fetching side keeps of the multiset a rateless
// session returned, so that its next session against that multiset
// subtracts cells instead of keying it: the first cells of the multiset's
// stream — the cells the session received, since the multiset is Alice's
// — and its fingerprint (points.Print) under a key of its own. Cells are
// linear in the key set, so a later session folds its decoded difference
// in (CellPrefix.Add and Remove) and appends the cells it received past
// their end; there are at most ratelessPrefixCells of them, about 36 KB
// at dimension 2. A RatelessKept belongs to one session at a time.
type RatelessKept struct {
	key      points.PrintKey
	universe points.Universe
	seed     uint64
	print    points.Print
	cells    *iblt.CellPrefix // nil: describes no multiset yet
}

// NewRatelessKept returns a RatelessKept that describes no multiset yet,
// with a fingerprint key drawn at random.
func NewRatelessKept() *RatelessKept { return &RatelessKept{key: points.PrintKey(rand.Uint64())} }

// Prefix returns the kept cells, nil before a session has filled them.
func (k *RatelessKept) Prefix() *iblt.CellPrefix { return k.cells }

// known returns the kept cells if they are those of the multiset
// fingerprinted print in cfg's stream, else nil.
func (k *RatelessKept) known(cfg RatelessConfig, print points.Print) *iblt.CellBlock {
	if k.cells == nil || k.universe != cfg.Universe || k.seed != cfg.Seed || k.print != print {
		return nil
	}
	return k.cells.Cells()
}

// update makes k describe the multiset a session returned: the one
// fingerprinted print, whose cells k kept if known, turned by diff. recv
// is the cells the session received, those of the returned multiset.
func (k *RatelessKept) update(cfg RatelessConfig, known bool, print points.Print, diff *iblt.Diff, recv *iblt.CellPrefix) error {
	if !known {
		cells, err := iblt.NewCellPrefix(cfg.extend(), 0)
		if err != nil {
			return err
		}
		k.cells, k.universe, k.seed = cells, cfg.Universe, cfg.Seed
	}
	// An occurrence key is the point's encoding and a u32 index.
	for _, key := range diff.Pos {
		k.cells.Add(key)
		print.Add(k.key.HashEncoded(key[:len(key)-4]))
	}
	for _, key := range diff.Neg {
		k.cells.Remove(key)
		print.Remove(k.key.HashEncoded(key[:len(key)-4]))
	}
	k.cells.Extend(recv.Cells(), ratelessPrefixCells)
	k.print = print
	return nil
}

// RunRatelessBob drives Bob's side of rateless sync: take the first
// block, asked for without a request — cfg.First cells, or on a cold
// opening the head — then request increments until the decoder certifies
// completion: on a cold opening each sized from the empty cells of the
// block before it (coldNext), on a warm one a third of everything
// streamed so far. Bob's side of the cells is cfg.Kept's, when they are
// his points', as far as they reach, and past them the stream over his
// occurrence keys. On success Bob's result equals Alice's multiset
// exactly; a difference that does not apply to his points fails with
// ErrNotLocal, wrapped in ErrKeptStale if he subtracted kept cells.
func RunRatelessBob(ctx context.Context, t transport.Transport, cfg RatelessConfig, bobPts []points.Point) (*RatelessResult, error) {
	cfg = cfg.filled()
	tr := trace.FromContext(ctx)
	if err := cfg.Universe.CheckSet(bobPts); err != nil {
		return nil, abort(ctx, t, err)
	}
	var keys [][]byte
	keysOf := func() [][]byte {
		if keys == nil {
			keys = points.OccurrenceKeys(bobPts, cfg.Universe.Dim)
		}
		return keys
	}
	var (
		print points.Print
		known *iblt.CellBlock
		recv  *iblt.CellPrefix // the cells received, up to ratelessPrefixCells
	)
	if cfg.Kept != nil {
		print = cfg.Kept.key.Of(bobPts)
		known = cfg.Kept.known(cfg, print)
	}
	keyLen := cfg.extend().KeyLen
	maxChunk := maxChunkFor(keyLen)
	chunk := cfg.opening(tr)
	dec, err := iblt.NewCellDecoderFrom(cfg.extend(), known, keysOf)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	// One reusable block parses every received increment (AddBlock
	// copies what it keeps), mirroring the serving side's reuse.
	block := new(iblt.CellBlock)
	// received counts the bytes of every block against the budget, a
	// restart's as much as an increment's — the first block too. A
	// block's size follows its contents, so a request is clipped to what
	// fits the rest of the budget at full width.
	received := int64(0)
	est := 0.0 // a cold session's last estimate of the difference
	for asked := true; ; asked = false {
		if fits := cellsWithin(cfg.MaxBytes-received, keyLen); !asked && int64(chunk) > fits {
			if fits < minChunkCells {
				return nil, abort(ctx, t, fmt.Errorf("%w: %d cells (%d bytes) streamed",
					ErrRatelessBudget, dec.Frontier(), received))
			}
			chunk = int(fits)
		}
		if chunk > maxChunk {
			chunk = maxChunk
		}
		round := tr.Begin("cells_round")
		tr.Stat("rounds", 1)
		if !asked {
			var req [4]byte
			binary.LittleEndian.PutUint32(req[:], uint32(chunk))
			if err := send(ctx, t, MsgCellsRequest, req[:]); err != nil {
				return nil, err
			}
		}
		body, err := recvExpect(ctx, t, MsgCells)
		if err != nil {
			return nil, err
		}
		received += int64(len(body))
		if err := parseCells(block, body, keyLen, dec.Frontier(), chunk); err != nil {
			return nil, abort(ctx, t, err)
		}
		if err := dec.AddBlock(block); err != nil {
			return nil, abort(ctx, t, err)
		}
		if cfg.Kept != nil {
			if recv == nil || block.Start == 0 {
				if recv, err = iblt.NewCellPrefix(cfg.extend(), 0); err != nil {
					return nil, abort(ctx, t, err)
				}
			}
			recv.Extend(block, ratelessPrefixCells)
		}
		diff, ok := dec.Decoded()
		round.End(trace.I("chunk", int64(chunk)),
			trace.I("frontier", int64(dec.Frontier())), trace.I("decoded", boolStat(ok)))
		if ok {
			if cfg.Kept != nil {
				kept := 0
				if known != nil {
					kept = min(known.Len(), dec.Frontier())
				}
				tr.Stat(trace.StatKeptCells, int64(kept))
			}
			ap := tr.Begin("apply")
			sp, err := applyExactDiff(cfg.Universe, bobPts, diff)
			if err != nil {
				if known != nil && errors.Is(err, ErrNotLocal) {
					cfg.Kept.cells, err = nil, fmt.Errorf("%w: %w", ErrKeptStale, err)
				}
				return nil, abort(ctx, t, err)
			}
			ap.End(trace.I("added", int64(len(diff.Pos))), trace.I("removed", int64(len(diff.Neg))))
			if cfg.Kept != nil {
				if err := cfg.Kept.update(cfg, known != nil, print, diff, recv); err != nil {
					return nil, abort(ctx, t, err)
				}
			}
			n := len(diff.Pos) + len(diff.Neg)
			if est > 0 {
				tr.Stat("estimated_diff", int64(est))
			}
			tr.Stat("actual_diff", int64(n))
			return &RatelessResult{SPrime: sp, Diff: n, Kept: cfg.Kept}, send(ctx, t, MsgDone, nil)
		}
		if cfg.First == 0 {
			chunk, est = cfg.coldNext(dec)
			continue
		}
		// Geometric growth: each round adds a third of everything streamed
		// so far, so total cells overshoot the point of decodability by at
		// most ~33% while the number of round trips stays logarithmic.
		chunk = max(dec.Frontier()/3, minChunkCells)
	}
}

// applyExactDiff turns decoded keys back into points: Alice-only keys are
// added, and each Bob-only key (p, occ) names an occurrence of p to drop.
// Bob's occurrences of p are numbered in slice order, as
// points.OccurrenceKeys numbers them, so the k keys naming p must name
// his top k occurrences, and the last k copies of p in bobPts are dropped.
// One points.DropOccurrences pass over bobPts finds those copies and
// copies the rest; a key naming anything else fails with ErrNotLocal. The
// result is a deep copy carved out of one array, Bob's kept points in his
// order and then Alice's.
func applyExactDiff(u points.Universe, bobPts []points.Point, diff *iblt.Diff) ([]points.Point, error) {
	dr, err := points.DropOccurrences(bobPts, u.Dim, points.KeyWords{}, diff.Neg, diff.Pos)
	switch {
	case errors.Is(err, points.ErrNotHeld):
		return nil, fmt.Errorf("%w: %w", ErrNotLocal, err)
	case err != nil:
		return nil, fmt.Errorf("protocol: exact diff: %w", err)
	}
	enc := points.EncodedSize(u.Dim)
	for k, key := range diff.Neg {
		if occ := binary.LittleEndian.Uint32(key[enc:]); occ < dr.Left[k] {
			return nil, fmt.Errorf("%w: removals of %v must name its top copies; occurrence %d is below the %d kept",
				ErrNotLocal, dr.Removed[k], occ, dr.Left[k])
		}
	}
	for _, key := range diff.Pos {
		_ = points.DecodeInto(dr.Add(), key[:enc]) // DropOccurrences checked the length
	}
	return dr.Kept, nil
}
