package protocol

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
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
	blob, err := sk.MarshalBinary()
	if err != nil {
		return sendErr(ctx, t, err)
	}
	return RunPushBlobAlice(ctx, t, blob)
}

// RunPushBlobAlice pushes a pre-marshaled sketch as the one-shot robust
// protocol's single message. Servers snapshot a Maintainer's sketch under
// their dataset lock and serve concurrent sessions from the blob.
func RunPushBlobAlice(ctx context.Context, t transport.Transport, blob []byte) error {
	sp := trace.FromContext(ctx).Begin("sketch_send")
	if err := send(ctx, t, MsgSketch, blob); err != nil {
		return err
	}
	sp.End(trace.I("bytes", int64(len(blob))))
	return nil
}

// RunPushWindowAlice is RunPushBlobAlice for a warm session, one that
// asked for the window [lo, hi] of the sketch of a dataset of parameters
// p: the window core.SketchWindow cuts out of blob, written straight into
// the send buffer. A window core.SketchWindow refuses is refused, and the
// refusal relayed.
func RunPushWindowAlice(ctx context.Context, t transport.Transport, p core.Params, blob []byte, lo, hi int) error {
	head, tail, err := core.SketchWindow(blob, lo, hi)
	if err != nil {
		return sendErr(ctx, t, err)
	}
	tr := trace.FromContext(ctx)
	windowStats(tr, p, lo, hi)
	sp := tr.Begin("sketch_send")
	if err := send(ctx, t, MsgSketch, head, tail); err != nil {
		return err
	}
	sp.End(trace.I("bytes", int64(len(head)+len(tail))))
	return nil
}

// windowStats records on tr that its session opened warm, on the window
// [lo, hi] of p's levels.
func windowStats(tr *trace.Trace, p core.Params, lo, hi int) {
	tr.Stat(trace.StatWarm, 1)
	tr.Stat(trace.StatWindowLo, int64(lo))
	tr.Stat(trace.StatWindowHi, int64(hi))
	tr.Stat(trace.StatMinLevel, int64(p.MinLevel))
	tr.Stat(trace.StatMaxLevel, int64(p.MaxLevel))
}

// ErrWindowMiss marks a warm robust session that chose no level: none of
// its window's levels decoded, or the serving side refused the window.
// The full sketch's scan would have gone on past the window, so the
// caller reruns the session cold.
var ErrWindowMiss = errors.New("protocol: no level of the warm window chosen")

// WindowUpError marks an upward miss: a warm robust session whose
// window's finest level, below the dataset's MaxLevel, decoded or stalled
// within its load, so the full sketch's scan might have chosen a finer
// level. Lo is
// that level and Hi is MaxLevel. A session on [Lo, Hi] returns the full
// sketch's result whenever one of its levels decodes, since then the full
// scan chooses one of them.
type WindowUpError struct{ Lo, Hi int }

func (e *WindowUpError) Error() string {
	return fmt.Sprintf("protocol: the warm window's finest level is not overloaded; rerun on [%d,%d]", e.Lo, e.Hi)
}

// RunPushBob executes Bob's side of the one-shot robust protocol. The
// sketch carries its own parameters, so Bob needs only his points.
func RunPushBob(ctx context.Context, t transport.Transport, bobPts []points.Point) (*core.Result, error) {
	return (*RobustKept)(nil).RunPushBob(ctx, t, bobPts)
}

// RunPushWindowBob is RunPushBob for a warm session, one that asked for
// the window [lo, hi] of the sketch of a dataset whose accept carried p.
// The sketch must carry p with the levels lo and hi: one of any other
// parameters is core.ErrInconsistentSketch. A window none of whose levels
// decodes, or that the serving side refused, is a downward miss, an error
// wrapping ErrWindowMiss. Below MaxLevel, a window whose level hi is not
// core.Params.Overloaded — it decoded, or stalled on a chance 2-core a
// finer level may well not meet — is an upward miss, a *WindowUpError.
// Otherwise the result, which reports p, is the full sketch's unless some
// level above hi decodes while hi is overloaded; its Outcomes begin at
// hi.
func RunPushWindowBob(ctx context.Context, t transport.Transport, p core.Params, lo, hi int, bobPts []points.Point) (*core.Result, error) {
	return (*RobustKept)(nil).RunPushWindowBob(ctx, t, p, lo, hi, bobPts)
}

// RunPushBob is the package's RunPushBob for a fetching side that keeps
// its tables between sessions in k, which may be nil, keeping none: the
// session subtracts k's tables of the levels it scans instead of keying
// bobPts when they describe them, and on success leaves k holding its
// tables of the levels of the next session's window (core.WarmWindow). A
// difference decoded with kept tables that contradicts bobPts fails with
// ErrKeptTablesStale.
func (k *RobustKept) RunPushBob(ctx context.Context, t transport.Transport, bobPts []points.Point) (*core.Result, error) {
	res, mine, err := pushBob(ctx, t, bobPts, nil, k)
	if err != nil {
		return nil, err
	}
	k.keep(mine, res)
	return res, nil
}

// RunPushWindowBob is the package's RunPushWindowBob keeping its tables
// in k as k.RunPushBob does. A miss leaves k as it was.
func (k *RobustKept) RunPushWindowBob(ctx context.Context, t transport.Transport, p core.Params, lo, hi int, bobPts []points.Point) (*core.Result, error) {
	tr := trace.FromContext(ctx)
	windowStats(tr, p, lo, hi)
	window := p.WithLevels(lo, hi)
	res, mine, err := pushBob(ctx, t, bobPts, &window, k)
	var remote *RemoteError
	if errors.Is(err, core.ErrNoDecodableLevel) || errors.As(err, &remote) {
		tr.Stat(trace.StatWindowMiss, 1)
		return nil, fmt.Errorf("%w: %w", ErrWindowMiss, err)
	}
	if err != nil {
		return nil, err
	}
	if hi < p.MaxLevel && !p.Overloaded(res.Outcomes[0]) {
		tr.Stat(trace.StatWindowUp, 1)
		return nil, &WindowUpError{Lo: hi, Hi: p.MaxLevel}
	}
	res.Params = p
	k.keep(mine, res)
	return res, nil
}

// ErrKeptTablesStale marks a session that subtracted kept tables whose
// decoded difference contradicts the local points (it wraps
// core.ErrInconsistentSketch): the tables were not the local multiset's
// after all. The session forgets what it kept, so the next one keys the
// points and does not depend on it.
var ErrKeptTablesStale = errors.New("protocol: kept tables are not the local multiset's")

// RobustKept is what a fetching side keeps of its local multiset after a
// robust session, so that its next session over the same multiset
// subtracts tables instead of keying it: its tables of the levels of the
// next session's window, the normalized Params they were built under,
// and the multiset's fingerprint (points.Print) under a key of its own. Bob's
// table of a level depends only on his multiset and the public coins, so
// a later session whose local points have the fingerprint, under Params
// of the same seed, universe, capacity and hash count, takes the kept
// table of any level it scans. There are at most a window's tables,
// nearly always three of about 18 KB at capacity 320 in dimension 2; the
// presort they were built from is not kept. A RobustKept belongs to one
// session at a time.
// After an estimate-first session it holds instead Bob's estimators of
// size estK the level choice read, by level, and his one table of the
// level that decoded, at the capacity it decoded at.
type RobustKept struct {
	key    points.PrintKey
	params core.Params
	print  points.Print
	tables map[int]*iblt.Table // by level; nil: describes no multiset yet
	estK   int
	ests   map[int]*sketch.BottomK // by level
}

// NewRobustKept returns a RobustKept that describes no multiset yet, with
// a fingerprint key drawn at random.
func NewRobustKept() *RobustKept { return &RobustKept{key: points.PrintKey(rand.Uint64())} }

// Tables returns the kept tables by level, nil before a session has
// filled them.
func (k *RobustKept) Tables() map[int]*iblt.Table { return k.tables }

// Params returns the Params the kept tables were built under.
func (k *RobustKept) Params() core.Params { return k.params }

// Estimators returns the kept estimators by level and their size.
func (k *RobustKept) Estimators() (map[int]*sketch.BottomK, int) { return k.ests, k.estK }

// bobTables is what a session's scan had of the local multiset: Bob's
// tables of the levels it scanned or looked ahead to, the Params they
// were built under and the multiset's fingerprint.
type bobTables struct {
	params core.Params
	print  points.Print
	tables map[int]*iblt.Table
}

// lend returns Bob's tables for a session over pts under normalized p: a
// copy of the kept tables' map, and true, when they describe pts'
// multiset under p, else an empty map.
func (k *RobustKept) lend(p core.Params, pts []points.Point) (*bobTables, bool) {
	b := &bobTables{params: p, tables: make(map[int]*iblt.Table)}
	if k == nil {
		return b, false
	}
	b.print = k.key.Of(pts)
	q := k.params
	if k.tables != nil && k.print == b.print && p.Seed == q.Seed && p.Universe == q.Universe &&
		p.TableCapacity == q.TableCapacity && p.HashCount == q.HashCount {
		maps.Copy(b.tables, k.tables)
		return b, true
	}
	return b, false
}

// keep makes k describe the multiset b fingerprints, with b's tables of
// the levels of the window res leaves the next session (none when it
// leaves none). k may be nil, keeping nothing.
func (k *RobustKept) keep(b *bobTables, res *core.Result) {
	if k == nil {
		return
	}
	k.params, k.print, k.tables, k.ests = b.params, b.print, make(map[int]*iblt.Table, 3), nil
	if lo, hi, ok := core.WarmWindow(res); ok {
		for l := lo; l <= hi; l++ {
			if t := b.tables[l]; t != nil {
				k.tables[l] = t
			}
		}
	}
}

// pushBob receives the sketch — one of parameters want, when that is set —
// and reconciles bobPts against it, taking kept's tables where they are
// bobPts'. It returns, with the result, every table of Bob's the scan had.
func pushBob(ctx context.Context, t transport.Transport, bobPts []points.Point, want *core.Params, kept *RobustKept) (*core.Result, *bobTables, error) {
	tr := trace.FromContext(ctx)
	sp := tr.Begin("sketch_recv")
	body, err := recvExpect(ctx, t, MsgSketch)
	if err != nil {
		return nil, nil, err
	}
	var sk core.Sketch
	if want != nil {
		err = sk.UnmarshalAs(body, *want)
	} else {
		err = sk.UnmarshalBinary(body)
	}
	if err != nil {
		return nil, nil, err
	}
	sp.End(trace.I("bytes", int64(len(body))))
	sp = tr.Begin("repair")
	view, err := core.NewView(sk.Params, bobPts)
	if err != nil {
		return nil, nil, err
	}
	mine, _ := kept.lend(view.Params(), bobPts)
	lent := 0
	for l := sk.Params.MinLevel; l <= sk.Params.MaxLevel; l++ {
		if mine.tables[l] != nil {
			lent++
		}
	}
	if kept != nil {
		tr.Stat(trace.StatKeptLevels, int64(lent))
	}
	had := len(mine.tables)
	res, err := view.ReconcileWith(&sk, mine.tables)
	if err != nil {
		if lent > 0 && errors.Is(err, core.ErrInconsistentSketch) {
			kept.tables, err = nil, fmt.Errorf("%w: %w", ErrKeptTablesStale, err)
		}
		return nil, nil, err
	}
	sp.End(trace.I("level", int64(res.Level)), trace.I("added", int64(len(res.Added))),
		trace.I("removed", int64(len(res.Removed))), trace.I("built", int64(len(mine.tables)-had)))
	tr.Stat("actual_diff", int64(len(res.Added)+len(res.Removed)))
	return res, mine, nil
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

// EstimateOpening is what one estimate-first session is served from: the
// way to the estimator and the table of any one level of a multiset.
type EstimateOpening struct {
	// Estimator returns the estimator of one level, of the size the
	// session was opened for, marshaled. The session only reads the bytes.
	Estimator func(level int) ([]byte, error)
	// Params are the multiset's normalized parameters. A request for a
	// level outside their range is refused with core.ErrLevelOutOfRange,
	// and one for a table that may not fit the transport's message limit
	// before the table is built.
	Params core.Params
	// LevelTable returns the table of one level marshaled, and whether
	// those bytes were cached rather than built. Like each Estimator call,
	// it may see a newer version of the multiset than an earlier call: the
	// fetching side then reconciles to the version its table describes if
	// the capacity it asked for still decodes, or retries.
	LevelTable func(level, capacity int) (reply []byte, cached bool, err error)
}

// OpenEstimates opens a fixed point multiset for estimator size k: one
// ordered view builds each level's estimator and table when asked.
func OpenEstimates(p core.Params, pts []points.Point, k int) (*EstimateOpening, error) {
	view, err := core.NewView(p, pts)
	if err != nil {
		return nil, err
	}
	return &EstimateOpening{
		Estimator: func(level int) ([]byte, error) {
			e, err := view.LevelEstimator(level, k)
			if err != nil {
				return nil, err
			}
			return e.MarshalBinary()
		},
		Params: view.Params(),
		LevelTable: func(level, capacity int) ([]byte, bool, error) {
			t, err := view.BuildLevelTable(level, capacity)
			if err != nil {
				return nil, false, err
			}
			blob, err := t.MarshalBinary()
			return blob, false, err
		},
	}, nil
}

// RunEstimateAlice serves Alice's side of the estimate-first protocol
// over her points: she answers estimator and level-table requests until
// Bob sends MsgDone.
func RunEstimateAlice(ctx context.Context, t transport.Transport, p core.Params, pts []points.Point) error {
	return RunEstimateServed(ctx, t, func(k int) (*EstimateOpening, error) { return OpenEstimates(p, pts, k) })
}

// estimatorK returns the estimator size an estimator request asks for.
func estimatorK(body []byte) (int, error) {
	if len(body) != 8 {
		return 0, errors.New("protocol: malformed estimator request")
	}
	k := int(binary.LittleEndian.Uint32(body))
	if k < minEstimatorK || k > maxEstimatorK {
		return 0, fmt.Errorf("protocol: estimator k %d outside [%d, %d]", k, minEstimatorK, maxEstimatorK)
	}
	return k, nil
}

// serveEstimators answers an estimator request of a session opened for
// size k with the window's estimators, coarsest first, and ends sp with
// their count.
func serveEstimators(ctx context.Context, t transport.Transport, sp trace.Region, o *EstimateOpening, k int, body []byte) error {
	if got, err := estimatorK(body); err != nil || got != k {
		return sendErr(ctx, t, cmp.Or(err, fmt.Errorf("protocol: estimator k %d in a session opened for %d", got, k)))
	}
	finest, count := int(binary.LittleEndian.Uint16(body[4:])), int(binary.LittleEndian.Uint16(body[6:]))
	if p := o.Params; count < 1 || finest > p.MaxLevel || finest-count+1 < p.MinLevel {
		return sendErr(ctx, t, fmt.Errorf("%w: estimator window of %d levels from %d outside [%d,%d]",
			core.ErrLevelOutOfRange, count, finest, p.MinLevel, p.MaxLevel))
	}
	blobs := make([][]byte, count)
	for i := range blobs {
		var err error
		if blobs[i], err = o.Estimator(finest - count + 1 + i); err != nil {
			return sendErr(ctx, t, err)
		}
	}
	if err := send(ctx, t, MsgEstimators, appendBlobList(nil, blobs)); err != nil {
		return err
	}
	sp.End(trace.I("levels", int64(count)))
	return nil
}

// RunEstimateServed is the serving side of the estimate-first protocol:
// open is called with the estimator size of the peer's first request, and
// every estimator and level request until MsgDone is answered from what
// it returns. An error from either is relayed to the peer.
func RunEstimateServed(ctx context.Context, t transport.Transport, open func(k int) (*EstimateOpening, error)) error {
	tr := trace.FromContext(ctx)
	sp := tr.Begin("estimate")
	body, err := recvExpect(ctx, t, MsgEstRequest)
	if err != nil {
		return err
	}
	var o *EstimateOpening
	k, err := estimatorK(body)
	if err == nil {
		o, err = open(k)
	}
	if err != nil {
		return sendErr(ctx, t, err)
	}
	if err := serveEstimators(ctx, t, sp, o, k, body); err != nil {
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
		case MsgEstRequest:
			if err := serveEstimators(ctx, t, tr.Begin("estimate"), o, k, body); err != nil {
				return err
			}
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
			// The table is built under the dataset's lock: one the reply
			// could not carry is refused before it is built. Under the
			// default frame limit that still admits one of ≈ 270 MB.
			p := o.Params
			size := 1 + iblt.MaxWireSize(iblt.RecommendedCells(capacity, p.HashCount), core.KeyLen(p.Universe.Dim))
			if limit := transport.MessageLimit(t); size > limit {
				return sendErr(ctx, t, fmt.Errorf("protocol: capacity %d: a table of up to %d bytes exceeds the %d-byte message limit", capacity, size, limit))
			}
			if level < p.MinLevel || level > p.MaxLevel {
				return sendErr(ctx, t, fmt.Errorf("%w: %d outside [%d,%d]", core.ErrLevelOutOfRange, level, p.MinLevel, p.MaxLevel))
			}
			blob, cached, err := o.LevelTable(level, capacity)
			if err != nil {
				return sendErr(ctx, t, err)
			}
			if err := send(ctx, t, MsgLevelTable, blob); err != nil {
				return err
			}
			round.End(trace.I("level", int64(level)), trace.I("capacity", int64(capacity)), trace.I("cached", boolStat(cached)))
		default:
			return sendErr(ctx, t, fmt.Errorf("%w: 0x%02x", ErrUnexpectedMessage, typ))
		}
	}
}

// RunEstimateBob drives Bob's side of the estimate-first protocol: pull
// estimators finest first to the first affordable level, fetch one
// exactly-sized table of it, reconcile — retrying with doubled capacity
// (and eventually a coarser level) if the table stalls.
func RunEstimateBob(ctx context.Context, t transport.Transport, p core.Params, bobPts []points.Point, opts EstimateOpts) (*core.Result, error) {
	return (*RobustKept)(nil).RunEstimateBob(ctx, t, p, bobPts, opts)
}

// RunEstimateBob is the package's RunEstimateBob keeping Bob's estimators
// and table in k as k.RunPushBob keeps his tables: the session takes what
// k holds of bobPts' multiset under p and opts.EstimatorK instead of
// building it, and on success leaves k the estimators the level choice
// read and the table that decoded.
func (k *RobustKept) RunEstimateBob(ctx context.Context, t transport.Transport, p core.Params, bobPts []points.Point, opts EstimateOpts) (*core.Result, error) {
	opts = opts.filled(p)
	tr := trace.FromContext(ctx)
	sp := tr.Begin("estimate")
	p, err := p.Normalized()
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	// Both sides' estimators by level − MinLevel, nil until fetched or
	// built. Alice's are asked for a window at a time from index asked
	// down: the finest level alone, then twice the last window's count,
	// clipped at MinLevel — at most ⌈log₂ L⌉ + 1 requests for L levels.
	theirs, mine := make([]*sketch.BottomK, p.MaxLevel-p.MinLevel+1), make([]*sketch.BottomK, p.MaxLevel-p.MinLevel+1)
	asked, window, requests, built := len(theirs), 0, 0, 0
	request := func() error {
		window, requests = min(max(1, 2*window), asked), requests+1
		asked -= window
		req := binary.LittleEndian.AppendUint32(nil, uint32(opts.EstimatorK))
		req = binary.LittleEndian.AppendUint16(req, uint16(p.MinLevel+asked+window-1))
		return send(ctx, t, MsgEstRequest, binary.LittleEndian.AppendUint16(req, uint16(window)))
	}
	// Alice builds her finest estimator while Bob sorts his view, which
	// serves his estimators, every level-table round and the repair.
	if err := request(); err != nil {
		return nil, err
	}
	view, err := core.NewView(p, bobPts)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	held, known := k.lend(p, bobPts)
	lent := 0
	for i := range mine {
		if known && k.estK == opts.EstimatorK {
			mine[i] = k.ests[p.MinLevel+i]
		}
		if mine[i] != nil || held.tables[p.MinLevel+i] != nil {
			lent++
		}
	}
	if k != nil {
		tr.Stat(trace.StatKeptLevels, int64(lent))
	}
	bob := func(i int) (e *sketch.BottomK, err error) {
		if e = mine[i]; e == nil {
			if e, err = view.LevelEstimator(p.MinLevel+i, opts.EstimatorK); err == nil {
				mine[i], built = e, built+1
			}
		}
		return e, err
	}
	// The level choice reads level i, Alice's first, once no finer level
	// was affordable; if not yet asked for, it is the finest of the next
	// window. Bob builds his level i, then the window's coarser ones until
	// Alice answers (none when he kept level i: he kept every level the
	// last choice read, and this one most likely stops where it did), in a
	// goroutine joined before mine is read again. A reply of another count
	// than the window, or an estimator of another size, seed or level, is
	// sketch.ErrIncompatibleSketch.
	alice := func(i int) (*sketch.BottomK, error) {
		if theirs[i] != nil {
			return theirs[i], nil
		}
		if i < asked {
			if err := request(); err != nil {
				return nil, err
			}
		}
		var answered atomic.Bool
		filled := make(chan error, 1)
		go func() {
			ahead := mine[i] == nil
			_, err := bob(i)
			for l := i - 1; err == nil && ahead && l >= asked; l-- {
				// On one processor whoever sets answered has had no turn; give it one.
				if runtime.Gosched(); answered.Load() {
					break
				}
				_, err = bob(l)
			}
			filled <- err
		}()
		body, err := recvExpect(ctx, t, MsgEstimators)
		answered.Store(true)
		if err = cmp.Or(err, <-filled); err != nil {
			return nil, err
		}
		blobs, err := parseBlobList(body)
		if err == nil && len(blobs) != window {
			err = fmt.Errorf("%w: %d estimators for a window of %d levels", sketch.ErrIncompatibleSketch, len(blobs), window)
		}
		for j := 0; err == nil && j < len(blobs); j++ {
			theirs[asked+j] = new(sketch.BottomK)
			if err = theirs[asked+j].UnmarshalBinary(blobs[j]); err != nil {
				err = fmt.Errorf("protocol: level %d estimator: %w", p.MinLevel+asked+j, err)
			}
		}
		return theirs[i], err
	}
	level, est, err := core.ChooseLevelLazy(p, alice, bob, opts.Budget)
	if err != nil {
		return nil, abort(ctx, t, err)
	}
	sp.End(trace.I("level", int64(level)), trace.I("est", int64(est)), trace.I("built", int64(built)),
		trace.I("fetched", int64(len(theirs)-asked)), trace.I("requests", int64(requests)))
	tr.Stat("estimated_diff", int64(est))
	// The choice read Bob's estimators of the chosen level and every finer one.
	read := make(map[int]*sketch.BottomK, p.MaxLevel-level+1)
	for l := level; l <= p.MaxLevel; l++ {
		read[l] = mine[l-p.MinLevel]
	}
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
		// Bob fills his table of the level while Alice fills hers, unless
		// he kept it.
		own := held.tables[level]
		kept := own != nil && own.Config().Cells == iblt.RecommendedCells(capacity, p.HashCount)
		if !kept {
			if own, err = view.BuildLevelTable(level, capacity); err != nil {
				return nil, abort(ctx, t, err)
			}
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
		switch {
		case errors.Is(rerr, core.ErrLevelTableMismatch):
			// Not a stalled decode: Alice served a table Bob did not ask
			// for, and a bigger request would not change that.
			return nil, abort(ctx, t, rerr)
		case kept && errors.Is(rerr, core.ErrInconsistentSketch):
			k.tables, k.ests = nil, nil
			return nil, abort(ctx, t, fmt.Errorf("%w: %w", ErrKeptTablesStale, rerr))
		case rerr == nil:
			if err := send(ctx, t, MsgDone, nil); err != nil {
				return nil, err
			}
			tr.Stat("actual_diff", int64(len(res.Added)+len(res.Removed)))
			if k != nil {
				k.params, k.print, k.tables = held.params, held.print, map[int]*iblt.Table{level: own}
				k.estK, k.ests = opts.EstimatorK, read
			}
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
