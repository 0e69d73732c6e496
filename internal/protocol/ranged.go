package protocol

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"robustset/internal/points"
	"robustset/internal/ranges"
	"robustset/internal/trace"
	"robustset/internal/transport"
)

// ---------------------------------------------------------------------
// Ranged divide-and-conquer reconciliation
//
// The ranged protocol reconciles over the total order induced by the
// Morton key encoding (internal/ranges): the fetching side probes key
// ranges with (count, fingerprint) aggregates, the serving side answers
// each probe with "equal", a k-way split of its own keys in the range
// (child boundaries as minimal distinguishing prefixes, each child
// carrying its aggregate), or — once its count is at most ItemLimit —
// the exact keys. Only mismatched ranges recurse, so for a difference of
// size D in a set of N keys the wire cost is O(D·k·log_k N) fingerprint
// entries plus O(D·ItemLimit) transferred keys, independent of N up to
// the log factor — the regime where sized sketches (strata + IBLT)
// drown in estimator overhead.
//
// Wire shape (Bob fetches from Alice):
//
//	loop:  Bob → MsgRangeFingerprints(batch of range probes)
//	       Alice → MsgRangeFingerprints(per-probe: equal | split | items-pending)
//	       Alice → MsgRangeItems(keys of the items-pending probes)   [if any]
//	until no mismatched ranges remain, then Bob → MsgDone.
//
// A whole round's probes travel in one frame, so the round count is the
// recursion depth O(log_k N), not the number of mismatched ranges; the
// Serial knob restores the classic one-probe-per-round ping-pong for
// comparison. Disjoint sibling scopes can be reconciled concurrently on
// parallel mux streams sharing one read-only fetching-side tree
// (RunRangedBobScoped).

// Ranged message tags.
const (
	// MsgRangeFingerprints carries range probes (fetching side) or the
	// per-probe verdicts with k-way split fingerprints (serving side).
	MsgRangeFingerprints byte = 0x14
	// MsgRangeItems carries the exact keys of ranges small enough to
	// terminate by item transfer.
	MsgRangeItems byte = 0x15
)

func init() {
	trace.RegisterFrameName(MsgRangeFingerprints, "RANGE_FPS")
	trace.RegisterFrameName(MsgRangeItems, "RANGE_ITEMS")
}

// Ranged protocol sizing defaults and ceilings.
const (
	// DefaultRangedBranch is the default k of the k-way split.
	DefaultRangedBranch = 8
	// DefaultRangedItemLimit is the default range size at which the
	// serving side stops splitting and transfers exact keys.
	DefaultRangedItemLimit = 16
	// MaxRangedBranch bounds the negotiable split fan-out.
	MaxRangedBranch = 64
	// MaxRangedItemLimit bounds the negotiable item-transfer threshold.
	MaxRangedItemLimit = 4096
	// maxRangeProbes bounds the probes of a single frame in either
	// direction (allocation guard).
	maxRangeProbes = 8192
	// maxTotalRangeProbes bounds a session's total probes: an honest
	// exchange recurses past it only for differences far beyond what
	// item transfer would have satisfied, so tripping it means a
	// misbehaving peer.
	maxTotalRangeProbes = 1 << 20
)

// Per-probe verdict kinds in the serving side's reply.
const (
	rangeEqual        byte = 0 // aggregates match; subtree reconciled
	rangeSplit        byte = 1 // k-way split with child aggregates follows
	rangeItemsPending byte = 2 // exact keys follow in MsgRangeItems
)

// RangedConfig parameterizes ranged reconciliation. Both endpoints must
// agree on Universe, Seed, Branch and ItemLimit (a server session
// adopts the latter two from the hello).
type RangedConfig struct {
	Universe points.Universe
	// Seed fixes the fingerprint hash; both parties must share it.
	Seed uint64
	// Branch is the split fan-out k (0 → 8).
	Branch int
	// ItemLimit is the serving-side range size at which splitting stops
	// and exact keys are transferred (0 → 16).
	ItemLimit int
	// Serial makes the fetching side probe one range per round trip —
	// the classic recursive ping-pong — instead of batching every
	// mismatched range of a recursion level into one frame. It exists
	// for latency comparisons; leave it false.
	Serial bool
}

func (c RangedConfig) filled() RangedConfig {
	if c.Branch == 0 {
		c.Branch = DefaultRangedBranch
	}
	if c.ItemLimit == 0 {
		c.ItemLimit = DefaultRangedItemLimit
	}
	return c
}

// validate rejects configurations outside the wire contract; it runs on
// both sides because a server derives the knobs from an untrusted hello.
func (c RangedConfig) validate() error {
	if c.Branch < 2 || c.Branch > MaxRangedBranch {
		return fmt.Errorf("protocol: ranged branch %d outside [2,%d]", c.Branch, MaxRangedBranch)
	}
	if c.ItemLimit < 1 || c.ItemLimit > MaxRangedItemLimit {
		return fmt.Errorf("protocol: ranged item limit %d outside [1,%d]", c.ItemLimit, MaxRangedItemLimit)
	}
	if ranges.KeyLen(c.Universe.Dim) >= 0xff {
		return fmt.Errorf("protocol: ranged sync requires dimension < %d", (0xff-4)/8)
	}
	return nil
}

func (c RangedConfig) keyLen() int { return ranges.KeyLen(c.Universe.Dim) }

// BuildRangeTree builds the fingerprint tree of pts under the config's
// public coins — the structure both endpoints answer probes from.
func BuildRangeTree(cfg RangedConfig, pts []points.Point) (*ranges.Tree, error) {
	cfg = cfg.filled()
	return ranges.NewFromSorted(cfg.keyLen(),
		ranges.FingerprintSeed(cfg.Seed), ranges.Keys(cfg.Universe, pts))
}

// TreeView hands a consistent view of the serving side's range tree to
// fn. Server implementations hold the dataset lock for the duration of
// fn, so each reply round is atomic against writers; the tree may
// advance between rounds, which only re-opens ranges in later probes.
type TreeView func(fn func(*ranges.Tree) error) error

// StaticTreeView wraps an immutable tree as a TreeView.
func StaticTreeView(tree *ranges.Tree) TreeView {
	return func(fn func(*ranges.Tree) error) error { return fn(tree) }
}

// ---------------------------------------------------------------------
// Frame encodings

// uvarint decodes one varint and returns the remainder.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("protocol: malformed varint")
	}
	return v, b[n:], nil
}

// appendBound encodes a range bound: u8 prefix length + the minimal
// distinguishing prefix (zero-padded semantics under bytewise compare),
// with 0xFF marking the above-every-key top bound.
func appendBound(dst []byte, b []byte, keyLen int) []byte {
	if len(b) > keyLen {
		return append(dst, 0xFF)
	}
	dst = append(dst, byte(len(b)))
	return append(dst, b...)
}

// parseBound decodes one bound, copying it out of the frame buffer
// (bounds outlive the round that carried them).
func parseBound(b []byte, keyLen int) ([]byte, []byte, error) {
	if len(b) < 1 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	l := int(b[0])
	if l == 0xFF {
		return ranges.TopBound(keyLen), b[1:], nil
	}
	if l > keyLen {
		return nil, nil, errors.New("protocol: range bound longer than key")
	}
	if len(b) < 1+l {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return append([]byte(nil), b[1:1+l]...), b[1+l:], nil
}

// rangeProbe is one fetched-side probe: a half-open key range [lo, hi)
// and the prober's local aggregate over it.
type rangeProbe struct {
	lo, hi []byte
	agg    ranges.Agg
}

func appendRangeProbes(dst []byte, probes []rangeProbe, keyLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(probes)))
	for _, p := range probes {
		dst = appendBound(dst, p.lo, keyLen)
		dst = appendBound(dst, p.hi, keyLen)
		dst = binary.AppendUvarint(dst, p.agg.Count)
		dst = binary.LittleEndian.AppendUint64(dst, p.agg.Fp)
	}
	return dst
}

func parseRangeProbes(body []byte, keyLen int) ([]rangeProbe, error) {
	n, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	if n < 1 || n > maxRangeProbes {
		return nil, fmt.Errorf("protocol: %d range probes outside [1,%d]", n, maxRangeProbes)
	}
	// Every probe costs at least 11 encoded bytes; reject counts the
	// payload cannot hold before allocating.
	if n > uint64(len(body)/11)+1 {
		return nil, errors.New("protocol: range probe count exceeds payload")
	}
	probes := make([]rangeProbe, 0, n)
	for i := uint64(0); i < n; i++ {
		var p rangeProbe
		if p.lo, body, err = parseBound(body, keyLen); err != nil {
			return nil, err
		}
		if p.hi, body, err = parseBound(body, keyLen); err != nil {
			return nil, err
		}
		if p.agg.Count, body, err = uvarint(body); err != nil {
			return nil, err
		}
		if len(body) < 8 {
			return nil, io.ErrUnexpectedEOF
		}
		p.agg.Fp = binary.LittleEndian.Uint64(body)
		body = body[8:]
		if bytes.Compare(p.lo, p.hi) >= 0 {
			return nil, errors.New("protocol: empty range probe")
		}
		probes = append(probes, p)
	}
	if len(body) != 0 {
		return nil, errors.New("protocol: trailing bytes after range probes")
	}
	return probes, nil
}

// rangeReplyEntry is the serving side's verdict on one probe.
type rangeReplyEntry struct {
	kind   byte
	bounds [][]byte     // rangeSplit: the k-1 inner child boundaries
	aggs   []ranges.Agg // rangeSplit: the k child aggregates
}

func appendRangeReply(dst []byte, entries []rangeReplyEntry, keyLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = append(dst, e.kind)
		if e.kind != rangeSplit {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(len(e.aggs)))
		for _, b := range e.bounds {
			dst = appendBound(dst, b, keyLen)
		}
		for _, a := range e.aggs {
			dst = binary.AppendUvarint(dst, a.Count)
			dst = binary.LittleEndian.AppendUint64(dst, a.Fp)
		}
	}
	return dst
}

func parseRangeReply(body []byte, keyLen int) ([]rangeReplyEntry, error) {
	n, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	if n < 1 || n > maxRangeProbes {
		return nil, fmt.Errorf("protocol: %d range verdicts outside [1,%d]", n, maxRangeProbes)
	}
	if n > uint64(len(body))+1 {
		return nil, errors.New("protocol: range verdict count exceeds payload")
	}
	entries := make([]rangeReplyEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(body) < 1 {
			return nil, io.ErrUnexpectedEOF
		}
		e := rangeReplyEntry{kind: body[0]}
		body = body[1:]
		switch e.kind {
		case rangeEqual, rangeItemsPending:
		case rangeSplit:
			k, rest, err := uvarint(body)
			if err != nil {
				return nil, err
			}
			body = rest
			if k < 2 || k > MaxRangedBranch {
				return nil, fmt.Errorf("protocol: range split into %d outside [2,%d]", k, MaxRangedBranch)
			}
			e.bounds = make([][]byte, 0, k-1)
			e.aggs = make([]ranges.Agg, 0, k)
			for j := uint64(1); j < k; j++ {
				var b []byte
				if b, body, err = parseBound(body, keyLen); err != nil {
					return nil, err
				}
				e.bounds = append(e.bounds, b)
			}
			for j := uint64(0); j < k; j++ {
				var a ranges.Agg
				if a.Count, body, err = uvarint(body); err != nil {
					return nil, err
				}
				if len(body) < 8 {
					return nil, io.ErrUnexpectedEOF
				}
				a.Fp = binary.LittleEndian.Uint64(body)
				body = body[8:]
				e.aggs = append(e.aggs, a)
			}
		default:
			return nil, fmt.Errorf("protocol: unknown range verdict 0x%02x", e.kind)
		}
		entries = append(entries, e)
	}
	if len(body) != 0 {
		return nil, errors.New("protocol: trailing bytes after range verdicts")
	}
	return entries, nil
}

// rangeItemGroup carries the serving side's exact keys for one
// items-pending probe, identified by its index in the probe frame.
type rangeItemGroup struct {
	probe int
	keys  [][]byte
}

func appendRangeItems(dst []byte, groups []rangeItemGroup, keyLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(groups)))
	for _, g := range groups {
		dst = binary.AppendUvarint(dst, uint64(g.probe))
		dst = binary.AppendUvarint(dst, uint64(len(g.keys)))
		for _, k := range g.keys {
			dst = append(dst, k...)
		}
	}
	return dst
}

// parseRangeItems decodes an items frame. The returned keys alias body;
// the caller copies what it retains past the round.
func parseRangeItems(body []byte, keyLen int) ([]rangeItemGroup, error) {
	n, body, err := uvarint(body)
	if err != nil {
		return nil, err
	}
	if n < 1 || n > maxRangeProbes {
		return nil, fmt.Errorf("protocol: %d item groups outside [1,%d]", n, maxRangeProbes)
	}
	if n > uint64(len(body))+1 {
		return nil, errors.New("protocol: item group count exceeds payload")
	}
	groups := make([]rangeItemGroup, 0, n)
	prev := -1
	for i := uint64(0); i < n; i++ {
		idx, rest, err := uvarint(body)
		if err != nil {
			return nil, err
		}
		body = rest
		if idx > maxRangeProbes || int(idx) <= prev {
			return nil, errors.New("protocol: item group probe indexes not ascending")
		}
		prev = int(idx)
		cnt, rest, err := uvarint(body)
		if err != nil {
			return nil, err
		}
		body = rest
		if cnt > MaxRangedItemLimit {
			return nil, fmt.Errorf("protocol: item group of %d keys exceeds %d", cnt, MaxRangedItemLimit)
		}
		need := int(cnt) * keyLen
		if len(body) < need {
			return nil, io.ErrUnexpectedEOF
		}
		g := rangeItemGroup{probe: int(idx), keys: make([][]byte, 0, cnt)}
		for j := 0; j < int(cnt); j++ {
			k := body[j*keyLen : (j+1)*keyLen]
			if j > 0 && bytes.Compare(g.keys[j-1], k) >= 0 {
				return nil, errors.New("protocol: item group keys not strictly ascending")
			}
			g.keys = append(g.keys, k)
		}
		body = body[need:]
		groups = append(groups, g)
	}
	if len(body) != 0 {
		return nil, errors.New("protocol: trailing bytes after item groups")
	}
	return groups, nil
}

// ---------------------------------------------------------------------
// Serving side (Alice)

// RunRangedAlice serves ranged sync from a point multiset: it builds the
// fingerprint tree once and answers probe rounds until MsgDone.
func RunRangedAlice(ctx context.Context, t transport.Transport, cfg RangedConfig, pts []points.Point) error {
	cfg = cfg.filled()
	if err := cfg.validate(); err != nil {
		return sendErr(ctx, t, err)
	}
	if err := cfg.Universe.CheckSet(pts); err != nil {
		return sendErr(ctx, t, err)
	}
	sp := trace.FromContext(ctx).Begin("range_tree_build")
	tree, err := BuildRangeTree(cfg, pts)
	if err != nil {
		return sendErr(ctx, t, err)
	}
	sp.End(trace.I("keys", int64(tree.Len())))
	return RunRangedAliceView(ctx, t, cfg, StaticTreeView(tree))
}

// RunRangedAliceView serves ranged sync from a TreeView — the form a
// server uses to answer from its incrementally maintained dataset tree
// under round-scoped locking.
func RunRangedAliceView(ctx context.Context, t transport.Transport, cfg RangedConfig, view TreeView) error {
	cfg = cfg.filled()
	if err := cfg.validate(); err != nil {
		return sendErr(ctx, t, err)
	}
	tr := trace.FromContext(ctx)
	keyLen := cfg.keyLen()
	var replyBuf, itemsBuf []byte
	served := 0
	for {
		typ, body, err := recv(ctx, t)
		if err != nil {
			return err
		}
		switch typ {
		case MsgDone:
			return nil
		case MsgRangeFingerprints:
			round := tr.Begin("range_round")
			tr.Stat("rounds", 1)
			probes, err := parseRangeProbes(body, keyLen)
			if err != nil {
				return sendErr(ctx, t, err)
			}
			if served += len(probes); served > maxTotalRangeProbes {
				return sendErr(ctx, t, fmt.Errorf("protocol: ranged session exceeded %d probes", maxTotalRangeProbes))
			}
			entries := make([]rangeReplyEntry, len(probes))
			var groups []rangeItemGroup
			verr := view(func(tree *ranges.Tree) error {
				if tree.KeyLen() != keyLen {
					return errors.New("protocol: range tree key length mismatch")
				}
				for i, p := range probes {
					entries[i] = answerRangeProbe(tree, cfg, p, i, &groups)
				}
				return nil
			})
			if verr != nil {
				return sendErr(ctx, t, verr)
			}
			replyBuf = appendRangeReply(replyBuf[:0], entries, keyLen)
			if err := send(ctx, t, MsgRangeFingerprints, replyBuf); err != nil {
				return err
			}
			if len(groups) > 0 {
				itemsBuf = appendRangeItems(itemsBuf[:0], groups, keyLen)
				if err := send(ctx, t, MsgRangeItems, itemsBuf); err != nil {
					return err
				}
			}
			round.End(trace.I("probes", int64(len(probes))), trace.I("item_groups", int64(len(groups))))
		default:
			return sendErr(ctx, t, fmt.Errorf("%w: 0x%02x", ErrUnexpectedMessage, typ))
		}
	}
}

// answerRangeProbe produces the serving side's verdict on one probe:
// equal, an equal-count k-way split with per-child aggregates, or the
// exact keys once the range holds at most ItemLimit of them.
func answerRangeProbe(tree *ranges.Tree, cfg RangedConfig, p rangeProbe, idx int, groups *[]rangeItemGroup) rangeReplyEntry {
	agg := tree.Agg(p.lo, p.hi)
	if agg == p.agg {
		return rangeReplyEntry{kind: rangeEqual}
	}
	if agg.Count <= uint64(cfg.ItemLimit) {
		*groups = append(*groups, rangeItemGroup{probe: idx, keys: tree.AppendRange(nil, p.lo, p.hi)})
		return rangeReplyEntry{kind: rangeItemsPending}
	}
	k := cfg.Branch
	if uint64(k) > agg.Count {
		k = int(agg.Count)
	}
	e := rangeReplyEntry{
		kind:   rangeSplit,
		bounds: make([][]byte, 0, k-1),
		aggs:   make([]ranges.Agg, 0, k),
	}
	r0 := tree.Rank(p.lo)
	prev := p.lo
	for i := 1; i <= k; i++ {
		b := p.hi
		if i < k {
			// Boundary before the key at the i/k quantile rank, truncated
			// to the shortest prefix separating it from its predecessor.
			at := r0 + i*int(agg.Count)/k
			b = ranges.CutBetween(tree.At(at-1), tree.At(at))
			e.bounds = append(e.bounds, b)
		}
		e.aggs = append(e.aggs, tree.Agg(prev, b))
		prev = b
	}
	return e
}

// ---------------------------------------------------------------------
// Fetching side (Bob)

// RunRangedBob drives the fetching side of ranged sync over the full key
// space and returns Bob's reconciled multiset (equal to Alice's exactly
// on success) plus the number of probe round trips.
func RunRangedBob(ctx context.Context, t transport.Transport, cfg RangedConfig, bobPts []points.Point) ([]points.Point, int, error) {
	cfg = cfg.filled()
	tr := trace.FromContext(ctx)
	if err := cfg.validate(); err != nil {
		return nil, 0, abort(ctx, t, err)
	}
	if err := cfg.Universe.CheckSet(bobPts); err != nil {
		return nil, 0, abort(ctx, t, err)
	}
	sp := tr.Begin("range_tree_build")
	tree, err := BuildRangeTree(cfg, bobPts)
	if err != nil {
		return nil, 0, abort(ctx, t, err)
	}
	sp.End(trace.I("keys", int64(tree.Len())))
	add, rem, rounds, err := runRangedScope(ctx, t, cfg, tree, nil, ranges.TopBound(cfg.keyLen()))
	if err != nil {
		return nil, rounds, err
	}
	ap := tr.Begin("apply")
	res, err := ApplyRangedDiff(cfg.Universe, bobPts, add, rem)
	if err != nil {
		return nil, rounds, abort(ctx, t, err)
	}
	ap.End(trace.I("added", int64(len(add))), trace.I("removed", int64(len(rem))))
	tr.Stat("actual_diff", int64(len(add)+len(rem)))
	return res, rounds, send(ctx, t, MsgDone, nil)
}

// RunRangedBobScoped reconciles only the keys in [lo, hi) against the
// serving peer on this transport and closes the session with MsgDone —
// the per-stream unit of mux-pipelined sync, where disjoint sibling
// scopes run concurrently sharing one read-only local tree. It returns
// the remote-only and local-only key lists of the scope (the caller
// merges scopes and applies once) and the stream's round-trip count.
func RunRangedBobScoped(ctx context.Context, t transport.Transport, cfg RangedConfig, tree *ranges.Tree, lo, hi []byte) (add, rem [][]byte, rounds int, err error) {
	cfg = cfg.filled()
	if err := cfg.validate(); err != nil {
		return nil, nil, 0, abort(ctx, t, err)
	}
	add, rem, rounds, err = runRangedScope(ctx, t, cfg, tree, lo, hi)
	if err != nil {
		return nil, nil, rounds, err
	}
	return add, rem, rounds, send(ctx, t, MsgDone, nil)
}

// runRangedScope runs probe rounds over [lo, hi) until every mismatched
// subrange is resolved, returning the keys Alice has and Bob lacks
// (add), the keys Bob holds and Alice lacks (rem), and the round count.
func runRangedScope(ctx context.Context, t transport.Transport, cfg RangedConfig, tree *ranges.Tree, lo, hi []byte) (add, rem [][]byte, rounds int, err error) {
	tr := trace.FromContext(ctx)
	keyLen := cfg.keyLen()
	active := []rangeProbe{{lo: lo, hi: hi, agg: tree.Agg(lo, hi)}}
	var probeBuf []byte
	var local [][]byte
	sent := 0
	for len(active) > 0 {
		batch := active
		if cfg.Serial {
			batch = active[:1]
		} else if len(batch) > maxRangeProbes {
			batch = active[:maxRangeProbes]
		}
		pending := active[len(batch):]
		if sent += len(batch); sent > maxTotalRangeProbes {
			return nil, nil, rounds, abort(ctx, t, fmt.Errorf("protocol: ranged sync exceeded %d probes", maxTotalRangeProbes))
		}
		round := tr.Begin("range_round")
		tr.Stat("rounds", 1)
		probeBuf = appendRangeProbes(probeBuf[:0], batch, keyLen)
		if err := send(ctx, t, MsgRangeFingerprints, probeBuf); err != nil {
			return nil, nil, rounds, err
		}
		body, err := recvExpect(ctx, t, MsgRangeFingerprints)
		if err != nil {
			return nil, nil, rounds, err
		}
		rounds++
		entries, err := parseRangeReply(body, keyLen)
		if err != nil {
			return nil, nil, rounds, abort(ctx, t, err)
		}
		if len(entries) != len(batch) {
			return nil, nil, rounds, abort(ctx, t, fmt.Errorf("protocol: %d range verdicts for %d probes", len(entries), len(batch)))
		}
		var itemIdx []int
		splits := 0
		for i, e := range entries {
			p := batch[i]
			switch e.kind {
			case rangeEqual:
				// The peer saw our aggregate and certified the match.
			case rangeItemsPending:
				itemIdx = append(itemIdx, i)
			case rangeSplit:
				splits++
				prev := p.lo
				for j := 0; j <= len(e.bounds); j++ {
					b := p.hi
					if j < len(e.bounds) {
						b = e.bounds[j]
						if bytes.Compare(b, prev) <= 0 || bytes.Compare(b, p.hi) >= 0 {
							return nil, nil, rounds, abort(ctx, t, errors.New("protocol: range split bounds not ascending within probe"))
						}
					}
					la := tree.Agg(prev, b)
					if la != e.aggs[j] {
						pending = append(pending, rangeProbe{lo: prev, hi: b, agg: la})
					}
					prev = b
				}
			}
		}
		if len(itemIdx) > 0 {
			ibody, err := recvExpect(ctx, t, MsgRangeItems)
			if err != nil {
				return nil, nil, rounds, err
			}
			groups, err := parseRangeItems(ibody, keyLen)
			if err != nil {
				return nil, nil, rounds, abort(ctx, t, err)
			}
			if len(groups) != len(itemIdx) {
				return nil, nil, rounds, abort(ctx, t, fmt.Errorf("protocol: %d item groups for %d pending probes", len(groups), len(itemIdx)))
			}
			for gi, g := range groups {
				if g.probe != itemIdx[gi] {
					return nil, nil, rounds, abort(ctx, t, errors.New("protocol: item group for a probe not marked items-pending"))
				}
				p := batch[g.probe]
				if len(g.keys) > 0 &&
					(bytes.Compare(g.keys[0], p.lo) < 0 || bytes.Compare(g.keys[len(g.keys)-1], p.hi) >= 0) {
					return nil, nil, rounds, abort(ctx, t, errors.New("protocol: item key outside its probed range"))
				}
				local = tree.AppendRange(local[:0], p.lo, p.hi)
				ai, bi := 0, 0
				for ai < len(g.keys) && bi < len(local) {
					switch c := bytes.Compare(g.keys[ai], local[bi]); {
					case c == 0:
						ai++
						bi++
					case c < 0:
						add = append(add, append([]byte(nil), g.keys[ai]...))
						ai++
					default:
						rem = append(rem, local[bi])
						bi++
					}
				}
				for ; ai < len(g.keys); ai++ {
					add = append(add, append([]byte(nil), g.keys[ai]...))
				}
				rem = append(rem, local[bi:]...)
			}
		}
		round.End(trace.I("probes", int64(len(batch))),
			trace.I("splits", int64(splits)), trace.I("item_groups", int64(len(itemIdx))))
		active = pending
	}
	return add, rem, rounds, nil
}

// ApplyRangedDiff applies a reconciled key diff to the fetching side's
// multiset: every rem key (one of Bob's own, occurrence-indexed) drops
// one occurrence, every add key decodes into a point to append. On
// success the result equals the serving side's multiset over the
// reconciled scope.
func ApplyRangedDiff(u points.Universe, bobPts []points.Point, add, rem [][]byte) ([]points.Point, error) {
	kl := ranges.KeyLen(u.Dim)
	drop := make(map[string]int, len(rem))
	for _, k := range rem {
		if len(k) != kl {
			return nil, errors.New("protocol: malformed removal key")
		}
		drop[string(k[:kl-4])]++
	}
	out := make([]points.Point, 0, len(bobPts)+len(add)-len(rem))
	var keyBuf []byte
	for _, p := range bobPts {
		if len(drop) > 0 {
			keyBuf = ranges.EncodeKey(keyBuf[:0], p, 0)
			enc := string(keyBuf[:kl-4])
			if drop[enc] > 0 {
				drop[enc]--
				continue
			}
		}
		out = append(out, p)
	}
	for enc, n := range drop {
		if n != 0 {
			_ = enc
			return nil, errors.New("protocol: removal names a point the fetching side does not hold")
		}
	}
	for _, k := range add {
		p, _, err := ranges.DecodeKey(k, u.Dim)
		if err != nil {
			return nil, err
		}
		if !u.Contains(p) {
			return nil, errors.New("protocol: peer sent a point outside the universe")
		}
		out = append(out, p)
	}
	return out, nil
}
