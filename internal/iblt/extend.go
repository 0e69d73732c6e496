// Rateless (extendable) IBLT: an IBLT whose cell array is a prefix of an
// unbounded stream of coded cells, so a sender can keep emitting "the next
// R cells" until the receiver's peeling succeeds — communication then
// tracks the actual difference instead of an up-front estimate.
//
// The construction follows the rateless-coding view of set reconciliation
// (Lázaro & Matuz's rate-compatible sketches; Yang et al.'s rateless
// IBLTs): every key participates in coded cell 0 and then in an infinite
// pseudorandom index sequence whose gaps grow geometrically, giving cell i
// an expected per-key participation probability of Θ(1/i). A difference of
// d keys therefore loads the cells around index d with Θ(1) keys — the
// regime where peeling starts — and decodes after Θ(d) cells whatever d
// turns out to be, with no parameter chosen in advance. All randomness
// derives from the shared seed, exactly like Table: the stream is part of
// the public-coins wire contract.
package iblt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"robustset/internal/hashutil"
)

// ExtendConfig describes a rateless cell stream. Two parties can combine
// streams only if their configs are identical.
type ExtendConfig struct {
	// KeyLen is the exact byte length of every key.
	KeyLen int
	// Seed keys the digest, checksum and index-sequence derivations.
	Seed uint64
}

// Validate checks the configuration.
func (c ExtendConfig) Validate() error {
	if c.KeyLen < 1 {
		return fmt.Errorf("iblt: rateless key length %d < 1", c.KeyLen)
	}
	return nil
}

// MaxStreamCells bounds the total number of cells a decoder will accept;
// a peer streaming beyond it is treated as corrupt (a genuine difference
// of this size would have decoded long before).
const MaxStreamCells = 1 << 26

// maxSeqIndex caps a key's cell-index sequence. Indices grow by a random
// factor per step, so the cap only matters as an overflow guard — the
// decoder never holds more than MaxStreamCells cells anyway.
const maxSeqIndex = int64(1) << 40

// codedSeq walks one key's participation indices: idx is the current
// (participating) cell index, rng the sequence's PRNG state.
type codedSeq struct {
	idx int64
	rng uint64
}

// newSeq starts a key's sequence: every key participates in cell 0, which
// is what lets "all received cells are zero" certify a complete decode.
func newSeq(h, salt uint64) codedSeq {
	return codedSeq{idx: 0, rng: h ^ salt}
}

// next advances to the key's next participating index. With u uniform in
// [0,1), the jump idx → idx + (idx+1.5)·(1/√(1−u) − 1) multiplies idx+1.5
// by 1/√(1−u), so ln(idx) grows by E[−½·ln(1−u)] = ½ per step: a key hits
// Θ(log M) of the first M cells and cell i is hit with probability Θ(1/i).
func (s *codedSeq) next() {
	s.rng = hashutil.SplitMix64(s.rng)
	u := float64(s.rng>>11) / (1 << 53) // uniform [0,1)
	grow := 1/math.Sqrt(1-u) - 1
	nf := float64(s.idx) + (float64(s.idx)+1.5)*grow
	switch {
	case nf < float64(s.idx+1):
		s.idx++
	case nf >= float64(maxSeqIndex):
		s.idx = maxSeqIndex
	default:
		s.idx = int64(nf)
	}
}

// CellBlock is a contiguous range of coded cells [Start, Start+Len()) in
// the canonical cell layout (count, key sum, checksum — the same cell
// shape as Table's, and the same codec on the wire).
type CellBlock struct {
	Start   int
	KeyLen  int
	Counts  []int64
	KeySums []byte // Len() × KeyLen, flat
	Checks  []uint64
}

// Len returns the number of cells in the block.
func (b *CellBlock) Len() int { return len(b.Counts) }

func newCellBlock(start, n, keyLen int) *CellBlock {
	return &CellBlock{
		Start:   start,
		KeyLen:  keyLen,
		Counts:  make([]int64, n),
		KeySums: make([]byte, n*keyLen),
		Checks:  make([]uint64, n),
	}
}

// grown returns s resized to n elements, zeroed, reusing its backing
// array when capacity allows.
func grown[T int64 | uint64 | byte](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// resetTo re-shapes the block to cover n cells starting at start,
// reusing its slices when they are big enough — the in-place form of
// newCellBlock that lets long-lived serving loops emit and parse
// blocks without per-block allocations.
func (b *CellBlock) resetTo(start, n, keyLen int) {
	b.Start = start
	b.KeyLen = keyLen
	b.Counts = grown(b.Counts, n)
	b.KeySums = grown(b.KeySums, n*keyLen)
	b.Checks = grown(b.Checks, n)
}

// apply folds one key occurrence into cell i of the block.
func (b *CellBlock) apply(i int, key []byte, chk uint64, sign int64) {
	b.Counts[i] += sign
	xorInto(b.KeySums[i*b.KeyLen:(i+1)*b.KeyLen], key)
	b.Checks[i] ^= chk
}

// Slice returns cells [lo, hi) of the block as a block of their own that
// shares b's storage.
func (b *CellBlock) Slice(lo, hi int) *CellBlock {
	return &CellBlock{
		Start:   b.Start + lo,
		KeyLen:  b.KeyLen,
		Counts:  b.Counts[lo:hi],
		KeySums: b.KeySums[lo*b.KeyLen : hi*b.KeyLen],
		Checks:  b.Checks[lo:hi],
	}
}

const (
	// blockMagic identifies the cell-block wire format. It is versioned
	// independently of the table magic: the cells are in the same codec,
	// but the index-sequence derivation is part of this format. "IBX2"
	// replaced "IBX1" with the cell codec.
	blockMagic      = "IBX2"
	blockHeaderSize = 4 + 4 + 4 + 2 // magic, start u32, count u32, keyLen u16
)

// WireSize returns the number of bytes MarshalBinary produces for the
// block's present contents; MaxWireSize bounds it.
func (b *CellBlock) WireSize() int {
	return blockHeaderSize + cellsWireSize(b.Counts, b.KeySums, b.KeyLen)
}

// MarshalBinary encodes the block:
//
//	"IBX2" | start u32 | count u32 | keyLen u16 | count cells in the cell codec
func (b *CellBlock) MarshalBinary() ([]byte, error) {
	return b.AppendBinary(nil)
}

// AppendBinary appends the wire encoding to dst and returns the
// extended slice — MarshalBinary into a caller-reused buffer.
func (b *CellBlock) AppendBinary(dst []byte) ([]byte, error) {
	var buf [liveScratch]int
	live := liveColumns(buf[:0], b.KeySums, b.KeyLen)
	dst = slices.Grow(dst, blockHeaderSize+cellsSize(b.Counts, len(live), b.KeyLen))
	dst = append(dst, blockMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Start))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.Len()))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(b.KeyLen))
	return appendCells(dst, live, b.Counts, b.KeySums, b.Checks, b.KeyLen)
}

// blockShape returns the start, cell count and key length a marshalled
// block declares, with no cell decoded.
func blockShape(data []byte) (start, n, keyLen int, err error) {
	if len(data) < blockHeaderSize || string(data[:4]) != blockMagic {
		return 0, 0, 0, errors.New("iblt: block unmarshal: bad magic or short header")
	}
	start = int(binary.LittleEndian.Uint32(data[4:]))
	n = int(binary.LittleEndian.Uint32(data[8:]))
	keyLen = int(binary.LittleEndian.Uint16(data[12:]))
	if keyLen < 1 {
		return 0, 0, 0, fmt.Errorf("iblt: block unmarshal: key length %d < 1", keyLen)
	}
	if start > MaxStreamCells || n > MaxStreamCells {
		return 0, 0, 0, fmt.Errorf("iblt: block unmarshal: start %d / count %d beyond stream bound", start, n)
	}
	return start, n, keyLen, nil
}

// UnmarshalWithin parses MarshalBinary output for a receiver that knows
// what it asked for: cells of its stream's key length, maxCells of them
// at most. A block that declares anything else is refused with ErrShape
// on its header, so no peer's header sizes an allocation. The receiver's
// slices are reused when big enough, so parsing successive blocks into
// one CellBlock allocates nothing at steady state; on error its contents
// are unspecified.
func (b *CellBlock) UnmarshalWithin(data []byte, keyLen, maxCells int) error {
	start, n, declared, err := blockShape(data)
	if err != nil {
		return err
	}
	if declared != keyLen || n > maxCells {
		return fmt.Errorf("%w: block of %d cells, key length %d; want at most %d of key length %d",
			ErrShape, n, declared, maxCells, keyLen)
	}
	if err := checkCellsLen(data[blockHeaderSize:], n, keyLen); err != nil {
		return err
	}
	b.resetTo(start, n, keyLen)
	return decodeCells(data[blockHeaderSize:], b.Counts, b.KeySums, b.Checks, keyLen)
}

// UnmarshalBinary is UnmarshalWithin with nothing expected: the declared
// cell count must fit the buffer at nine bytes a cell, so the block is
// at most (KeyLen+16)/9 times the bytes received, KeyLen being whatever
// the blob says.
func (b *CellBlock) UnmarshalBinary(data []byte) error {
	_, _, keyLen, err := blockShape(data)
	if err != nil {
		return err
	}
	return b.UnmarshalWithin(data, keyLen, MaxStreamCells)
}

// streamKey is one key's per-stream state in a CellStream.
type streamKey struct {
	chk uint64
	seq codedSeq
}

// CellStream enumerates the rateless coded cells of a fixed key set, in
// order, without ever rebuilding earlier cells: Emit(n) returns the next n
// cells and advances the frontier. The serving side of the rateless
// protocol streams from one whatever no CellPrefix holds for it.
//
// Keys must be distinct (multiset semantics via occurrence-indexed keys,
// as with Table). A CellStream is not safe for concurrent use.
type CellStream struct {
	cfg       ExtendConfig
	hasher    hashutil.Hasher
	checkSalt uint64
	seqSalt   uint64
	keys      [][]byte    // the caller's
	state     []streamKey // state[i] belongs to keys[i]
	frontier  int
}

// streamDerivations returns the shared hash derivations of a stream and
// its decoder; both sides must agree bit-for-bit.
func streamDerivations(cfg ExtendConfig) (h hashutil.Hasher, checkSalt, seqSalt uint64) {
	return hashutil.NewHasher(hashutil.DeriveSeed(cfg.Seed, "iblt/rateless/key")),
		hashutil.DeriveSeed(cfg.Seed, "iblt/rateless/check"),
		hashutil.DeriveSeed(cfg.Seed, "iblt/rateless/seq")
}

// NewCellStream builds a stream over the given keys. It keeps keys and
// the slices in it rather than copies: the caller must leave them
// unmodified for as long as the stream is used.
func NewCellStream(cfg ExtendConfig, keys [][]byte) (*CellStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &CellStream{cfg: cfg, keys: keys, state: make([]streamKey, len(keys))}
	s.hasher, s.checkSalt, s.seqSalt = streamDerivations(cfg)
	for _, k := range keys {
		if len(k) != cfg.KeyLen {
			return nil, fmt.Errorf("iblt: stream key length %d != configured %d", len(k), cfg.KeyLen)
		}
	}
	s.rewind()
	return s, nil
}

// rewind puts the stream back at cell 0.
func (s *CellStream) rewind() {
	for i, k := range s.keys {
		h := s.hasher.Hash(k)
		s.state[i] = streamKey{chk: hashutil.SplitMix64(h ^ s.checkSalt), seq: newSeq(h, s.seqSalt)}
	}
	s.frontier = 0
}

// Frontier returns the number of cells emitted so far.
func (s *CellStream) Frontier() int { return s.frontier }

// skip advances the frontier by n cells without emitting them: each key's
// sequence is walked past them, and nothing is written.
func (s *CellStream) skip(n int) {
	hi := int64(s.frontier + n)
	for i := range s.state {
		for k := &s.state[i]; k.seq.idx < hi; {
			k.seq.next()
		}
	}
	s.frontier += n
}

// Emit returns cells [Frontier, Frontier+n) and advances the frontier.
// Each key's index sequence is walked exactly once across all Emit calls,
// so the amortized cost of streaming M cells is O(keys · log M) sequence
// steps plus the participations themselves.
func (s *CellStream) Emit(n int) *CellBlock {
	b := new(CellBlock)
	s.EmitInto(b, n)
	return b
}

// EmitInto is Emit writing into a caller-reused block: blk is re-shaped
// to cover [Frontier, Frontier+n) reusing its storage, so a serving
// loop answering many "more cells" requests emits without per-block
// allocations.
func (s *CellStream) EmitInto(blk *CellBlock, n int) {
	if n < 0 {
		n = 0
	}
	blk.resetTo(s.frontier, n, s.cfg.KeyLen)
	hi := int64(s.frontier + n)
	for i := range s.state {
		k := &s.state[i]
		for k.seq.idx < hi {
			blk.apply(int(k.seq.idx)-s.frontier, s.keys[i], k.chk, +1)
			k.seq.next()
		}
	}
	s.frontier += n
}

// CellPrefix is the first Len cells of a key set's rateless stream, kept
// current under insertion and deletion: a cell is linear in the keys that
// participate in it, so Add and Remove walk one key's index sequence
// below Len (about 2·ln Len steps) and XOR it in or out. After any
// sequence of them the cells equal NewCellStream(keys).Emit(Len) over
// the surviving keys. A CellPrefix is not safe for concurrent use.
type CellPrefix struct {
	hasher    hashutil.Hasher
	checkSalt uint64
	seqSalt   uint64
	cells     CellBlock
}

// NewCellPrefix returns the n-cell prefix of the empty key set.
func NewCellPrefix(cfg ExtendConfig, n int) (*CellPrefix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &CellPrefix{cells: *newCellBlock(0, n, cfg.KeyLen)}
	p.hasher, p.checkSalt, p.seqSalt = streamDerivations(cfg)
	return p, nil
}

// Add puts key, of the configured length and not in the set, in.
func (p *CellPrefix) Add(key []byte) { p.apply(key, +1) }

// Remove takes key, which must be in the set, out.
func (p *CellPrefix) Remove(key []byte) { p.apply(key, -1) }

func (p *CellPrefix) apply(key []byte, sign int64) {
	h := p.hasher.Hash(key)
	chk := hashutil.SplitMix64(h ^ p.checkSalt)
	for seq := newSeq(h, p.seqSalt); seq.idx < int64(p.cells.Len()); seq.next() {
		p.cells.apply(int(seq.idx), key, chk, sign)
	}
}

// Len returns the number of cells the prefix keeps.
func (p *CellPrefix) Len() int { return p.cells.Len() }

// Cells returns the cells as the block [0, Len), sharing the prefix's
// storage: it is valid until the next Add, Remove or Extend.
func (p *CellPrefix) Cells() *CellBlock { return &p.cells }

// Extend appends the cells of b past the prefix's end, up to max cells in
// all: b is a run of the stream over the prefix's key set and starts at
// or before Len. The prefix only grows.
func (p *CellPrefix) Extend(b *CellBlock, max int) {
	lo, hi := p.Len()-b.Start, min(b.Len(), max-b.Start)
	if lo < 0 || hi <= lo {
		return
	}
	kl := p.cells.KeyLen
	p.cells.Counts = append(p.cells.Counts, b.Counts[lo:hi]...)
	p.cells.KeySums = append(p.cells.KeySums, b.KeySums[lo*kl:hi*kl]...)
	p.cells.Checks = append(p.cells.Checks, b.Checks[lo:hi]...)
}

// Snapshot returns a copy of the cells as the block [0, Len).
func (p *CellPrefix) Snapshot() *CellBlock {
	return &CellBlock{
		KeyLen:  p.cells.KeyLen,
		Counts:  append([]int64(nil), p.cells.Counts...),
		KeySums: append([]byte(nil), p.cells.KeySums...),
		Checks:  append([]uint64(nil), p.cells.Checks...),
	}
}

// recKey is one recovered difference key inside a CellDecoder, with its
// sequence parked at the first index ≥ the decoder frontier so future
// blocks can cancel its contributions without replaying the past.
type recKey struct {
	key  []byte
	chk  uint64
	sign int64
	seq  codedSeq
}

// CellDecoder accumulates a peer's coded cells, subtracts the local key
// set's cells for the same index range, and peels the symmetric
// difference incrementally: work done on earlier blocks — peeled keys and
// partially drained cells — carries over when the next block arrives.
//
// Usage: NewCellDecoderFrom with the local set's cells it already holds
// and its keys, AddBlock for every received block (blocks must arrive in
// order, each starting at Frontier()), then Decoded to test for
// completion. A block that starts at cell 0 again once cells have been
// received is a restart: the peer's key set changed under the stream, the
// block describes the new one from its first cell, and the decoder
// forgets what it held.
type CellDecoder struct {
	cfg       ExtendConfig
	hasher    hashutil.Hasher
	checkSalt uint64
	seqSalt   uint64
	// known is the local set's cells [0, known.Len()); past them the
	// decoder streams local, over the keys keys returns, which it is asked
	// for once, by the first block that reaches past known.
	known     *CellBlock
	keys      func() [][]byte
	local     *CellStream
	counts    []int64
	keySums   []byte
	checks    []uint64
	recovered []recKey
	// last is the last block's range, empty how many of its cells were
	// empty before it peeled and peeled how many keys had been before it.
	last          [2]int
	empty, peeled int
	// lb is the scratch block the local stream emits into on every
	// AddBlock — reused so folding in a block allocates nothing beyond
	// the decoder's own growth.
	lb CellBlock
}

// NewCellDecoder builds a decoder subtracting the local keys, which it
// keeps under NewCellStream's contract: NewCellDecoderFrom with no cells
// known.
func NewCellDecoder(cfg ExtendConfig, localKeys [][]byte) (*CellDecoder, error) {
	return NewCellDecoderFrom(cfg, nil, func() [][]byte { return localKeys })
}

// NewCellDecoderFrom builds a decoder whose local side is known, the
// first known.Len() cells of the local set's stream (nil for none), and
// past them the stream over the local keys keys returns. Those it asks
// for only when a block reaches past known, and keeps under
// NewCellStream's contract. The decoder reads known and never writes it.
func NewCellDecoderFrom(cfg ExtendConfig, known *CellBlock, keys func() [][]byte) (*CellDecoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if known == nil {
		known = &CellBlock{KeyLen: cfg.KeyLen}
	}
	if known.Start != 0 || known.KeyLen != cfg.KeyLen {
		return nil, fmt.Errorf("iblt: known cells from %d of key length %d; want cells from 0 of key length %d",
			known.Start, known.KeyLen, cfg.KeyLen)
	}
	d := &CellDecoder{cfg: cfg, known: known, keys: keys}
	d.hasher, d.checkSalt, d.seqSalt = streamDerivations(cfg)
	return d, nil
}

// Frontier returns the number of cells received so far.
func (d *CellDecoder) Frontier() int { return len(d.counts) }

// Recovered returns the number of difference keys peeled so far.
func (d *CellDecoder) Recovered() int { return len(d.recovered) }

// Estimate estimates the size of the difference from the last block
// AddBlock folded in: the keys peeled before it, plus the keys its
// residual held before it peeled, estimateKeys of how many of its cells
// were empty — count and checksum zero — which every one of those keys
// missed. ok is false when none was.
func (d *CellDecoder) Estimate() (keys float64, ok bool) {
	hidden, ok := estimateKeys(d.last[0], d.last[1], d.empty)
	return float64(d.peeled) + hidden, ok
}

// AddBlock folds the peer's next cell block into the decoder and peels as
// far as possible. Blocks must be contiguous and in order; a restart block
// must reach past the cells it replaces, or it is a replay.
func (d *CellDecoder) AddBlock(b *CellBlock) error {
	if b.KeyLen != d.cfg.KeyLen {
		return fmt.Errorf("iblt: block key length %d != decoder key length %d", b.KeyLen, d.cfg.KeyLen)
	}
	n := b.Len()
	restart := b.Start == 0 && d.Frontier() > 0
	if restart && n <= d.Frontier() {
		return fmt.Errorf("iblt: restart block of %d cells, decoder frontier is %d", n, d.Frontier())
	}
	if !restart && b.Start != d.Frontier() {
		return fmt.Errorf("iblt: block starts at cell %d, decoder frontier is %d", b.Start, d.Frontier())
	}
	if b.Start+n > MaxStreamCells {
		return fmt.Errorf("iblt: cell stream beyond %d cells", MaxStreamCells)
	}
	if d.local == nil && b.Start+n > d.known.Len() {
		local, err := NewCellStream(d.cfg, d.keys())
		if err != nil {
			return err
		}
		d.local = local
	}
	if restart {
		d.counts, d.keySums, d.checks = d.counts[:0], d.keySums[:0], d.checks[:0]
		d.recovered = d.recovered[:0]
	}
	lo := d.Frontier()
	kl := d.cfg.KeyLen
	d.counts = append(d.counts, b.Counts...)
	d.keySums = append(d.keySums, b.KeySums...)
	d.checks = append(d.checks, b.Checks...)
	// Subtract the local set's cells for the same range: the residual
	// sketches the symmetric difference (+1 peer-only, −1 local-only).
	d.subtract(d.known, lo, min(lo+n, d.known.Len()))
	if from := max(lo, d.known.Len()); from < lo+n {
		if d.local.Frontier() > from {
			d.local.rewind()
		}
		d.local.skip(from - d.local.Frontier())
		d.local.EmitInto(&d.lb, lo+n-from)
		d.subtract(&d.lb, from, lo+n)
	}
	// Cancel already-recovered keys out of the new range, continuing each
	// parked sequence — this is the work reuse that makes increments cheap.
	hi := int64(lo + n)
	for i := range d.recovered {
		r := &d.recovered[i]
		for r.seq.idx < hi {
			j := int(r.seq.idx)
			d.counts[j] -= r.sign
			xorInto(d.keySums[j*kl:(j+1)*kl], r.key)
			d.checks[j] ^= r.chk
			r.seq.next()
		}
	}
	d.last, d.empty, d.peeled = [2]int{lo, lo + n}, 0, len(d.recovered)
	for i := lo; i < lo+n; i++ {
		if d.counts[i] == 0 && d.checks[i] == 0 {
			d.empty++
		}
	}
	d.peel()
	return nil
}

// subtract takes cells [lo, hi) of the local set's stream, which lb holds
// from its own start, out of the residual.
func (d *CellDecoder) subtract(lb *CellBlock, lo, hi int) {
	if lo >= hi {
		return
	}
	kl := d.cfg.KeyLen
	off := lo - lb.Start
	for i := lo; i < hi; i++ {
		d.counts[i] -= lb.Counts[i-lb.Start]
		d.checks[i] ^= lb.Checks[i-lb.Start]
	}
	xorInto(d.keySums[lo*kl:hi*kl], lb.KeySums[off*kl:(hi-lb.Start)*kl])
}

// peel drains every currently pure cell, bounded so corrupt inputs cannot
// loop: each peel removes one key from the residual, and a valid residual
// holds at most one key per participation of the densest prefix.
func (d *CellDecoder) peel() {
	m := len(d.counts)
	kl := d.cfg.KeyLen
	queue := make([]int, m)
	for i := range queue {
		queue[i] = i
	}
	maxPeels := 4*m + 64
	peels := 0
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		c := d.counts[idx]
		if c != 1 && c != -1 {
			continue
		}
		row := d.keySums[idx*kl : (idx+1)*kl]
		h := d.hasher.Hash(row)
		chk := hashutil.SplitMix64(h ^ d.checkSalt)
		if chk != d.checks[idx] {
			continue // several keys happening to sum to ±1
		}
		if peels++; peels > maxPeels {
			return // corrupt stream; let the caller's budget decide
		}
		key := append([]byte(nil), row...)
		seq := newSeq(h, d.seqSalt)
		for seq.idx < int64(m) {
			j := int(seq.idx)
			d.counts[j] -= c
			xorInto(d.keySums[j*kl:(j+1)*kl], key)
			d.checks[j] ^= chk
			if j != idx && (d.counts[j] == 1 || d.counts[j] == -1) {
				queue = append(queue, j)
			}
			seq.next()
		}
		d.recovered = append(d.recovered, recKey{key: key, chk: chk, sign: c, seq: seq})
	}
}

// Decoded reports whether the difference has been fully recovered — every
// received cell has drained to zero — and if so returns it: Pos holds
// peer-only keys, Neg local-only keys. Every key participates in cell 0,
// so a key the decoder has not accounted for would leave cell 0 nonzero;
// the residual zeroing is the same completeness certificate Table.Decode
// relies on. At least one cell must have been received.
func (d *CellDecoder) Decoded() (*Diff, bool) {
	if len(d.counts) == 0 {
		return nil, false
	}
	for i, c := range d.counts {
		if c != 0 || d.checks[i] != 0 {
			return nil, false
		}
	}
	for _, b := range d.keySums {
		if b != 0 {
			return nil, false
		}
	}
	diff := &Diff{}
	for _, r := range d.recovered {
		if r.sign == 1 {
			diff.Pos = append(diff.Pos, r.key)
		} else {
			diff.Neg = append(diff.Neg, r.key)
		}
	}
	return diff, true
}

// exactParticipation holds, for each of the first cells of a stream, the
// probability that a key takes part in it. A key's next index after i is
// at most j with probability 1 − ((i+1.5)/(j+2.5))² (codedSeq.next), so
// the probabilities follow from cell 0, where every key takes part.
var exactParticipation = func() []float64 {
	const n = 64
	p := make([]float64, n)
	p[0] = 1
	for i := 0; i < n; i++ {
		a := float64(i) + 1.5
		for j := i + 1; j < n; j++ {
			below := 0.0 // the chance the next index is below j
			if j > i+1 {
				below = 1 - a*a/((float64(j)+1.5)*(float64(j)+1.5))
			}
			p[j] += p[i] * (1 - a*a/((float64(j)+2.5)*(float64(j)+2.5)) - below)
		}
	}
	return p
}()

// participation returns the probability that a key takes part in cell i:
// exactParticipation's, and past its end 2/(i+1), which it tends to (by
// cell 64 the two agree to 0.01 %).
func participation(i int) float64 {
	if i < len(exactParticipation) {
		return exactParticipation[i]
	}
	return 2 / float64(i+1)
}

// estimateKeys estimates how many keys a run of cells [lo, hi) of a
// residual stream holds, empty of the cells being empty: the d at which
// the expected count of empty cells, Σᵢ (1 − pᵢ)ᵈ over the participation
// probabilities pᵢ, is empty. With no cell empty the keys are too many
// for the run to measure, and ok is false.
func estimateKeys(lo, hi, empty int) (d float64, ok bool) {
	if empty <= 0 {
		return 0, false
	}
	// Cells whose pᵢ differ by under 0.1 % count as one term: past cell
	// 1024 the run is summed in groups of i/1024 cells, so a block costs
	// O(log(hi/lo)) terms, not O(hi−lo).
	type group struct{ cells, logMiss float64 }
	var groups []group
	for i := max(lo, 1); i < hi; { // every key is in cell 0
		j := min(i+max(1, i/1024), hi)
		groups = append(groups, group{float64(j - i), math.Log1p(-participation((i + j - 1) / 2))})
		i = j
	}
	expected := func(d float64) (e float64) {
		for _, g := range groups {
			e += g.cells * math.Exp(d*g.logMiss)
		}
		return e
	}
	// At 64·hi keys every cell of [lo, hi) is missed by all of them with
	// probability under e⁻¹⁰⁰, so the root lies below that.
	bot, top := 0.0, 64*float64(hi)
	for range 48 {
		if mid := (bot + top) / 2; expected(mid) > float64(empty) {
			bot = mid
		} else {
			top = mid
		}
	}
	return (bot + top) / 2, true
}
