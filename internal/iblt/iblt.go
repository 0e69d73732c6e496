// Package iblt implements Invertible Bloom Lookup Tables (Goodrich &
// Mitzenmacher 2011; Eppstein, Goodrich, Uyeda & Varghese 2011) over
// fixed-length byte-string keys.
//
// An IBLT is a linear sketch of a key multiset: m cells, each holding a
// signed count, an XOR of the keys mapped to it, and an XOR of per-key
// checksums. Because the sketch is linear, subtracting Bob's table from
// Alice's leaves a sketch of exactly the symmetric difference, which can be
// recovered by a peeling process whenever the difference is at most a
// constant fraction of m. This is the coding substrate of the robust set
// reconciliation protocol in internal/core and of the exact reconciliation
// comparators in internal/protocol.
//
// Keys must be distinct within one logical multiset; multiset semantics are
// obtained by the caller appending an occurrence index to repeated keys
// (see internal/core), which keeps the table a pure set sketch.
package iblt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"robustset/internal/hashutil"
)

// Config describes an IBLT's shape. Two tables can be subtracted or
// compared only if their configs are identical (including Seed): the
// protocols treat Config as part of the shared public-coins state.
type Config struct {
	// Cells is the requested number of cells. New rounds it up to a
	// multiple of HashCount so the table can be partitioned evenly.
	Cells int
	// HashCount is the number of cells each key occupies (q). Each hash
	// function owns one partition of Cells/q cells, guaranteeing the q
	// cell indices of a key are distinct. Typical values: 3 or 4.
	HashCount int
	// KeyLen is the exact byte length of every key.
	KeyLen int
	// Seed keys the bucket and checksum hash functions.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cells < 1 {
		return fmt.Errorf("iblt: cells %d < 1", c.Cells)
	}
	if c.HashCount < 2 || c.HashCount > 16 {
		return fmt.Errorf("iblt: hash count %d outside [2,16]", c.HashCount)
	}
	if c.KeyLen < 1 {
		return fmt.Errorf("iblt: key length %d < 1", c.KeyLen)
	}
	return nil
}

// sizing factors per hash count. The asymptotic peeling thresholds are
// 1/0.818 ≈ 1.222 (q=3), 1.295 (q=4), 1.425 (q=5), but finite tables —
// especially partitioned ones — need real slack above the threshold. The
// factors below were calibrated empirically in this repository (300 trials
// per point across capacities 1..1024) to keep the stall rate at a few
// percent or less at every size; q=3 converges slowly and needs the most.
func loadFactor(q int) float64 {
	switch q {
	case 2:
		return 3.0
	case 3:
		return 1.9
	case 4:
		return 1.5
	case 5:
		return 1.55
	default:
		return 1.7
	}
}

// RecommendedCells returns a cell count that decodes a difference of size
// capacity with high probability for the given hash count: the calibrated
// threshold factor plus additive slack for small tables, rounded up to a
// multiple of q.
func RecommendedCells(capacity, q int) int {
	if capacity < 1 {
		capacity = 1
	}
	m := int(math.Ceil(loadFactor(q)*float64(capacity))) + 4*q
	if rem := m % q; rem != 0 {
		m += q - rem
	}
	return m
}

// Table is an IBLT. The zero value is not usable; construct with New.
// Tables are not safe for concurrent mutation.
//
// Cells are stored as flat parallel arrays (counts, key sums, checksums)
// rather than a slice of cell structs, and every per-key quantity — the q
// bucket indices and the checksum — is derived from a single keyed hash
// pass over the key: bucket i maps SplitMix64(h ^ salt_i) into its
// partition and the checksum is SplitMix64(h ^ checkSalt). One full-key
// hash per operation instead of q+1 is what keeps Insert allocation-free
// and cheap; two distinct keys collide on all derived values only when
// their 64-bit digests collide (2⁻⁶⁴ per pair), which is far below the
// IBLT's own checksum false-positive rate.
type Table struct {
	cfg       Config
	counts    []int64
	keySums   []byte // cells × KeyLen, flat
	checks    []uint64
	hasher    hashutil.Hasher // single full-key hash; everything derives from it
	salts     []uint64        // per bucket function (bucket selection)
	checkSalt uint64          // per-key checksum derivation
	partSize  int             // cells / HashCount
	balance   int64           // inserts − deletes, diagnostic only
}

// Normalized returns the configuration as New would adopt it: the cell
// count rounded up to a multiple of HashCount. It lets protocol code
// predict the Config of a table it has not built — e.g. to validate a
// deserialized table against parameters without constructing a
// reference table first.
func (c Config) Normalized() Config {
	if c.HashCount > 0 {
		if rem := c.Cells % c.HashCount; rem != 0 {
			c.Cells += c.HashCount - rem
		}
	}
	return c
}

// New constructs an empty table. The cell count is rounded up to a multiple
// of HashCount.
func New(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	t := &Table{
		cfg:       cfg,
		counts:    make([]int64, cfg.Cells),
		keySums:   make([]byte, cfg.Cells*cfg.KeyLen),
		checks:    make([]uint64, cfg.Cells),
		hasher:    hashutil.NewHasher(hashutil.DeriveSeed(cfg.Seed, "iblt/key")),
		salts:     make([]uint64, cfg.HashCount),
		checkSalt: hashutil.DeriveSeed(cfg.Seed, "iblt/check"),
		partSize:  cfg.Cells / cfg.HashCount,
	}
	for i := range t.salts {
		t.salts[i] = hashutil.DeriveSeedN(cfg.Seed, "iblt/bucket", i)
	}
	return t, nil
}

// Config returns the table's (possibly rounded-up) configuration.
func (t *Table) Config() Config { return t.cfg }

// Cells returns the actual number of cells.
func (t *Table) Cells() int { return t.cfg.Cells }

// Balance returns inserts minus deletes applied so far (diagnostic).
func (t *Table) Balance() int64 { return t.balance }

// WireSize returns the number of bytes MarshalBinary produces for the
// table's present contents (see MaxWireSize for the bound its shape
// implies).
func (t *Table) WireSize() int {
	return headerSize + cellsWireSize(t.counts, t.keySums, t.cfg.KeyLen)
}

// bucketIndex maps the key digest into hash function i's partition via
// multiply-shift range reduction (no division on the hot path).
func (t *Table) bucketIndex(i int, h uint64) int {
	hi, _ := bits.Mul64(hashutil.SplitMix64(h^t.salts[i]), uint64(t.partSize))
	return i*t.partSize + int(hi)
}

// checksum derives the per-key checksum from the key digest.
func (t *Table) checksum(h uint64) uint64 { return hashutil.SplitMix64(h ^ t.checkSalt) }

func (t *Table) checkKey(key []byte) {
	if len(key) != t.cfg.KeyLen {
		panic(fmt.Sprintf("iblt: key length %d != configured %d", len(key), t.cfg.KeyLen))
	}
}

// xorInto xors src into dst, 8 bytes at a time with a byte-wise tail.
// len(dst) == len(src); the bounds checks keep the compiler honest.
func xorInto(dst, src []byte) {
	for len(src) >= 8 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		dst, src = dst[8:], src[8:]
	}
	for i := range src {
		dst[i] ^= src[i]
	}
}

func (t *Table) apply(key []byte, sign int64) {
	t.checkKey(key)
	t.applyHashed(key, t.hasher.Hash(key), sign)
}

// applyHashed is apply with the key digest already computed — the decoder
// reuses the digest it needed for checksum validation.
func (t *Table) applyHashed(key []byte, h uint64, sign int64) {
	chk := t.checksum(h)
	kl := t.cfg.KeyLen
	for i := 0; i < t.cfg.HashCount; i++ {
		idx := t.bucketIndex(i, h)
		t.counts[idx] += sign
		xorInto(t.keySums[idx*kl:(idx+1)*kl], key)
		t.checks[idx] ^= chk
	}
	t.balance += sign
}

// Insert adds a key to the table.
func (t *Table) Insert(key []byte) { t.apply(key, +1) }

// Delete removes a key from the table. Deleting a key that was never
// inserted is legal — it is how subtraction-style protocols work — and
// shows up as a negative-count entry on decode.
func (t *Table) Delete(key []byte) { t.apply(key, -1) }

// InsertAll inserts every key of the slice.
func (t *Table) InsertAll(keys [][]byte) {
	for _, k := range keys {
		t.Insert(k)
	}
}

// Clone returns an independent deep copy.
func (t *Table) Clone() *Table {
	c := &Table{
		cfg:       t.cfg,
		counts:    append([]int64(nil), t.counts...),
		keySums:   append([]byte(nil), t.keySums...),
		checks:    append([]uint64(nil), t.checks...),
		hasher:    t.hasher,
		salts:     t.salts,
		checkSalt: t.checkSalt,
		partSize:  t.partSize,
		balance:   t.balance,
	}
	return c
}

// CopyFrom overwrites t with other's contents, reusing t's cell storage
// — the allocation-free alternative to Clone when one scratch table
// serves many sources in turn (level scans reconcile this way). The two
// tables must have the same shape (cells, hash count, key length);
// differing seeds are fine, the derived hash state is copied along.
func (t *Table) CopyFrom(other *Table) error {
	if t.cfg.Cells != other.cfg.Cells || t.cfg.HashCount != other.cfg.HashCount || t.cfg.KeyLen != other.cfg.KeyLen {
		return fmt.Errorf("%w: %+v vs %+v", ErrConfigMismatch, t.cfg, other.cfg)
	}
	t.cfg = other.cfg
	copy(t.counts, other.counts)
	copy(t.keySums, other.keySums)
	copy(t.checks, other.checks)
	t.hasher = other.hasher
	t.salts = other.salts // immutable after New; sharing is what Clone does too
	t.checkSalt = other.checkSalt
	t.partSize = other.partSize
	t.balance = other.balance
	return nil
}

// ErrConfigMismatch is returned when combining tables with different
// configurations.
var ErrConfigMismatch = errors.New("iblt: table configurations differ")

// Sub subtracts other from t in place (t ← t − other). After subtraction,
// t sketches the symmetric difference of the two key sets: keys only in t
// decode with count +1, keys only in other with count −1.
func (t *Table) Sub(other *Table) error {
	if t.cfg != other.cfg {
		return fmt.Errorf("%w: %+v vs %+v", ErrConfigMismatch, t.cfg, other.cfg)
	}
	for i := range t.counts {
		t.counts[i] -= other.counts[i]
		t.checks[i] ^= other.checks[i]
	}
	for i := range t.keySums {
		t.keySums[i] ^= other.keySums[i]
	}
	t.balance -= other.balance
	return nil
}

// Diff is the result of decoding a subtracted table.
type Diff struct {
	// Pos holds keys that decoded with count +1: present in the receiver
	// of Sub but not in the subtracted table.
	Pos [][]byte
	// Neg holds keys that decoded with count −1.
	Neg [][]byte
}

// Size returns the total number of decoded keys.
func (d *Diff) Size() int { return len(d.Pos) + len(d.Neg) }

// DecodeError reports a failed or partial decode.
type DecodeError struct {
	// Recovered is the number of keys peeled before the process stalled.
	Recovered int
	// RemainingCells is the number of nonzero cells left (the 2-core).
	RemainingCells int
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("iblt: decode stalled: %d keys recovered, %d cells undecodable", e.Recovered, e.RemainingCells)
}

// Decode recovers the key difference sketched by the table via peeling.
// It does not mutate the receiver (it peels a private copy). On success it
// returns every key with its sign; on failure it returns a *DecodeError
// (errors.As-compatible) and the partial diff recovered so far.
//
// Decode is safe to call on any table, including corrupted ones: progress
// is bounded, and a stall or residue yields an error rather than looping.
func (t *Table) Decode() (*Diff, error) {
	return t.Clone().DecodeMut()
}

// DecodeMut is Decode without the protective copy: peeling consumes the
// receiver, whose cell contents are unspecified afterwards. It exists
// for callers that decode throwaway tables (a scratch table cycling
// through a level scan) and would otherwise pay a full table clone per
// attempt.
func (t *Table) DecodeMut() (*Diff, error) {
	w := t
	diff := &Diff{}
	// Seed the work queue with every cell; cells are re-validated when
	// popped, so stale entries are harmless.
	queue := make([]int, t.cfg.Cells)
	for i := range queue {
		queue[i] = i
	}
	// Each peel removes one key instance; with valid inputs at most
	// |inserted|+|deleted| keys exist. Corrupted tables can fabricate
	// keys, so bound the total work.
	maxPeels := 4*t.cfg.Cells + 64
	peels := 0
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		cnt := w.counts[idx]
		if cnt != 1 && cnt != -1 {
			continue
		}
		row := w.keySums[idx*t.cfg.KeyLen : (idx+1)*t.cfg.KeyLen]
		h := w.hasher.Hash(row)
		if w.checksum(h) != w.checks[idx] {
			continue // cell holds several keys that happen to sum to ±1
		}
		if peels++; peels > maxPeels {
			return diff, &DecodeError{Recovered: diff.Size(), RemainingCells: w.nonZeroCells()}
		}
		key := append([]byte(nil), row...)
		if cnt == 1 {
			diff.Pos = append(diff.Pos, key)
		} else {
			diff.Neg = append(diff.Neg, key)
		}
		w.applyHashed(key, h, -cnt)
		for i := 0; i < w.cfg.HashCount; i++ {
			if j := w.bucketIndex(i, h); j != idx && (w.counts[j] == 1 || w.counts[j] == -1) {
				queue = append(queue, j)
			}
		}
	}
	if rem := w.nonZeroCells(); rem > 0 {
		return diff, &DecodeError{Recovered: diff.Size(), RemainingCells: rem}
	}
	return diff, nil
}

func (t *Table) nonZeroCells() int {
	n := 0
	for i, c := range t.counts {
		if c != 0 || t.checks[i] != 0 {
			n++
			continue
		}
		row := t.keySums[i*t.cfg.KeyLen : (i+1)*t.cfg.KeyLen]
		for _, b := range row {
			if b != 0 {
				n++
				break
			}
		}
	}
	return n
}

// IsEmpty reports whether every cell is zero — true for a fresh table and
// for the subtraction of two tables of identical content.
func (t *Table) IsEmpty() bool { return t.nonZeroCells() == 0 }

const (
	// magic identifies the wire format; a blob under any other magic is
	// refused at parse. "IBL2" replaced "IBL1" when the per-key hashing
	// switched to a single keyed digest (same layout, different bits);
	// "IBL3" replaced "IBL2" when fixed-width cells gave way to the cell
	// codec of cells.go.
	magic      = "IBL3"
	headerSize = 4 + 4 + 1 + 2 + 8 // magic, cells, hashcount, keylen, seed
)

// MarshalBinary encodes the table in its canonical wire format:
//
//	"IBL3" | cells u32 | hashCount u8 | keyLen u16 | seed u64 | cells in the cell codec
//
// Counts outside int32 do not fit the wire and are an error; real
// workloads stay far below that.
func (t *Table) MarshalBinary() ([]byte, error) {
	var buf [liveScratch]int
	live := liveColumns(buf[:0], t.keySums, t.cfg.KeyLen)
	out := make([]byte, 0, headerSize+cellsSize(t.counts, len(live), t.cfg.KeyLen))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(t.cfg.Cells))
	out = append(out, byte(t.cfg.HashCount))
	out = binary.LittleEndian.AppendUint16(out, uint16(t.cfg.KeyLen))
	out = binary.LittleEndian.AppendUint64(out, t.cfg.Seed)
	return appendCells(out, live, t.counts, t.keySums, t.checks, t.cfg.KeyLen)
}

// configOf returns the Config a marshalled table declares, validated but
// with no cell decoded.
func configOf(b []byte) (Config, error) {
	if len(b) < headerSize || string(b[:4]) != magic {
		return Config{}, errors.New("iblt: unmarshal: bad magic or short header")
	}
	cfg := Config{
		Cells:     int(binary.LittleEndian.Uint32(b[4:])),
		HashCount: int(b[8]),
		KeyLen:    int(binary.LittleEndian.Uint16(b[9:])),
		Seed:      binary.LittleEndian.Uint64(b[11:]),
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("iblt: unmarshal: %w", err)
	}
	if cfg.Cells%cfg.HashCount != 0 {
		return Config{}, fmt.Errorf("iblt: unmarshal: cells %d not a multiple of hash count %d", cfg.Cells, cfg.HashCount)
	}
	return cfg, nil
}

// UnmarshalTable parses MarshalBinary output for a caller whose
// parameters imply the table's shape — every protocol's case, since a
// table of any other would not subtract from its own. A blob that
// declares another Config is refused with ErrShape on its header, so the
// table allocated is the one the caller would have built itself.
func UnmarshalTable(b []byte, want Config) (*Table, error) {
	cfg, err := configOf(b)
	if err != nil {
		return nil, err
	}
	if cfg != want {
		return nil, fmt.Errorf("%w: table is %+v, want %+v", ErrShape, cfg, want)
	}
	if err := checkCellsLen(b[headerSize:], cfg.Cells, cfg.KeyLen); err != nil {
		return nil, err
	}
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := decodeCells(b[headerSize:], t.counts, t.keySums, t.checks, cfg.KeyLen); err != nil {
		return nil, err
	}
	return t, nil
}

// UnmarshalBinary parses MarshalBinary output with nothing to hold its
// header against but the buffer: the declared cell count must fit it at
// nine bytes a cell, so the table is at most (KeyLen+16)/9 times the
// bytes received, KeyLen being whatever the blob says. Parsers of a
// peer's bytes know the shape they expect and call UnmarshalTable.
func (t *Table) UnmarshalBinary(b []byte) error {
	cfg, err := configOf(b)
	if err != nil {
		return err
	}
	nt, err := UnmarshalTable(b, cfg)
	if err != nil {
		return err
	}
	*t = *nt
	return nil
}
