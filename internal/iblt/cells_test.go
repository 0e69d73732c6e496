package iblt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// allocatedBy returns the bytes f allocates, to the resolution of the
// runtime's statistics.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeSlack is what a decode may allocate beyond its cells: the Table
// or CellBlock itself, hash state, the live-column list, an error —
// and whatever the runtime and the test harness allocate meanwhile.
const decodeSlack = 64 << 10

// maxExpansion is the stated bound on the allocation of a decoder that
// is not told a shape, as a multiple of the input length: a cell is
// keyLen+16 bytes in memory and at least minCellBytes on the wire.
func maxExpansion(keyLen int) uint64 { return uint64(keyLen+16)/minCellBytes + 1 }

// randomCells fills a cell run the way the property test wants it:
// counts of either sign including the int32 edges, and key sums that are
// zero outside the chosen live columns.
func randomCells(rng *rand.Rand, n, keyLen int, live []int) (counts []int64, keySums []byte, checks []uint64) {
	counts, keySums, checks = make([]int64, n), make([]byte, n*keyLen), make([]uint64, n)
	edges := []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt32, math.MinInt32}
	for i := range counts {
		if rng.IntN(3) == 0 {
			counts[i] = edges[rng.IntN(len(edges))]
		} else {
			counts[i] = int64(rng.IntN(1<<14)) - 1<<13
		}
		checks[i] = rng.Uint64()
		for _, j := range live {
			keySums[i*keyLen+j] = byte(rng.Uint32())
		}
	}
	// A column is live only if some cell is non-zero in it.
	if n > 0 {
		for _, j := range live {
			keySums[j] |= 1
		}
	}
	return counts, keySums, checks
}

// TestCellCodecRoundTrip is the codec's property test: over random
// tables and blocks — no live column, a few, all of them; key lengths
// that are and are not multiples of 8; counts of both signs out to the
// int32 edges — decode∘encode is the identity, the encoding is as long as
// WireSize says and no longer than MaxWireSize, and re-encoding the
// decoded cells gives the same bytes.
func TestCellCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	for trial := 0; trial < 300; trial++ {
		keyLen := []int{1, 7, 8, 9, 20, 36, 68}[rng.IntN(7)]
		var live []int
		switch rng.IntN(3) {
		case 0: // none: an empty table
		case 1:
			for j := 0; j < keyLen; j++ {
				live = append(live, j)
			}
		default:
			for j := 0; j < keyLen; j++ {
				if rng.IntN(4) == 0 {
					live = append(live, j)
				}
			}
		}
		q := 2 + rng.IntN(4)
		tbl, err := New(Config{Cells: q * (1 + rng.IntN(12)), HashCount: q, KeyLen: keyLen, Seed: rng.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		tbl.counts, tbl.keySums, tbl.checks = randomCells(rng, tbl.Cells(), keyLen, live)
		blob, err := tbl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != tbl.WireSize() || len(blob) > MaxWireSize(tbl.Cells(), keyLen) {
			t.Fatalf("table: %d bytes, WireSize %d, MaxWireSize %d", len(blob), tbl.WireSize(), MaxWireSize(tbl.Cells(), keyLen))
		}
		if want := headerSize + maskLen(keyLen) + tbl.Cells()*(len(live)+8); len(blob) < want+tbl.Cells() || len(blob) > want+5*tbl.Cells() {
			t.Fatalf("table: %d bytes for %d cells of %d live columns", len(blob), tbl.Cells(), len(live))
		}
		var got Table
		if err := got.UnmarshalBinary(blob); err != nil {
			t.Fatalf("table key length %d, live %v: %v", keyLen, live, err)
		}
		if got.cfg != tbl.cfg || !equalCells(got.counts, tbl.counts, got.keySums, tbl.keySums, got.checks, tbl.checks) {
			t.Fatalf("table differs after a round trip (key length %d, live %v)", keyLen, live)
		}
		if re, err := got.MarshalBinary(); err != nil || !bytes.Equal(re, blob) {
			t.Fatalf("table re-encodes differently (%v)", err)
		}

		blk := &CellBlock{Start: rng.IntN(1 << 20), KeyLen: keyLen}
		blk.Counts, blk.KeySums, blk.Checks = randomCells(rng, rng.IntN(40), keyLen, live)
		bb, err := blk.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		bb = bb[len("prefix"):]
		if len(bb) != blk.WireSize() || len(bb) > MaxWireSize(blk.Len(), keyLen) {
			t.Fatalf("block: %d bytes, WireSize %d, MaxWireSize %d", len(bb), blk.WireSize(), MaxWireSize(blk.Len(), keyLen))
		}
		// Decoding into a used block must not leave its old bytes in the
		// dead columns.
		rt := CellBlock{KeyLen: keyLen, Counts: make([]int64, 64), KeySums: bytes.Repeat([]byte{0xff}, 64*keyLen), Checks: make([]uint64, 64)}
		if err := rt.UnmarshalBinary(bb); err != nil {
			t.Fatalf("block key length %d, live %v: %v", keyLen, live, err)
		}
		if rt.Start != blk.Start || rt.KeyLen != keyLen || !equalCells(rt.Counts, blk.Counts, rt.KeySums, blk.KeySums, rt.Checks, blk.Checks) {
			t.Fatalf("block differs after a round trip (key length %d, live %v)", keyLen, live)
		}
	}
}

func equalCells(c1, c2 []int64, k1, k2 []byte, x1, x2 []uint64) bool {
	if len(c1) != len(c2) || len(x1) != len(x2) || !bytes.Equal(k1, k2) {
		return false
	}
	for i := range c1 {
		if c1[i] != c2[i] || x1[i] != x2[i] {
			return false
		}
	}
	return true
}

// TestCellCodecSubtractedTable: the tables the wire actually carries
// after Sub hold negative counts, and an empty one has no live column.
func TestCellCodecSubtractedTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 2))
	cfg := Config{Cells: 40, HashCount: 4, KeyLen: 20, Seed: 3}
	a, _ := New(cfg)
	b, _ := New(cfg)
	for _, k := range mkKeys(rng, 9, 20) {
		b.Insert(k)
	}
	if err := a.Sub(b); err != nil { // every count ≤ 0
		t.Fatal(err)
	}
	blob, _ := a.MarshalBinary()
	var got Table
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if diff, err := got.Decode(); err != nil || len(diff.Neg) != 9 || len(diff.Pos) != 0 {
		t.Fatalf("subtracted table decodes to %+v (%v)", diff, err)
	}
	if err := a.Sub(a.Clone()); err != nil {
		t.Fatal(err)
	}
	if blob, _ = a.MarshalBinary(); len(blob) != headerSize+maskLen(20)+40*minCellBytes {
		t.Fatalf("empty table is %d bytes", len(blob))
	}
	if !bytes.Equal(blob[headerSize:headerSize+maskLen(20)], make([]byte, maskLen(20))) {
		t.Fatal("empty table has a live column")
	}
}

// TestCellCodecRejectsNonCanonical: each way of saying the same cells in
// other bytes, and each way of saying too few or too many, is a parse
// error, for the table and the block decoder alike.
func TestCellCodecRejectsNonCanonical(t *testing.T) {
	// Two cells of key length 9 (a two-byte mask), columns 1 and 8 live.
	const keyLen = 9
	cell := func(count []byte, c1, c8 byte) []byte {
		return append(append(append([]byte{}, count...), c1, c8), 1, 2, 3, 4, 5, 6, 7, 8)
	}
	body := func(mask []byte, cells ...[]byte) []byte {
		return append(append([]byte{}, mask...), bytes.Join(cells, nil)...)
	}
	good := body([]byte{0x02, 0x01}, cell([]byte{0x01}, 0xaa, 0), cell([]byte{0x80, 0x01}, 0, 0xbb))
	cases := map[string][]byte{
		"mask bit past the key length": body([]byte{0x02, 0x03}, cell([]byte{0x01}, 0xaa, 0), cell([]byte{0x80, 0x01}, 0, 0xbb)),
		"mask bit over a zero column":  body([]byte{0x02, 0x01}, cell([]byte{0x01}, 0xaa, 0), cell([]byte{0x80, 0x01}, 0, 0)),
		"over-long varint":             body([]byte{0x02, 0x01}, cell([]byte{0x81, 0x00}, 0xaa, 0), cell([]byte{0x80, 0x01}, 0, 0xbb)),
		"over-long zero":               body([]byte{0x02, 0x01}, cell([]byte{0x80, 0x00}, 0xaa, 0), cell([]byte{0x80, 0x01}, 0, 0xbb)),
		"count beyond int32":           body([]byte{0x02, 0x01}, cell([]byte{0x80, 0x80, 0x80, 0x80, 0x10}, 0xaa, 0), cell([]byte{0x80, 0x01}, 0, 0xbb)),
		"unterminated varint":          body([]byte{0x02, 0x01}, cell([]byte{0x01}, 0xaa, 0), bytes.Repeat([]byte{0x80}, 10)),
		"trailing byte":                append(append([]byte{}, good...), 0),
		"truncated":                    good[:len(good)-1],
		"a cell short":                 good[:len(good)-11],
		"no mask":                      nil,
	}
	parse := map[string]func(cells []byte) error{
		"table": func(cells []byte) error {
			hdr := append([]byte(magic), 2, 0, 0, 0, 2, keyLen, 0, 0, 0, 0, 0, 0, 0, 0, 0)
			return new(Table).UnmarshalBinary(append(hdr, cells...))
		},
		"block": func(cells []byte) error {
			hdr := append([]byte(blockMagic), 5, 0, 0, 0, 2, 0, 0, 0, keyLen, 0)
			return new(CellBlock).UnmarshalBinary(append(hdr, cells...))
		},
	}
	for kind, p := range parse {
		if err := p(good); err != nil {
			t.Fatalf("%s: the canonical form is refused: %v", kind, err)
		}
		for name, cells := range cases {
			if err := p(cells); err == nil {
				t.Errorf("%s: %s accepted", kind, name)
			}
		}
	}
	old := append(append([]byte("IBL2"), 2, 0, 0, 0, 2, keyLen, 0, 0, 0, 0, 0, 0, 0, 0, 0), good...)
	if new(Table).UnmarshalBinary(old) == nil {
		t.Error("previous table magic accepted")
	}
	// 0x80 0x01 is zigzag 128: a count of 64, the first that needs two bytes.
	var blk CellBlock
	hdr := append([]byte(blockMagic), 5, 0, 0, 0, 2, 0, 0, 0, keyLen, 0)
	if err := blk.UnmarshalBinary(append(hdr, good...)); err != nil || blk.Counts[0] != -1 || blk.Counts[1] != 64 ||
		blk.KeySums[1] != 0xaa || blk.KeySums[keyLen+8] != 0xbb || blk.Checks[1] != binary.LittleEndian.Uint64([]byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("hand-built block decodes to %+v (%v)", blk, err)
	}
}

// TestCellCodecAllocatesAfterValidating: a header may declare any cell
// count and key length. What the bare decoders allocate is bounded by
// what was sent; what the decoders that are told a shape allocate is
// bounded by that shape, whatever was sent — a frame of zeros that does
// hold the cells it declares, at nine bytes each and 65535 bytes of dead
// key-sum columns in memory, is refused on its header.
func TestCellCodecAllocatesAfterValidating(t *testing.T) {
	tblHdr := append([]byte(magic), 0xfc, 0xff, 0xff, 0x0f, 4, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0) // 2^28−4 cells × 65535
	blkHdr := append([]byte(blockMagic), 0, 0, 0, 0, 0, 0, 0, 4, 0xff, 0xff)                       // 2^26 cells × 65535
	for name, in := range map[string][]byte{"table": tblHdr, "block": blkHdr, "padded table": append(tblHdr, make([]byte, 1<<16)...)} {
		var err error
		got := allocatedBy(func() {
			if name == "block" {
				err = new(CellBlock).UnmarshalBinary(in)
			} else {
				err = new(Table).UnmarshalBinary(in)
			}
		})
		if err == nil || got > decodeSlack {
			t.Errorf("%s: err %v after allocating %d bytes", name, err, got)
		}
	}

	const cells = 4096 // of key length 65535: 256 MiB in memory, 44 KiB on the wire
	body := make([]byte, maskLen(0xffff)+cells*minCellBytes)
	want := Config{Cells: cells, HashCount: 4, KeyLen: 20, Seed: 1}
	lyingTable := append(append([]byte(magic), 0, 0x10, 0, 0, 4, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0), body...)
	lyingBlock := append(append([]byte(blockMagic), 0, 0, 0, 0, 0, 0x10, 0, 0, 0xff, 0xff), body...)
	var err error
	if got := allocatedBy(func() { _, err = UnmarshalTable(lyingTable, want) }); !errors.Is(err, ErrShape) || got > decodeSlack {
		t.Errorf("table of another key length: err %v after allocating %d bytes", err, got)
	}
	if got := allocatedBy(func() { err = new(CellBlock).UnmarshalWithin(lyingBlock, 20, cells) }); !errors.Is(err, ErrShape) || got > decodeSlack {
		t.Errorf("block of another key length: err %v after allocating %d bytes", err, got)
	}
	binary.LittleEndian.PutUint16(lyingBlock[12:], 20)
	if got := allocatedBy(func() { err = new(CellBlock).UnmarshalWithin(lyingBlock, 20, cells-1) }); !errors.Is(err, ErrShape) || got > decodeSlack {
		t.Errorf("block of more cells than asked for: err %v after allocating %d bytes", err, got)
	}
}

// TestCellCodecReusedBlockAllocatesNothing holds the serving loop's
// promise: encoding into a reused buffer and decoding into a reused
// block allocate nothing once both have grown.
func TestCellCodecReusedBlockAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var blk CellBlock
	blk.resetTo(7, 128, 20)
	blk.Counts, blk.KeySums, blk.Checks = randomCells(rng, 128, 20, []int{0, 1, 2, 8, 9, 16})
	var wire []byte
	var parsed CellBlock
	if n := testing.AllocsPerRun(20, func() {
		var err error
		if wire, err = blk.AppendBinary(wire[:0]); err != nil {
			t.Fatal(err)
		}
		if err := parsed.UnmarshalWithin(wire, 20, 128); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a block's round trip through reused storage allocates %v times", n)
	}
}
