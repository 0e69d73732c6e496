package iblt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// The cell codec: the one wire encoding of a run of cells, under a Table
// ("IBL3") and a CellBlock ("IBX2") alike. After the container's header:
//
//	mask ⌈keyLen/8⌉ bytes | cells × ( count zigzag-uvarint | live key-sum bytes | checksum u64 )
//
// Bit j of the mask (byte j/8, bit j%8) is set iff key-sum byte j is
// non-zero in some cell — a live column; a cell carries its live bytes
// only, in column order. Keys are little-endian coordinates and
// occurrence indices far below their field widths, so most columns are
// dead in every cell and cost nothing.
//
// The encoding is canonical, and the decoder refuses every other form —
// a mask bit at or past keyLen, a mask bit over an all-zero column, a
// count varint longer than its value needs or outside int32, missing or
// trailing bytes — so decode∘encode and encode∘decode are both the
// identity and callers may compare encodings for equality.

// minCellBytes is the least a cell costs on the wire: a one-byte count
// and the checksum. Decoders hold a declared cell count against it before
// they allocate.
const minCellBytes = 1 + 8

// MaxWireSize bounds the marshalled size of a table or a block of the
// given cell count and key length; the actual size depends on the
// contents and is what WireSize and len(MarshalBinary()) report.
func MaxWireSize(cells, keyLen int) int {
	return headerSize + maskLen(keyLen) + cells*(binary.MaxVarintLen32+keyLen+8)
}

// ErrShape is returned by the decoders that are told what to expect —
// UnmarshalTable, CellBlock.UnmarshalWithin — for a header that declares
// anything else. They hold the header against the expectation before
// they allocate, so what a peer declares never sizes an allocation.
var ErrShape = errors.New("iblt: declared shape is not the expected one")

func maskLen(keyLen int) int { return (keyLen + 7) / 8 }

// zigzag maps a count to the unsigned value whose varint is sent.
func zigzag(c int64) uint64 { return uint64(c<<1) ^ uint64(c>>63) }

// liveScratch is the live-column count up to which the codec works out
// of its callers' stack frames; a grid or occurrence key has a handful.
const liveScratch = 32

// liveColumns appends to live, in order, the key-sum byte columns that
// are non-zero in some cell.
func liveColumns(live []int, keySums []byte, keyLen int) []int {
	var buf [64]byte
	any := buf[:]
	if keyLen > len(buf) {
		any = make([]byte, keyLen)
	}
	for ; len(keySums) >= keyLen; keySums = keySums[keyLen:] {
		for j, b := range keySums[:keyLen] {
			any[j] |= b
		}
	}
	for j, b := range any[:keyLen] {
		if b != 0 {
			live = append(live, j)
		}
	}
	return live
}

// cellsWireSize returns the number of bytes the cells encode to.
func cellsWireSize(counts []int64, keySums []byte, keyLen int) int {
	var buf [liveScratch]int
	return cellsSize(counts, len(liveColumns(buf[:0], keySums, keyLen)), keyLen)
}

// cellsSize returns the number of bytes appendCells appends for cells
// with the given number of live columns.
func cellsSize(counts []int64, live, keyLen int) int {
	n := maskLen(keyLen) + len(counts)*(live+8)
	for _, c := range counts {
		n += (bits.Len64(zigzag(c)|1) + 6) / 7 // the varint's length
	}
	return n
}

// appendCells appends the encoding of len(counts) cells, whose live
// columns the caller has found (and sized dst by), to dst.
func appendCells(dst []byte, live []int, counts []int64, keySums []byte, checks []uint64, keyLen int) ([]byte, error) {
	mask := len(dst)
	for range maskLen(keyLen) {
		dst = append(dst, 0)
	}
	for _, j := range live {
		dst[mask+j/8] |= 1 << (j % 8)
	}
	for i, c := range counts {
		if c > math.MaxInt32 || c < math.MinInt32 {
			return nil, fmt.Errorf("iblt: cell %d count %d overflows wire format", i, c)
		}
		dst = binary.AppendUvarint(dst, zigzag(c))
		row := keySums[i*keyLen : (i+1)*keyLen]
		for _, j := range live {
			dst = append(dst, row[j])
		}
		dst = binary.LittleEndian.AppendUint64(dst, checks[i])
	}
	return dst, nil
}

// checkCellsLen reports whether data can hold n encoded cells at all —
// the test a decoder makes before it allocates n cells.
func checkCellsLen(data []byte, n, keyLen int) error {
	if uint64(len(data)) < uint64(maskLen(keyLen))+uint64(n)*minCellBytes {
		return fmt.Errorf("iblt: %d bytes cannot hold %d cells of key length %d", len(data), n, keyLen)
	}
	return nil
}

// decodeCells parses exactly len(counts) cells out of data, which must
// have passed checkCellsLen, into zeroed arrays. On error the arrays hold
// a partial decode.
func decodeCells(data []byte, counts []int64, keySums []byte, checks []uint64, keyLen int) error {
	mask, data := data[:maskLen(keyLen)], data[maskLen(keyLen):]
	var lbuf [liveScratch]int
	live := lbuf[:0]
	for j := 0; j < 8*len(mask); j++ {
		if mask[j/8]&(1<<(j%8)) == 0 {
			continue
		}
		if j >= keyLen {
			return fmt.Errorf("iblt: column mask bit %d beyond key length %d", j, keyLen)
		}
		live = append(live, j)
	}
	var sbuf [liveScratch]byte
	seen := sbuf[:] // the OR of each live column
	if len(live) > len(sbuf) {
		seen = make([]byte, len(live))
	}
	for i := range counts {
		u, w := binary.Uvarint(data)
		if w <= 0 || u > math.MaxUint32 || (w > 1 && data[w-1] == 0) {
			return fmt.Errorf("iblt: cell %d: count is not a canonical 32-bit varint", i)
		}
		if len(data) < w+len(live)+8 {
			return fmt.Errorf("iblt: cell %d: truncated", i)
		}
		counts[i] = int64(u>>1) ^ -int64(u&1)
		data = data[w:]
		row := keySums[i*keyLen : (i+1)*keyLen]
		for c, j := range live {
			row[j] = data[c]
			seen[c] |= data[c]
		}
		checks[i] = binary.LittleEndian.Uint64(data[len(live):])
		data = data[len(live)+8:]
	}
	if len(data) != 0 {
		return fmt.Errorf("iblt: %d trailing bytes after %d cells", len(data), len(counts))
	}
	for c, j := range live {
		if seen[c] == 0 {
			return fmt.Errorf("iblt: column mask names all-zero column %d", j)
		}
	}
	return nil
}
