package points

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// EncodedSize returns the number of bytes Encode produces for a point of
// dimension d: 8 bytes per coordinate, little endian.
func EncodedSize(d int) int { return 8 * d }

// Encode appends the canonical fixed-width binary encoding of p to dst and
// returns the extended slice. The encoding is 8 little-endian bytes per
// coordinate, which is what the IBLT layer uses as key material.
func Encode(dst []byte, p Point) []byte {
	for _, c := range p {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
	}
	return dst
}

// EncodeNew is Encode into a freshly allocated buffer.
func EncodeNew(p Point) []byte {
	return Encode(make([]byte, 0, EncodedSize(len(p))), p)
}

// Decode parses a point of dimension d from the canonical encoding.
func Decode(b []byte, d int) (Point, error) {
	p := make(Point, d)
	if err := DecodeInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto is Decode into the caller's point: b must hold exactly
// len(dst) coordinates. It lets a caller that decodes many points carve
// them out of one array.
func DecodeInto(dst Point, b []byte) error {
	if len(b) != EncodedSize(len(dst)) {
		return fmt.Errorf("points: decode: have %d bytes, want %d for dim %d", len(b), EncodedSize(len(dst)), len(dst))
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// EncodeSet encodes a slice of points as a length-prefixed concatenation of
// canonical point encodings. This is the payload format used when a
// protocol transfers raw points (e.g. the naive baseline).
func EncodeSet(s []Point, d int) []byte {
	out := make([]byte, 0, 4+len(s)*EncodedSize(d))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
	for _, p := range s {
		out = Encode(out, p)
	}
	return out
}

// DecodeSet parses the EncodeSet format.
func DecodeSet(b []byte, d int) ([]Point, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("points: decode set: short header (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	sz := EncodedSize(d)
	if len(b) != n*sz {
		return nil, fmt.Errorf("points: decode set: have %d payload bytes, want %d (n=%d dim=%d)", len(b), n*sz, n, d)
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		p, err := Decode(b[i*sz:(i+1)*sz], d)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// OccurrenceKeys builds the keys the exact strategies hash: keys[i] is
// Encode(pts[i]) followed by the little-endian u32 count of earlier equal
// points in pts, so a multiset becomes a set of distinct keys with dense
// occurrence indices per point, identically on both sides. Every point
// must have dimension d. The keys share one backing buffer; callers must
// treat them as immutable.
func OccurrenceKeys(pts []Point, d int) [][]byte {
	enc := EncodedSize(d)
	kl := enc + 4
	buf := make([]byte, len(pts)*kl)
	keys := make([][]byte, len(pts))
	// Open-addressed table over buf: a slot holds 1 + the index of the
	// latest point with its encoding, whose key carries that point's count.
	mask := 1<<bits.Len(uint(2*len(pts))) - 1
	slots := make([]uint32, mask+1)
	for i, p := range pts {
		k := buf[i*kl : (i+1)*kl : (i+1)*kl]
		Encode(k[:0], p)
		var h uint64
		for _, c := range p {
			h = (h ^ uint64(c)) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
		s := int(h) & mask
		for ; slots[s] != 0; s = (s + 1) & mask {
			if prev := buf[int(slots[s]-1)*kl:][:kl]; bytes.Equal(prev[:enc], k[:enc]) {
				binary.LittleEndian.PutUint32(k[enc:], binary.LittleEndian.Uint32(prev[enc:])+1)
				break
			}
		}
		slots[s] = uint32(i + 1)
		keys[i] = k
	}
	return keys
}
