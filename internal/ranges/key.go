// Package ranges is the Morton-ordered key index the benchmark's probes
// time and nothing in the product uses: a canonical order-preserving
// Morton (Z-order) encoding of points into fixed-length
// occurrence-indexed byte keys, and a balanced B-tree over the keys that
// keeps a per-subtree aggregate (count and XOR of the keys' 64-bit
// fingerprints). A dataset's root is a points.Print, not a tree root.
package ranges

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sort"

	"robustset/internal/points"
)

// KeyLen returns the encoded key length for a universe of the given
// dimension: 8 bytes per coordinate of interleaved Morton bits plus a
// 4-byte big-endian occurrence index that makes multiset keys unique.
func KeyLen(dim int) int { return 8*dim + 4 }

// occLen is the width of the occurrence-index suffix.
const occLen = 4

// EncodeKey appends the canonical key of the occ-th occurrence of p to
// dst and returns the extended slice. Coordinates must be non-negative
// (the points.Universe contract); the encoding interleaves the 64
// coordinate bits most-significant first, dimension-minor, so
// lexicographic byte order equals Morton order.
func EncodeKey(dst []byte, p points.Point, occ uint32) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, KeyLen(len(p)))...)
	mortonInto(dst[off:off+8*len(p)], p)
	binary.BigEndian.PutUint32(dst[off+8*len(p):], occ)
	return dst
}

// mortonInto writes the 8·d-byte Morton interleaving of p into buf,
// which must be zeroed and exactly 8·len(p) bytes.
func mortonInto(buf []byte, p points.Point) {
	d := len(p)
	for dim, c := range p {
		u := uint64(c)
		for u != 0 {
			level := bits.LeadingZeros64(u)
			pos := level*d + dim
			buf[pos>>3] |= 1 << (7 - pos&7)
			u &^= 1 << (63 - level)
		}
	}
}

// Keys builds the sorted occurrence-indexed key multiset for pts: each
// point contributes one key per occurrence, suffixed 0,1,2,... so
// duplicates stay distinct and XOR fingerprints never cancel. The keys
// share one backing buffer; callers must treat them as immutable.
func Keys(u points.Universe, pts []points.Point) [][]byte {
	kl := KeyLen(u.Dim)
	buf := make([]byte, len(pts)*kl)
	keys := make([][]byte, len(pts))
	for i, p := range pts {
		k := buf[i*kl : (i+1)*kl : (i+1)*kl]
		mortonInto(k[:kl-occLen], p)
		keys[i] = k
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	// Occurrence suffixes were zero during the sort, so equal points are
	// adjacent; numbering them by run position keeps the slice sorted.
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && bytes.Equal(keys[j][:kl-occLen], keys[i][:kl-occLen]) {
			j++
		}
		for r := i; r < j; r++ {
			binary.BigEndian.PutUint32(keys[r][kl-occLen:], uint32(r-i))
		}
		i = j
	}
	return keys
}
