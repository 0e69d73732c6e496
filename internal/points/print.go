package points

import (
	"encoding/binary"

	"robustset/internal/hashutil"
)

// Print is the fingerprint of a multiset of points: the count, and the
// sum mod 2⁶⁴ of a keyed 64-bit hash of each point. A sum sees no order
// and counts every copy, so two multisets that differ share a Print under
// one key with probability about 2⁻⁶⁴; a point in or out is one hash, and
// the Print of a disjoint union is the sum of its parts' Prints. A key
// that both parties derive from public parameters is no secret: a Print
// catches faults, not adversaries.
type Print struct {
	Count uint64
	Sum   uint64
}

// PrintKey keys the point hash a Print sums. Prints under different keys
// are unrelated.
type PrintKey uint64

// Hash is the keyed hash of p that a Print sums.
func (k PrintKey) Hash(p Point) uint64 {
	h := uint64(k)
	for _, c := range p {
		h = hashutil.SplitMix64(h ^ uint64(c))
	}
	return h
}

// HashEncoded is Hash of the point whose Encode form enc is.
func (k PrintKey) HashEncoded(enc []byte) uint64 {
	h := uint64(k)
	for ; len(enc) >= 8; enc = enc[8:] {
		h = hashutil.SplitMix64(h ^ binary.LittleEndian.Uint64(enc))
	}
	return h
}

// Of returns the Print of pts.
func (k PrintKey) Of(pts []Point) Print {
	f := Print{Count: uint64(len(pts))}
	for _, p := range pts {
		f.Sum += k.Hash(p)
	}
	return f
}

// Add puts in a point of hash h.
func (f *Print) Add(h uint64) { f.Count, f.Sum = f.Count+1, f.Sum+h }

// Merge puts in every point of o, the Print of a multiset under the same
// key: f becomes the Print of the two multisets' sum.
func (f *Print) Merge(o Print) { f.Count, f.Sum = f.Count+o.Count, f.Sum+o.Sum }

// Remove takes out a point of hash h; it must be in.
func (f *Print) Remove(h uint64) { f.Count, f.Sum = f.Count-1, f.Sum-h }
