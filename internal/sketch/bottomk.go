// Package sketch provides compact set-difference size estimators. The
// robust reconciliation protocol and the exact-sync baseline both need to
// size their IBLTs to the (unknown) number of differences; sending a small
// estimator first and an exactly-sized table second is the classic
// "Difference Digest" pattern (Eppstein, Goodrich, Uyeda, Varghese 2011).
//
// Two estimators are provided:
//
//   - BottomK: a bottom-k (k minimum hash values) sketch. Tiny and
//     mergeable; estimates the Jaccard similarity and from it the size of
//     the symmetric difference given both set sizes.
//   - Strata: a hierarchy of small IBLTs over subsampled keys, which is
//     more accurate for very small differences.
package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"robustset/internal/hashutil"
)

// BottomK is a bottom-k sketch of a key set: the k smallest 64-bit hash
// values of the keys, plus the set's cardinality. Two sketches built with
// the same K and Seed can estimate the size of their sets' symmetric
// difference.
type BottomK struct {
	k    int
	seed uint64
	n    int      // number of keys added
	mins []uint64 // sorted ascending, at most k values, distinct
	h    hashutil.Hasher
}

// NewBottomK constructs an empty bottom-k sketch. k must be ≥ 8 for the
// estimate to mean anything; 128 is a good default (1 KiB on the wire).
func NewBottomK(k int, seed uint64) (*BottomK, error) {
	if k < 8 {
		return nil, fmt.Errorf("sketch: bottom-k size %d < 8", k)
	}
	return &BottomK{k: k, seed: seed, h: hashutil.NewHasher(hashutil.DeriveSeed(seed, "sketch/bottomk"))}, nil
}

// Add inserts a key. Duplicate keys are idempotent (the sketch sees the
// same hash value).
func (b *BottomK) Add(key []byte) {
	b.n++
	v := b.h.Hash(key)
	full := len(b.mins) == b.k
	if full && v >= b.mins[b.k-1] {
		return // not among the k smallest: the common case, no search needed
	}
	i := sort.Search(len(b.mins), func(i int) bool { return b.mins[i] >= v })
	if i < len(b.mins) && b.mins[i] == v {
		return // duplicate hash (duplicate key, almost surely)
	}
	if full {
		b.mins = b.mins[:b.k-1]
	}
	b.mins = append(b.mins, 0)
	copy(b.mins[i+1:], b.mins[i:])
	b.mins[i] = v
}

// BottomKBuilder builds a BottomK over a long key stream without keeping
// the min list sorted along the way: hashes below the running k-th
// minimum are collected unsorted, and whenever 2k of them have piled up
// they are sorted and cut back to the k smallest, which tightens the
// threshold. Past the first few thousand keys nearly every key fails
// the threshold test and costs one hash and one compare. The result is
// exactly the sketch the same Adds on a BottomK would give.
type BottomKBuilder struct {
	b     *BottomK
	cand  []uint64 // unsorted candidates, none above limit; fewer than 2k
	limit uint64   // a hash above limit cannot be among the k smallest
}

// NewBottomKBuilder starts an empty sketch with NewBottomK's parameters.
// n is the number of Adds the caller expects; it only sizes the
// candidate buffer, so that a large k (a peer may ask for up to 65536)
// over a small set costs memory in proportion to the set, not to k.
func NewBottomKBuilder(k int, seed uint64, n int) (*BottomKBuilder, error) {
	b, err := NewBottomK(k, seed)
	if err != nil {
		return nil, err
	}
	return &BottomKBuilder{b: b, cand: make([]uint64, 0, max(0, min(2*k, n))), limit: math.MaxUint64}, nil
}

// Add inserts a key.
func (c *BottomKBuilder) Add(key []byte) {
	c.b.n++
	v := c.b.h.Hash(key)
	if v > c.limit {
		return
	}
	if c.cand = append(c.cand, v); len(c.cand) == 2*c.b.k {
		c.compact()
	}
}

// compact cuts the candidates back to their k smallest distinct values,
// sorted.
func (c *BottomKBuilder) compact() {
	slices.Sort(c.cand)
	c.cand = slices.Compact(c.cand)
	if len(c.cand) >= c.b.k {
		c.cand = c.cand[:c.b.k]
		c.limit = c.cand[c.b.k-1]
	}
}

// Finish returns the sketch. The builder must not be used afterwards.
func (c *BottomKBuilder) Finish() *BottomK {
	c.compact()
	c.b.mins = slices.Clip(c.cand)
	return c.b
}

// K returns the sketch size parameter.
func (b *BottomK) K() int { return b.k }

// Count returns the number of Add calls (with multiplicity).
func (b *BottomK) Count() int { return b.n }

// ErrIncompatibleSketch is returned when combining sketches with different
// parameters.
var ErrIncompatibleSketch = errors.New("sketch: incompatible sketch parameters")

// EstimateDiff estimates |A Δ B|, the size of the symmetric difference of
// the two key sets, from their bottom-k sketches. The estimator merges the
// two min-lists to approximate the bottom-k of the union and counts how
// many of those minima appear in both sketches (the standard bottom-k
// Jaccard estimator), then converts J into a difference size using the
// recorded cardinalities.
func EstimateDiff(a, c *BottomK) (float64, error) {
	if a.k != c.k || a.seed != c.seed {
		return 0, ErrIncompatibleSketch
	}
	if a.n == 0 && c.n == 0 {
		return 0, nil
	}
	// Merge the two sorted lists to find the union's k smallest values and
	// count those present in both.
	union := make([]uint64, 0, a.k)
	both := 0
	i, j := 0, 0
	for len(union) < a.k && (i < len(a.mins) || j < len(c.mins)) {
		switch {
		case j >= len(c.mins) || (i < len(a.mins) && a.mins[i] < c.mins[j]):
			union = append(union, a.mins[i])
			i++
		case i >= len(a.mins) || c.mins[j] < a.mins[i]:
			union = append(union, c.mins[j])
			j++
		default: // equal: in both
			union = append(union, a.mins[i])
			both++
			i++
			j++
		}
	}
	if len(union) == 0 {
		return 0, nil
	}
	jaccard := float64(both) / float64(len(union))
	// |A∩B| = J·|A∪B| and |A∪B| = (|A|+|B|)/(1+J), so
	// |AΔB| = |A|+|B| − 2|A∩B| = (|A|+|B|)·(1−J)/(1+J).
	return float64(a.n+c.n) * (1 - jaccard) / (1 + jaccard), nil
}

const bottomkMagic = "BTK1"

// MarshalBinary encodes the sketch:
//
//	"BTK1" | k u32 | seed u64 | n u64 | len u32 | len × u64 mins
func (b *BottomK) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 4+4+8+8+4+8*len(b.mins))
	out = append(out, bottomkMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(b.k))
	out = binary.LittleEndian.AppendUint64(out, b.seed)
	out = binary.LittleEndian.AppendUint64(out, uint64(b.n))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.mins)))
	for _, v := range b.mins {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out, nil
}

// UnmarshalBinary parses MarshalBinary output.
func (b *BottomK) UnmarshalBinary(data []byte) error {
	if len(data) < 28 || string(data[:4]) != bottomkMagic {
		return errors.New("sketch: bottom-k: bad magic or short buffer")
	}
	k := int(binary.LittleEndian.Uint32(data[4:]))
	seed := binary.LittleEndian.Uint64(data[8:])
	n := int(binary.LittleEndian.Uint64(data[16:]))
	l := int(binary.LittleEndian.Uint32(data[24:]))
	if l > k || len(data) != 28+8*l {
		return fmt.Errorf("sketch: bottom-k: inconsistent lengths (k=%d l=%d bytes=%d)", k, l, len(data))
	}
	nb, err := NewBottomK(k, seed)
	if err != nil {
		return err
	}
	nb.n = n
	nb.mins = make([]uint64, l)
	for i := 0; i < l; i++ {
		nb.mins[i] = binary.LittleEndian.Uint64(data[28+8*i:])
	}
	for i := 1; i < l; i++ {
		if nb.mins[i] <= nb.mins[i-1] {
			return errors.New("sketch: bottom-k: min list not strictly increasing")
		}
	}
	*b = *nb
	return nil
}

// WireSize returns the marshalled size in bytes.
func (b *BottomK) WireSize() int { return 28 + 8*len(b.mins) }
