package points

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// KeyWords maps a point to the d words its key begins with: word j of p
// is uint64(p[j]+Shift[j]) >> RShift, written little endian. The zero
// KeyWords gives the point's own encoding (Encode), which begins its
// occurrence key (OccurrenceKeys); a grid's shift and a level's right
// shift give the point's cell at that level.
type KeyWords struct {
	Shift  []int64 // nil: no shift
	RShift uint
}

// ErrNotHeld marks a key that names an occurrence the points do not
// hold, or one another key names too.
var ErrNotHeld = errors.New("points: key names an occurrence the points do not hold")

// Dropped is what DropOccurrences leaves of a multiset.
type Dropped struct {
	// Kept holds copies of the points no key named, in the input's order,
	// carved out of one array with room after them for a point of each
	// addition key; Add appends each.
	Kept []Point
	// Removed[k] is the point key k named: the input's own, not a copy.
	Removed []Point
	// Left[k] is how many of the points with key k's words are kept.
	Left []uint32
	room []int64 // the additions' coordinates, not carved yet
	d    int
}

// Add appends a point to Kept, carved out of the room DropOccurrences
// left, and returns it for the caller to fill. It panics past that room.
func (r *Dropped) Add() Point {
	p := Point(r.room[:r.d:r.d])
	r.room = r.room[r.d:]
	r.Kept = append(r.Kept, p)
	return p
}

// mix is the multiplier of the unkeyed hash DropOccurrences looks words
// up by; the lookups use the product's top bits.
const mix = 0x9e3779b97f4a7c15

// DropOccurrences removes from pts the occurrences the keys name and
// copies out the rest: S′_B of a decoded difference, before its
// additions. A key is d little-endian words, a point's KeyWords, then a
// little-endian u32 occurrence j: the j-th point, from 0 in pts's order,
// whose words are the key's. Every point has dimension d. pos are the
// keys of the additions, of the same form, which the caller decodes into
// the points it Adds. A key of either kind with the wrong length is an
// error; a key that names an occurrence pts do not hold, or that another
// key names too, is ErrNotHeld.
//
// The key indices are sorted by words, then occurrence, so the keys of
// one words are a run. An open-addressed table, at most two thirds full,
// finds a run from its words, behind a bitmap of 16 to 32 bits a key
// that holds one bit of each run's hash. One pass over pts hashes each
// point's words as it copies the point into the next row of S′_B; a
// clear bit, nearly every point no key names, keeps it. A set bit looks
// the words up, counts the point as its run's next occurrence and drops
// it if a key names that occurrence. The rows are one array of exactly
// the kept points and the additions.
func DropOccurrences(pts []Point, d int, kw KeyWords, keys, pos [][]byte) (Dropped, error) {
	enc, n, adds := EncodedSize(d), len(keys), len(pos)
	for _, kind := range [][][]byte{keys, pos} {
		for _, key := range kind {
			if len(key) != enc+4 {
				return Dropped{}, fmt.Errorf("points: key of %d bytes, want %d", len(key), enc+4)
			}
		}
	}
	rows := len(pts) - n
	if rows < 0 {
		return Dropped{}, fmt.Errorf("%w: %d keys name occurrences of %d points", ErrNotHeld, n, len(pts))
	}
	if kw.Shift == nil {
		kw.Shift = make([]int64, d)
	}
	shift, rsh := kw.Shift[:d], kw.RShift
	occ := func(k uint32) uint32 { return binary.LittleEndian.Uint32(keys[k][enc:]) }
	same := func(a, b uint32) bool { return bytes.Equal(keys[a][:enc], keys[b][:enc]) }

	// The table holds a run's start in order + 1. By run start, seen
	// counts the points of its words met so far and next is where in
	// order its first key not yet met is.
	nb, ts := max(1<<bits.Len(uint(n))/4, 1), 1<<bits.Len(uint(n+n/2))
	bitmap, scratch := make([]uint64, nb), make([]uint32, ts+3*n)
	slots, order, seen, next := scratch[:ts], scratch[ts:ts+n], scratch[ts+n:ts+2*n], scratch[ts+2*n:]
	bshift, tshift, mask := uint(64-bits.Len(uint(nb*64-1))), uint(64-bits.Len(uint(ts-1))), uint64(ts-1)
	for k := range order {
		order[k] = uint32(k)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return cmp.Or(bytes.Compare(keys[a][:enc], keys[b][:enc]), cmp.Compare(occ(a), occ(b)))
	})
	for s, t := uint32(0), uint32(0); s < uint32(n); s = t {
		h := uint64(0)
		for j := 0; j < enc; j += 8 {
			h = (h ^ binary.LittleEndian.Uint64(keys[order[s]][j:])) * mix
		}
		b := h >> bshift
		bitmap[b>>6] |= 1 << (b & 63)
		at := h >> tshift
		for slots[at] != 0 {
			at = (at + 1) & mask
		}
		slots[at], next[s] = s+1, s
		for t = s + 1; t < uint32(n) && same(order[t], order[s]); t++ {
			if occ(order[t]) == occ(order[t-1]) {
				return Dropped{}, fmt.Errorf("%w: keys %d and %d both name occurrence %d", ErrNotHeld, order[t-1], order[t], occ(order[t]))
			}
		}
	}
	// take counts p, of hash h, as met, and returns the key that names
	// that occurrence of its words, if one does.
	take := func(p Point, h uint64) (uint32, bool) {
	probe:
		for at := h >> tshift; slots[at] != 0; at = (at + 1) & mask {
			s := slots[at] - 1
			for j, c := range p {
				if binary.LittleEndian.Uint64(keys[order[s]][8*j:]) != uint64(c+shift[j])>>rsh {
					continue probe
				}
			}
			c := next[s]
			if seen[s]++; c == uint32(n) || occ(order[c]) != seen[s]-1 || !same(order[c], order[s]) {
				return 0, false
			}
			next[s]++
			return order[c], true
		}
		return 0, false
	}

	coords, spare := make([]int64, (rows+adds)*d), make([]int64, d)
	r := Dropped{Kept: make([]Point, rows, rows+adds), room: coords[rows*d:], d: d}
	if n > 0 {
		r.Removed = make([]Point, n)
	}
	w := 0
	for _, p := range pts {
		row := spare // past the rows only if a key names what pts lack: reported below
		if w < rows {
			row = coords[w*d : (w+1)*d : (w+1)*d]
		}
		h := uint64(0)
		for j, c := range p {
			row[j] = c
			h = (h ^ (uint64(c+shift[j]) >> rsh)) * mix
		}
		if b := h >> bshift; bitmap[b>>6]&(1<<(b&63)) != 0 {
			if k, ok := take(p, h); ok {
				r.Removed[k] = p
				continue
			}
		}
		if w < rows {
			r.Kept[w] = row
			w++
		}
	}
	// Each run must have met every occurrence its keys name. The table's
	// slots become Left.
	r.Left = slots[:n]
	for s, t := uint32(0), uint32(0); s < uint32(n); s = t {
		for t = s + 1; t < uint32(n) && same(order[t], order[s]); t++ {
		}
		if c := next[s]; c < t {
			return Dropped{}, fmt.Errorf("%w: key %d names occurrence %d of %d points with its words", ErrNotHeld, order[c], occ(order[c]), seen[s])
		}
		for _, k := range order[s:t] {
			r.Left[k] = seen[s] - (t - s)
		}
	}
	return r, nil
}
