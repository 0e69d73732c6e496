package points

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// errLength is refDrop's error for a key of the wrong length.
var errLength = errors.New("key length")

// refDrop is DropOccurrences with maps: each point's words as a string,
// the indices of the points with those words in slice order, and the
// indices the keys name. It returns the kept indices, the named index of
// each key and each key's Left.
func refDrop(pts []Point, d int, kw KeyWords, keys, pos [][]byte) (kept, named []int, left []uint32, err error) {
	for _, key := range append(slices.Clone(keys), pos...) {
		if len(key) != 8*d+4 {
			return nil, nil, nil, errLength
		}
	}
	wordsOf := func(p Point) string {
		var b []byte
		for j, c := range p {
			s := int64(0)
			if kw.Shift != nil {
				s = kw.Shift[j]
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(c+s)>>kw.RShift)
		}
		return string(b)
	}
	at := map[string][]int{}
	for i, p := range pts {
		at[wordsOf(p)] = append(at[wordsOf(p)], i)
	}
	perWords := map[string]int{}
	taken := map[int]bool{}
	for _, key := range keys {
		w, occ := string(key[:8*d]), binary.LittleEndian.Uint32(key[8*d:])
		if int(occ) >= len(at[w]) || taken[at[w][occ]] {
			return nil, nil, nil, ErrNotHeld
		}
		taken[at[w][occ]] = true
		named = append(named, at[w][occ])
		perWords[w]++
	}
	for _, key := range keys {
		w := string(key[:8*d])
		left = append(left, uint32(len(at[w])-perWords[w]))
	}
	for i := range pts {
		if !taken[i] {
			kept = append(kept, i)
		}
	}
	return kept, named, left, nil
}

// FuzzDropOccurrences holds DropOccurrences to refDrop over duplicate
// points, shifted and right-shifted words, and keys that name absent
// occurrences, name one twice, name copies other than the top ones, name
// words no point has, or have the wrong length: the same error class, and
// on success the same kept points in the same order, each a copy, the
// same points (the input's own) removed in key order, the same Left, and
// room for exactly the additions asked for.
func FuzzDropOccurrences(f *testing.F) {
	// Points are d bytes each; a key is three bytes (kind, which, occ).
	f.Add([]byte{1, 2, 3, 4, 1, 2, 5, 5, 1, 2}, []byte{0, 0, 2, 0, 2, 1}, uint8(1), uint8(0), uint16(0), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 1, 2}, []byte{0, 0, 1, 7, 0, 0}, uint8(1), uint8(0), uint16(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 1, 2}, []byte{0, 1, 1}, uint8(1), uint8(0), uint16(0), uint8(2))
	f.Add([]byte{9, 9, 9}, []byte{5, 9, 0}, uint8(0), uint8(0), uint16(0), uint8(0))
	f.Add([]byte{9, 9, 9, 1, 2, 3}, []byte{6, 0, 5}, uint8(2), uint8(0), uint16(0), uint8(1))
	f.Add([]byte{10, 11, 12, 13, 14, 15, 16, 17}, []byte{0, 0, 0, 0, 3, 1, 4, 2, 0}, uint8(1), uint8(2), uint16(0x3a5), uint8(2))
	f.Add(slices.Repeat([]byte{3, 7, 3, 7, 4, 7, 200, 1}, 40), []byte{0, 0, 3, 1, 2, 5, 2, 4, 0, 0, 6, 2, 3, 1, 1}, uint8(1), uint8(3), uint16(0xbeef), uint8(3))

	f.Fuzz(func(t *testing.T, data, ops []byte, d8, rsh8 uint8, shift16 uint16, adds8 uint8) {
		d, adds := int(d8%3)+1, int(adds8%4)
		kw := KeyWords{RShift: uint(rsh8 % 5)}
		if shift16 != 0 {
			kw.Shift = make([]int64, d)
			for j := range kw.Shift {
				kw.Shift[j] = int64(shift16>>(4*j)) & 15
			}
		}
		pts := make([]Point, len(data)/d)
		for i := range pts {
			pts[i] = make(Point, d)
			for j := range pts[i] {
				pts[i][j] = int64(data[i*d+j])
			}
		}
		keyOf := func(p Point, occ uint32) []byte {
			var b []byte
			for j, c := range p {
				s := int64(0)
				if kw.Shift != nil {
					s = kw.Shift[j]
				}
				b = binary.LittleEndian.AppendUint64(b, uint64(c+s)>>kw.RShift)
			}
			return binary.LittleEndian.AppendUint32(b, occ)
		}
		var keys, pos [][]byte
		for range adds {
			pos = append(pos, make([]byte, 8*d+4))
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			kind, which, occ := ops[0]%8, int(ops[1]), uint32(ops[2]%4)
			switch {
			case kind <= 4 && len(pts) > 0:
				keys = append(keys, keyOf(pts[which%len(pts)], occ))
			case kind == 6 && which%2 == 0:
				if n := int(ops[2]) % (8*d + 9); n != 8*d+4 {
					keys = append(keys, make([]byte, n))
				}
			case kind == 6:
				if n := int(ops[2]) % (8*d + 9); n != 8*d+4 {
					pos = append(pos, make([]byte, n))
				}
			case kind == 7 && len(keys) > 0:
				keys = append(keys, keys[which%len(keys)])
			default:
				keys = append(keys, keyOf(slices.Repeat(Point{int64(which) + 300}, d), occ%2))
			}
		}
		kept, named, left, werr := refDrop(pts, d, kw, keys, pos)
		got, err := DropOccurrences(pts, d, kw, keys, pos)
		if errors.Is(err, ErrNotHeld) != errors.Is(werr, ErrNotHeld) || (err == nil) != (werr == nil) {
			t.Fatalf("error %v, reference %v", err, werr)
		}
		if err != nil {
			return
		}
		if len(got.Kept) != len(kept) || cap(got.Kept) != len(kept)+adds {
			t.Fatalf("%d kept of capacity %d, want %d and room for %d", len(got.Kept), cap(got.Kept), len(kept), adds)
		}
		for i, at := range kept {
			if !got.Kept[i].Equal(pts[at]) || cap(got.Kept[i]) != d || &got.Kept[i][0] == &pts[at][0] {
				t.Fatalf("kept point %d is %v (capacity %d), want a copy of point %d, %v", i, got.Kept[i], cap(got.Kept[i]), at, pts[at])
			}
		}
		if len(got.Removed) != len(named) || !slices.Equal(got.Left, left) {
			t.Fatalf("%d removed, left %v; want %d, %v", len(got.Removed), got.Left, len(named), left)
		}
		for k, at := range named {
			if &got.Removed[k][0] != &pts[at][0] {
				t.Fatalf("key %d removed %v, want point %d itself", k, got.Removed[k], at)
			}
		}
		for a := range adds {
			p := got.Add()
			if len(p) != d || cap(p) != d || len(got.Kept) != len(kept)+a+1 {
				t.Fatalf("addition %d: a point of length %d, capacity %d; %d kept", a, len(p), cap(p), len(got.Kept))
			}
			for j := range p {
				p[j] = -1
			}
		}
		for i, at := range kept {
			if !got.Kept[i].Equal(pts[at]) {
				t.Fatalf("filling the additions changed kept point %d", i)
			}
		}
	})
}
