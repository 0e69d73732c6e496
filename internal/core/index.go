package core

import (
	"encoding/binary"
	"slices"

	"robustset/internal/grid"
	"robustset/internal/points"
)

// morton maps a point to its full-resolution Morton (Z-order) code: bit b
// of shifted coordinate j is code bit b·d + (d−1−j), and the code's
// d·(L+1) bits fill w = ⌈d·(L+1)/64⌉ words, most significant first, the
// top word's spare bits zero. Codes compare as big-endian word tuples, so
// a point's level-ℓ cell is its code's top d·(ℓ+1) bits and every cell at
// every level is one run of a sorted code array, whatever the width.
type morton struct {
	d, bits, w int // dimension; bits per shifted coordinate (shifted coords are < 2Δ = 2^(L+1)); words per code
	shift      []int64
	// spread[x] holds the step bits of x with their bits d apart, so a
	// coordinate is interleaved step bits at a time instead of a bit at a
	// time: a byte wherever a byte's spread fits one word (d ≤ 9).
	step   int
	spread [256]uint64
	// gather and shr are putCell's masks and shifts: gather[0] keeps bits
	// 0, d, 2d, …, gather[s] blocks of 2^s bits 2^s·d apart, and round s
	// shifts by shr[s] = (d−1)·2^s, or by 0 once the most bits of a
	// coordinate one word holds are gathered. run[o] is how many bits d
	// apart a word holds from its bit o up.
	gather [7]uint64
	shr    [6]uint
	run    [64]uint8
}

// newMorton returns g's code.
func newMorton(g *grid.Grid) *morton {
	d, bits := g.Dim(), g.Levels()+1
	m := &morton{d: d, bits: bits, w: (d*bits + 63) / 64, shift: g.Shift(), step: min(8, 63/d+1)}
	for x := 0; x < 1<<m.step; x++ {
		for b := 0; b < m.step; b++ {
			m.spread[x] |= uint64(x>>b&1) << (b * d)
		}
	}
	perWord := min(bits, (63+d)/d)
	for s := range m.gather {
		block := uint64(1)<<(1<<s) - 1
		for at := 0; at < 64; at += d << s {
			m.gather[s] |= block << at
		}
		if s < len(m.shr) && 1<<s < perWord {
			m.shr[s] = uint(d-1) << s
		}
	}
	for o := range m.run {
		m.run[o] = uint8((63-o)/d + 1)
	}
	return m
}

// code writes p's Morton code to dst, w words; p must lie in the grid's
// universe. Coordinate j's bits go d apart into each word of the code,
// step bits of it at a time, spread by table: the mirror of putCell.
func (m *morton) code(dst []uint64, p points.Point) {
	clear(dst)
	d, step, mask, stride := m.d, uint(m.step), byte(1<<m.step-1), m.step*m.d
	for j, x := range p {
		x := uint64(x + m.shift[j])
		o, b := d-1-j, 0 // coordinate j's lowest bit in word k, and its index in the coordinate
		for k := len(dst) - 1; k >= 0; k, o = k-1, o-64 {
			if o >= 64 {
				continue
			}
			v, y := uint64(0), x>>b
			for s := o; y != 0 && s < 64; s += stride {
				v |= m.spread[byte(y)&mask] << s
				y >>= step
			}
			dst[k] |= v
			n := int(m.run[o])
			b, o = b+n, o+n*d
		}
	}
}

// cellShift returns how many low code bits lie below a level's cell.
func (m *morton) cellShift(level int) int { return m.d * (m.bits - 1 - level) }

// cellWord returns where a cell's bits end in the code when sh bits lie
// below it: they are the words before t and word t's bits in mask.
func (m *morton) cellWord(sh int) (t int, mask uint64) {
	return m.w - 1 - sh>>6, ^uint64(0) << (sh & 63)
}

// putCell writes the coordinates of code's cell at the level to key's
// first d words. Coordinate j's bits lie d apart in each word of the
// code; a word's are gathered into its low bits in six mask-and-shift
// rounds that each double the gathered blocks — straight-line code, the
// same for every d; no shift reaches 64 bits, so each is one instruction.
func (m *morton) putCell(key []byte, code []uint64, level int) {
	g, s, sh := &m.gather, &m.shr, uint(m.bits-1-level)
	for j := 0; j < m.d; j++ {
		var x uint64
		o, b := m.d-1-j, uint(0) // coordinate j's lowest bit in word k, and its index in the coordinate
		for k := len(code) - 1; k >= 0; k, o = k-1, o-64 {
			if o >= 64 {
				continue
			}
			y := code[k] >> (uint(o) & 63) & g[0]
			y = (y | y>>(s[0]&63)) & g[1]
			y = (y | y>>(s[1]&63)) & g[2]
			y = (y | y>>(s[2]&63)) & g[3]
			y = (y | y>>(s[3]&63)) & g[4]
			y = (y | y>>(s[4]&63)) & g[5]
			x |= ((y | y>>(s[5]&63)) & g[6]) << (b & 63)
			n := int(m.run[o])
			b, o = b+uint(n), o+n*m.d
		}
		binary.LittleEndian.PutUint64(key[8*j:], x>>sh)
	}
}

// search returns how many of codes, sorted and w words each, have a cell
// (t, mask) below code's — or, past, not above it. Codes that agree on
// their words before k are sorted on word k, so the search narrows to the
// codes that agree with code a word at a time.
func search(codes, code []uint64, w, t int, mask uint64, past bool) int {
	lo, hi := 0, len(codes)/w
	for k := 0; k < t; k++ {
		lo, hi = bound(codes, w, k, code[k], ^uint64(0), lo, hi, false), bound(codes, w, k, code[k], ^uint64(0), lo, hi, true)
	}
	return bound(codes, w, t, code[t], mask, lo, hi, past)
}

// bound returns the first i in [lo, hi) whose word k, masked, exceeds v's
// — or, !past, is not below it; the codes are sorted on it in [lo, hi).
func bound(codes []uint64, w, k int, v, mask uint64, lo, hi int, past bool) int {
	if v &= mask; past {
		if v == mask {
			return hi // nothing exceeds the greatest masked word
		}
		v++ // a masked word above v is at least v+1
	}
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if codes[h*w+k]&mask < v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// sortCodes sorts codes, w words each with at most their low bits bits
// set, ascending by LSD radix sort a byte a pass. codes is consumed as
// scratch.
func sortCodes(codes []uint64, w, bits int) []uint64 {
	n := len(codes) / w
	tmp := make([]uint64, len(codes))
	var hist [8][256]int
	for k := w - 1; k >= 0 && n > 0; k, bits = k-1, bits-64 { // word k holds the next 64 bits
		passes := (min(bits, 64) + 7) / 8
		hist = [8][256]int{}
		for at := k; at < len(codes); at += w {
			c := codes[at]
			for p := 0; p < passes; p++ {
				hist[p][byte(c>>(8*p))]++
			}
		}
		for p := 0; p < passes; p++ {
			h, sh := &hist[p], uint(8*p)
			if h[byte(codes[k]>>sh)] == n {
				continue // every code shares this digit: the pass moves nothing
			}
			at := 0
			for digit, c := range h {
				h[digit], at = at, at+c*w
			}
			for r := 0; r < len(codes); r += w {
				digit := byte(codes[r+k] >> sh)
				to := h[digit]
				h[digit] = to + w
				tmp[to] = codes[r]
				for q := 1; q < w; q++ {
					tmp[to+q] = codes[r+q]
				}
			}
			codes, tmp = tmp, codes
		}
	}
	return codes
}

// codeChunk is the most codes one chunk of a codeIndex holds. A full
// chunk splits in two halves; a chunk that a delete leaves able to fit,
// together with a neighbour, in half a chunk is merged into it.
const codeChunk = 512

// codeIndex is a multiset's Morton codes in one sorted array, cut into
// chunks of at most codeChunk codes: an update moves one chunk and the
// running counts of the later ones, O(log n + codeChunk + n/codeChunk).
// It is a View's presort and what a Maintainer keeps of its points: a
// cell's count is two binary searches over its code range, and a level's
// (cell, occurrence) keys are a walk over runs of equal code prefixes.
type codeIndex struct {
	*morton
	chunks [][]uint64 // each sorted and non-empty, w words a code; in order, one sorted array
	before []int      // before[c] = codes in chunks[:c]; len(chunks)+1 entries
	// lasts holds the last code of each chunk, w words apiece: find
	// binary-searches this dense array rather than reading each probed
	// chunk, a cache miss apiece.
	lasts []uint64
}

// newCodeIndex holds the sorted codes, sharing their storage.
func newCodeIndex(m *morton, sorted []uint64) *codeIndex {
	x := &codeIndex{morton: m, before: []int{0}}
	w := m.w
	for at, n := 0, len(sorted)/w; at < n; at += codeChunk {
		end := min(at+codeChunk, n)
		x.chunks = append(x.chunks, sorted[at*w:end*w:end*w])
		x.before = append(x.before, end)
		x.lasts = append(x.lasts, sorted[(end-1)*w:end*w]...)
	}
	return x
}

// len returns the number of codes held.
func (x *codeIndex) len() int { return x.before[len(x.chunks)] }

// find returns where code is or would be inserted: chunk c and the
// position i of the first code ≥ code in it, the end of the last chunk
// when every code is smaller. An empty index returns (0, 0).
func (x *codeIndex) find(code []uint64) (c, i int) {
	if len(x.chunks) == 0 {
		return 0, 0
	}
	w := x.w
	c = search(x.lasts[:len(x.lasts)-w], code, w, w-1, ^uint64(0), false)
	return c, search(x.chunks[c], code, w, w-1, ^uint64(0), false)
}

// cellCount returns how many codes share code's bits above the low sh:
// the points in code's cell at the level whose cells those bits name.
// (c, i) is find's position for code. A bound of the cell's code range
// that falls inside chunk c — at the fine levels both do — is searched
// there alone, on the side of i it must lie.
func (x *codeIndex) cellCount(code []uint64, sh, c, i int) int {
	if len(x.chunks) == 0 {
		return 0
	}
	w, ch := x.w, x.chunks[c]
	t, mask := x.cellWord(sh)
	// Every code of ch[:i] is below code: the cell starts inside ch if
	// one of them is below its cell, and ends inside ch if a code of
	// ch[i:] is above it.
	from := search(ch[:i*w], code, w, t, mask, false)
	if from > 0 {
		from += x.before[c]
	} else {
		from = x.rank(code, t, mask, false)
	}
	to := i + search(ch[i*w:], code, w, t, mask, true)
	if to < len(ch)/w {
		to += x.before[c]
	} else {
		to = x.rank(code, t, mask, true)
	}
	return to - from
}

// rank returns how many codes have a cell (t, mask) below code's — or,
// past, not above it.
func (x *codeIndex) rank(code []uint64, t int, mask uint64, past bool) int {
	w := x.w
	c := search(x.lasts[:len(x.lasts)-w], code, w, t, mask, past)
	return x.before[c] + search(x.chunks[c], code, w, t, mask, past)
}

// insert puts a copy of code at find's (c, i) for it.
func (x *codeIndex) insert(c, i int, code []uint64) {
	w := x.w
	if len(x.chunks) == 0 {
		x.chunks, x.before, x.lasts = [][]uint64{slices.Clone(code)}, []int{0, 1}, slices.Clone(code)
		return
	}
	if ch := x.chunks[c]; len(ch) == codeChunk*w {
		half := codeChunk / 2 * w
		right := make([]uint64, half, codeChunk*w)
		copy(right, ch[half:])
		x.chunks[c] = ch[:half]
		x.chunks = slices.Insert(x.chunks, c+1, right)
		x.before = slices.Insert(x.before, c+1, x.before[c]+codeChunk/2)
		x.lasts = slices.Insert(x.lasts, c*w, ch[half-w:half]...)
		if i > codeChunk/2 {
			c, i = c+1, i-codeChunk/2
		}
	}
	x.chunks[c] = slices.Insert(x.chunks[c], i*w, code...)
	x.setLast(c)
	for k := c + 1; k < len(x.before); k++ {
		x.before[k]++
	}
}

// remove deletes the code at (c, i).
func (x *codeIndex) remove(c, i int) {
	w := x.w
	x.chunks[c] = slices.Delete(x.chunks[c], i*w, i*w+w)
	for k := c + 1; k < len(x.before); k++ {
		x.before[k]--
	}
	if len(x.chunks[c]) == 0 {
		x.chunks = slices.Delete(x.chunks, c, c+1)
		x.before = slices.Delete(x.before, c+1, c+2)
		x.lasts = slices.Delete(x.lasts, c*w, c*w+w)
		return
	}
	x.setLast(c)
	if c > 0 && len(x.chunks[c-1])+len(x.chunks[c]) <= codeChunk/2*w {
		c-- // merge into the chunk before
	}
	if c+1 < len(x.chunks) && len(x.chunks[c])+len(x.chunks[c+1]) <= codeChunk/2*w {
		x.chunks[c] = append(x.chunks[c], x.chunks[c+1]...)
		x.chunks = slices.Delete(x.chunks, c+1, c+2)
		x.before = slices.Delete(x.before, c+1, c+2)
		x.lasts = slices.Delete(x.lasts, c*w, c*w+w)
	}
}

// setLast copies chunk c's last code into lasts.
func (x *codeIndex) setLast(c int) {
	ch := x.chunks[c]
	copy(x.lasts[c*x.w:], ch[len(ch)-x.w:])
}

// scan calls emit with the (cell, occurrence) key of every code at the
// level — each cell's occurrences 0..count−1, cells in code order — with
// the cell's coordinates decoded from the code prefix at each run's
// start. The key buffer is reused between calls.
func (x *codeIndex) scan(level int, emit func(key []byte)) {
	d, w := x.d, x.w
	t, mask := x.cellWord(x.cellShift(level))
	key := make([]byte, KeyLen(d))
	var prev []uint64
	var o uint32
	for _, ch := range x.chunks {
		for at := 0; at < len(ch); at += w {
			if code := ch[at : at+w : at+w]; prev == nil || (code[t]^prev[t])&mask != 0 || !slices.Equal(code[:t], prev[:t]) {
				prev, o = code, 0
				x.putCell(key, code, level)
			} else {
				o++
			}
			binary.LittleEndian.PutUint32(key[8*d:], o)
			emit(key)
		}
	}
}
