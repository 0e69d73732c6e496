package core

import (
	"encoding/binary"
	"slices"

	"robustset/internal/grid"
	"robustset/internal/points"
)

// morton maps a point to its full-resolution Morton (Z-order) code over a
// grid whose shifted coordinates fit one 64-bit word together: bit b of
// shifted coordinate j lands at code bit b·d + (d−1−j). A point's level-ℓ
// cell is then the code's top d·(ℓ+1) bits, so every cell at every level
// is one run of a sorted code array.
type morton struct {
	d, bits int // dimension; bits per shifted coordinate (shifted coords are < 2Δ = 2^(L+1))
	shift   []int64
	// spread[x] holds byte x with its bits d apart, so a coordinate is
	// interleaved a byte at a time instead of a bit at a time.
	spread [256]uint64
	// gather and shr are putCell's masks and shifts: gather[0] keeps bits
	// 0, d, 2d, …, gather[s] blocks of 2^s bits 2^s·d apart, and round s
	// shifts by shr[s] = (d−1)·2^s, or by 0 once a coordinate is gathered.
	gather [7]uint64
	shr    [6]uint
}

// newMorton returns g's code, or nil when d·(L+1) exceeds 64 bits.
func newMorton(g *grid.Grid) *morton {
	d, bits := g.Dim(), g.Levels()+1
	if d*bits > 64 {
		return nil
	}
	m := &morton{d: d, bits: bits, shift: g.Shift()}
	for x := range m.spread {
		for b := 0; b < 8; b++ {
			m.spread[x] |= uint64(x>>b&1) << (b * d)
		}
	}
	for s := range m.gather {
		block := uint64(1)<<(1<<s) - 1
		for at := 0; at < 64; at += d << s {
			m.gather[s] |= block << at
		}
		if s < len(m.shr) && 1<<s < bits {
			m.shr[s] = uint(d-1) << s
		}
	}
	return m
}

// code returns p's Morton code; p must lie in the grid's universe.
func (m *morton) code(p points.Point) uint64 {
	var code uint64
	for j, x := range p {
		x := uint64(x + m.shift[j])
		for c := 0; 8*c < m.bits; c++ {
			code |= m.spread[byte(x>>(8*c))] << (8*c*m.d + m.d - 1 - j)
		}
	}
	return code
}

// cellShift returns how many low code bits lie below a level's cell.
func (m *morton) cellShift(level int) uint { return uint(m.d * (m.bits - 1 - level)) }

// putCell writes a cell's coordinates, decoded from its code prefix, to
// key's first d words. Coordinate j is bits d−1−j, 2d−1−j, … of cell,
// gathered into bits 0, 1, 2, … in six mask-and-shift rounds that each
// double the gathered blocks — straight-line code, the same for every d;
// no shift reaches 64 bits, so each is one instruction.
func (m *morton) putCell(key []byte, cell uint64) {
	g, s := &m.gather, &m.shr
	for j := 0; j < m.d; j++ {
		x := cell >> (uint(m.d-1-j) & 63) & g[0]
		x = (x | x>>(s[0]&63)) & g[1]
		x = (x | x>>(s[1]&63)) & g[2]
		x = (x | x>>(s[2]&63)) & g[3]
		x = (x | x>>(s[3]&63)) & g[4]
		x = (x | x>>(s[4]&63)) & g[5]
		binary.LittleEndian.PutUint64(key[8*j:], (x|x>>(s[5]&63))&g[6])
	}
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
	chunks [][]uint64 // each sorted and non-empty; in order, one sorted array
	before []int      // before[c] = codes in chunks[:c]; len(chunks)+1 entries
	// lasts[c] is last(chunks[c]): find binary-searches this dense array
	// rather than reading each probed chunk, a cache miss apiece.
	lasts []uint64
}

// newCodeIndex holds the sorted codes, sharing their storage.
func newCodeIndex(m *morton, sorted []uint64) *codeIndex {
	x := &codeIndex{morton: m, before: []int{0}}
	for at := 0; at < len(sorted); at += codeChunk {
		end := min(at+codeChunk, len(sorted))
		x.chunks = append(x.chunks, sorted[at:end:end])
		x.before = append(x.before, end)
		x.lasts = append(x.lasts, sorted[end-1])
	}
	return x
}

// len returns the number of codes held.
func (x *codeIndex) len() int { return x.before[len(x.chunks)] }

// find returns where code is or would be inserted: chunk c and the
// position i of the first code ≥ code in it, the end of the last chunk
// when every code is smaller. An empty index returns (0, 0).
func (x *codeIndex) find(code uint64) (c, i int) {
	if len(x.chunks) == 0 {
		return 0, 0
	}
	c, _ = slices.BinarySearch(x.lasts[:len(x.lasts)-1], code)
	i, _ = slices.BinarySearch(x.chunks[c], code)
	return c, i
}

// cellCount returns how many codes share code's bits above the low sh:
// the points in code's cell at the level whose cells those bits name.
// (c, i) is find's position for code. A bound of the cell's code range
// that falls inside chunk c — at the fine levels both do — is searched
// there alone, on the side of i it must lie.
func (x *codeIndex) cellCount(code uint64, sh uint, c, i int) int {
	if len(x.chunks) == 0 {
		return 0
	}
	ch, lo, hi := x.chunks[c], code>>sh<<sh, code|(1<<sh-1)
	var from int
	if ch[0] < lo { // every code of ch[:i] is below code
		j, _ := slices.BinarySearch(ch[:i], lo)
		from = x.before[c] + j
	} else {
		from = x.rank(lo)
	}
	to := x.len()
	if x.lasts[c] > hi {
		j, _ := slices.BinarySearch(ch[i:], hi+1)
		to = x.before[c] + i + j
	} else if hi != ^uint64(0) {
		to = x.rank(hi + 1)
	}
	return to - from
}

// rank returns how many codes are below v.
func (x *codeIndex) rank(v uint64) int {
	c, i := x.find(v)
	return x.before[c] + i
}

// insert puts code at find's (c, i) for it.
func (x *codeIndex) insert(c, i int, code uint64) {
	if len(x.chunks) == 0 {
		x.chunks, x.before, x.lasts = [][]uint64{{code}}, []int{0, 1}, []uint64{code}
		return
	}
	if ch := x.chunks[c]; len(ch) == codeChunk {
		half := codeChunk / 2
		right := make([]uint64, half, codeChunk)
		copy(right, ch[half:])
		x.chunks[c] = ch[:half]
		x.chunks = slices.Insert(x.chunks, c+1, right)
		x.before = slices.Insert(x.before, c+1, x.before[c]+half)
		x.lasts = slices.Insert(x.lasts, c, ch[half-1])
		if i > half {
			c, i = c+1, i-half
		}
	}
	x.chunks[c] = slices.Insert(x.chunks[c], i, code)
	x.lasts[c] = last(x.chunks[c])
	for k := c + 1; k < len(x.before); k++ {
		x.before[k]++
	}
}

// remove deletes the code at (c, i).
func (x *codeIndex) remove(c, i int) {
	x.chunks[c] = slices.Delete(x.chunks[c], i, i+1)
	for k := c + 1; k < len(x.before); k++ {
		x.before[k]--
	}
	if len(x.chunks[c]) == 0 {
		x.chunks = slices.Delete(x.chunks, c, c+1)
		x.before = slices.Delete(x.before, c+1, c+2)
		x.lasts = slices.Delete(x.lasts, c, c+1)
		return
	}
	x.lasts[c] = last(x.chunks[c])
	if c > 0 && len(x.chunks[c-1])+len(x.chunks[c]) <= codeChunk/2 {
		c-- // merge into the chunk before
	}
	if c+1 < len(x.chunks) && len(x.chunks[c])+len(x.chunks[c+1]) <= codeChunk/2 {
		x.chunks[c] = append(x.chunks[c], x.chunks[c+1]...)
		x.chunks = slices.Delete(x.chunks, c+1, c+2)
		x.before = slices.Delete(x.before, c+1, c+2)
		x.lasts = slices.Delete(x.lasts, c, c+1)
	}
}

// scan calls emit with the (cell, occurrence) key of every code at the
// level — each cell's occurrences 0..count−1, cells in code order — with
// the cell's coordinates decoded from the code prefix at each run's
// start. The key buffer is reused between calls.
func (x *codeIndex) scan(level int, emit func(key []byte)) {
	d, sh := x.d, x.cellShift(level)
	key := make([]byte, KeyLen(d))
	var prev uint64
	var o uint32
	for c, ch := range x.chunks {
		for i, code := range ch {
			if cell := code >> sh; (c == 0 && i == 0) || cell != prev {
				prev, o = cell, 0
				x.putCell(key, cell)
			} else {
				o++
			}
			binary.LittleEndian.PutUint32(key[8*d:], o)
			emit(key)
		}
	}
}

func last(s []uint64) uint64 { return s[len(s)-1] }
