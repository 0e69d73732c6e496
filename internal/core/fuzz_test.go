package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"

	"robustset/internal/points"
)

// FuzzSketchUnmarshal feeds arbitrary bytes through the sketch wire
// parser and, on success, through a full reconciliation against a small
// local set. No input may panic, hang, or produce an out-of-universe
// point. A sketch carries its own parameters, so those are what its
// level tables are held to, and their cells to the bytes they came in,
// before anything is allocated: the parse may allocate at most
// (KeyLen(MaxDim) + 16)/9 + 1 times the input plus 64 KiB, the most a
// run of empty cells of the widest key the parameters admit expands to.
func FuzzSketchUnmarshal(f *testing.F) {
	u := points.Universe{Dim: 2, Delta: 1 << 8}
	alice := []points.Point{{1, 2}, {3, 4}, {100, 200}}
	bob := []points.Point{{1, 2}, {3, 5}, {90, 210}}
	sk, err := BuildSketch(testParams(u, 2, 5), alice)
	if err != nil {
		f.Fatal(err)
	}
	blob, _ := sk.MarshalBinary()
	f.Add(blob)
	f.Add([]byte(sketchMagic))
	f.Add([]byte("RSK1")) // the previous wire version must be rejected cleanly
	f.Add(append([]byte("RSK1"), blob[4:]...))
	// A header whose parameters imply 21 tables of 1.5·2^24 cells each.
	huge := append([]byte{}, blob[:sketchHeaderSize]...)
	binary.LittleEndian.PutUint32(huge[4+25:], 1<<24)
	f.Add(append(huge, blob[sketchHeaderSize:]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got Sketch
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = got.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if used := after.TotalAlloc - before.TotalAlloc; used > uint64((KeyLen(MaxDim)+16)/9+1)*uint64(len(data))+64<<10 {
			t.Fatalf("parsing %d bytes allocated %d", len(data), used)
		}
		if err != nil {
			return
		}
		res, err := Reconcile(&got, bob)
		if err != nil {
			return // failing loudly is fine; corrupting silently is not
		}
		for _, p := range res.SPrime {
			if !got.Params.Universe.Contains(p) {
				t.Fatalf("reconcile emitted out-of-universe point %v", p)
			}
		}
	})
}

// FuzzSketchWindow cuts windows out of arbitrary bytes. No input may
// panic, and whenever the bytes unmarshal as a sketch, a window inside its
// levels other than the whole range is cut, and parses under
// UnmarshalAs(WithLevels(lo, hi)) into the sketch's own tables lo through
// hi; any other window is refused.
func FuzzSketchWindow(f *testing.F) {
	u := points.Universe{Dim: 2, Delta: 1 << 8}
	sk, err := BuildSketch(testParams(u, 2, 5), []points.Point{{1, 2}, {3, 4}, {100, 200}})
	if err != nil {
		f.Fatal(err)
	}
	blob, _ := sk.MarshalBinary()
	for _, w := range [][2]uint8{{3, 5}, {0, 7}, {8, 8}, {0, 8}, {5, 3}, {9, 9}, {0, 0}} {
		f.Add(blob, w[0], w[1])
	}
	f.Add(blob[:len(blob)/2], uint8(0), uint8(4))
	f.Add([]byte(sketchMagic), uint8(1), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, lo8, hi8 uint8) {
		lo, hi := int(lo8), int(hi8)
		head, tail, werr := SketchWindow(data, lo, hi)
		var full Sketch
		if full.UnmarshalBinary(data) != nil {
			return
		}
		p := full.Params
		if lo < p.MinLevel || lo > hi || hi > p.MaxLevel || (lo == p.MinLevel && hi == p.MaxLevel) {
			if werr == nil {
				t.Fatalf("window [%d,%d] of levels [%d,%d] was cut", lo, hi, p.MinLevel, p.MaxLevel)
			}
			return
		}
		if werr != nil {
			t.Fatalf("window [%d,%d] of levels [%d,%d]: %v", lo, hi, p.MinLevel, p.MaxLevel, werr)
		}
		var w Sketch
		if err := w.UnmarshalAs(append(head, tail...), p.WithLevels(lo, hi)); err != nil {
			t.Fatalf("window [%d,%d] of levels [%d,%d]: %v", lo, hi, p.MinLevel, p.MaxLevel, err)
		}
		if w.Count != full.Count || len(w.Tables) != hi-lo+1 {
			t.Fatalf("window [%d,%d]: %d tables of %d points, the sketch %d points", lo, hi, len(w.Tables), w.Count, full.Count)
		}
		for i, tbl := range w.Tables {
			got, _ := tbl.MarshalBinary()
			want, _ := full.Tables[lo-p.MinLevel+i].MarshalBinary()
			if !bytes.Equal(got, want) {
				t.Fatalf("window [%d,%d]: level %d's table differs from the sketch's", lo, hi, lo+i)
			}
		}
	})
}

// FuzzMortonSort holds the radix presort to a comparison sort: codes of
// w words come out in the order of their word tuples, whatever their
// width; the top word holds bits bits, the lower ones 64.
func FuzzMortonSort(f *testing.F) {
	f.Add([]byte{}, uint8(63), uint8(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint8(7), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<41|5), 1<<41|5), uint8(41), uint8(0))
	f.Add(slices.Repeat([]byte{0xff, 0x01, 0x80, 0x7f, 0, 0, 0, 0}, 40), uint8(31), uint8(0))
	f.Add(slices.Repeat([]byte{0xff, 0x01, 0x80, 0x7f, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0x80}, 40), uint8(3), uint8(1))
	f.Add(slices.Repeat([]byte{9, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0}, 50), uint8(15), uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, bits, w8 uint8) {
		w := int(w8%5) + 1
		top := uint64(1)<<(bits%64+1) - 1
		codes := make([]uint64, len(data)/(8*w)*w)
		for i := range codes {
			codes[i] = binary.LittleEndian.Uint64(data[8*i:])
			if i%w == 0 {
				codes[i] &= top
			}
		}
		want := make([][]uint64, len(codes)/w)
		for i := range want {
			want[i] = codes[i*w : (i+1)*w]
		}
		slices.SortFunc(want, slices.Compare)
		sorted := sortCodes(slices.Clone(codes), w, 64*(w-1)+int(bits%64)+1)
		if !slices.Equal(sorted, slices.Concat(want...)) {
			t.Fatalf("radix order differs from a comparison sort on %d codes of %d words", len(want), w)
		}
	})
}

// FuzzCodeIndex holds the Maintainer's chunked code index to a sorted
// slice, for codes of one to five words: after every insert or remove the
// chunks concatenate to the model, each holds 1..codeChunk codes, the
// running counts agree and the dense array of last codes holds each
// chunk's, and every code's cell count at the shifts around each word
// boundary and every fifth between is the model's count of codes that
// agree above it. Ops are three bytes: kind, code,
// count. Codes repeat a lot, a bulk insert lays a run of one code longer
// than a chunk, and a bulk remove empties chunks.
func FuzzCodeIndex(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0}, uint16(0), uint8(0))
	f.Add([]byte{1, 7, 3, 1, 7, 3, 2, 7, 3, 2, 7, 3, 0, 255, 0}, uint16(0), uint8(0))
	f.Add([]byte{5, 9, 1, 6, 9, 3, 1, 9, 2, 4, 3, 0}, uint16(1400), uint8(0))
	f.Add(slices.Repeat([]byte{0, 200, 0, 4, 17, 0, 1, 255, 1, 2, 200, 0}, 30), uint16(700), uint8(0))
	// Two words: 0x80 in the low word's top byte and 1 in the high word's
	// bottom byte are neighbours across the boundary a 64-bit shift cuts.
	f.Add([]byte{28, 128, 1, 32, 1, 1, 28, 128, 0, 2, 128, 0, 32, 1, 0}, uint16(300), uint8(1))
	f.Add(slices.Repeat([]byte{0, 200, 0, 4, 17, 0, 1, 255, 1, 2, 200, 0, 61, 3, 2}, 20), uint16(900), uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, n0 uint16, w8 uint8) {
		w := int(w8%5) + 1
		// code is byte a at byte pos%8 of word pos/8 from the lowest, or
		// every bit set for a = 255.
		code := func(a, pos byte) []uint64 {
			v := make([]uint64, w)
			for k := range v {
				if a == 255 {
					v[k] = ^uint64(0)
				}
			}
			if a != 255 {
				v[w-1-int(pos/8)%w] = uint64(a) << (8 * (pos % 8))
			}
			return v
		}
		rng := rand.New(rand.NewPCG(uint64(n0), 1))
		model := make([][]uint64, n0%1500)
		for i := range model {
			model[i] = make([]uint64, w)
			for k := range model[i] {
				if k == w-1 || rng.IntN(4) == 0 {
					model[i][k] = rng.Uint64N(64) << (rng.Uint64N(8) * 8)
				}
			}
		}
		slices.SortFunc(model, slices.Compare)
		x := newCodeIndex(&morton{w: w}, slices.Concat(model...))
		check := func(op int) {
			n := 0 // codes in the chunks so far, each the model's
			for c, ch := range x.chunks {
				if len(ch) == 0 || len(ch) > codeChunk*w || len(ch)%w != 0 || x.before[c] != n {
					t.Fatalf("op %d: chunk %d holds %d words after %d codes (counted %d)", op, c, len(ch), n, x.before[c])
				}
				if got := x.lasts[c*w : (c+1)*w]; !slices.Equal(got, ch[len(ch)-w:]) {
					t.Fatalf("op %d: chunk %d ends in %#x, its last code is held as %#x", op, c, ch[len(ch)-w:], got)
				}
				for at := 0; at < len(ch); at, n = at+w, n+1 {
					if n >= len(model) || !slices.Equal(ch[at:at+w], model[n]) {
						t.Fatalf("op %d: code %d of the index is not the model's (%d codes)", op, n, len(model))
					}
				}
			}
			if len(x.lasts) != len(x.chunks)*w {
				t.Fatalf("op %d: %d words of last codes held for %d chunks", op, len(x.lasts), len(x.chunks))
			}
			if n != len(model) || x.len() != len(model) {
				t.Fatalf("op %d: the index holds %d codes (%d counted), the model %d", op, n, x.len(), len(model))
			}
		}
		check(-1)
		for op := 0; op+3 <= len(data); op += 3 {
			kind, v, n := data[op]%3, code(data[op+1], data[op]>>2), int(data[op+2]%4)
			at, found := slices.BinarySearchFunc(model, v, slices.Compare)
			switch {
			case kind == 0 || kind == 1:
				reps := 1
				if kind == 1 {
					reps = 200 * (n + 1) // up to 800: longer than a chunk
				}
				for range min(reps, 4000-len(model)) {
					c, i := x.find(v)
					x.insert(c, i, v)
					model = slices.Insert(model, at, v)
				}
			default:
				for range 200*n + 1 {
					c, i := x.find(v)
					has := c < len(x.chunks) && i < len(x.chunks[c])/w && slices.Equal(x.chunks[c][i*w:(i+1)*w], v)
					if has != found || (len(x.chunks) > 0 && x.before[c]+i != at) {
						t.Fatalf("op %d: find(%#x) = chunk %d at %d, has %v; the model has it %v at %d", op, v, c, i, has, found, at)
					}
					if !found {
						break
					}
					x.remove(c, i)
					model = slices.Delete(model, at, at+1)
					found = at < len(model) && slices.Equal(model[at], v)
				}
			}
			check(op)
		}
		// above reports whether a's bits at and above bit sh (from the
		// lowest) exceed b's, or, eq, are not below them.
		above := func(a, b []uint64, sh int, eq bool) bool {
			for k := range w {
				m := ^uint64(0)
				if low := 64 * (w - 1 - k); sh >= low+64 {
					m = 0
				} else if sh > low {
					m <<= sh - low
				}
				if a[k]&m != b[k]&m {
					return a[k]&m > b[k]&m
				}
			}
			return eq
		}
		probes := slices.CompactFunc(slices.Clone(model), slices.Equal)
		probes = append(probes, code(0, 0), code(255, 0), code(1, 0), code(128, 63), code(1, 8))
		for p := 0; p < len(probes); p += 1 + len(probes)/128 {
			v := probes[p]
			c, i := x.find(v)
			for sh := 0; sh < 64*w; sh++ {
				if b := sh % 64; b > 3 && b < 61 && b%5 != 0 {
					continue // every shift near a word boundary, a fifth of the rest
				}
				want := sort.Search(len(model), func(k int) bool { return above(model[k], v, sh, false) }) -
					sort.Search(len(model), func(k int) bool { return above(model[k], v, sh, true) })
				if got := x.cellCount(v, sh, c, i); got != want {
					t.Fatalf("cell count of %#x above bit %d: %d, the model %d", v, sh, got, want)
				}
			}
		}
	})
}
