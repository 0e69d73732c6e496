package iblt

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzUnmarshalDecode feeds arbitrary bytes through the wire parsers and,
// when parsing succeeds, through the peeling decoder. Nothing may panic
// or loop. UnmarshalTable, which every parser of a peer's bytes calls
// with the shape it expects, allocates no more than a table of that
// shape takes (decodeSlack covers the seeds') whatever the input declares
// or however long it is; UnmarshalBinary, told nothing, at most
// maxExpansion(declared key length) times the input on top of that. A
// remarshal must give the input back.
func FuzzUnmarshalDecode(f *testing.F) {
	// Seed corpus: a valid small table, an empty one, and header variants.
	tbl, _ := New(Config{Cells: 24, HashCount: 3, KeyLen: 8, Seed: 7})
	tbl.Insert([]byte("deadbeef"))
	tbl.Insert([]byte("cafef00d"))
	blob, _ := tbl.MarshalBinary()
	f.Add(blob)
	empty, _ := New(Config{Cells: 12, HashCount: 4, KeyLen: 4, Seed: 1})
	eb, _ := empty.MarshalBinary()
	f.Add(eb)
	sub, _ := New(Config{Cells: 24, HashCount: 3, KeyLen: 8, Seed: 7})
	sub.Insert([]byte("0badf00d"))
	_ = sub.Sub(tbl) // counts of both signs
	sb, _ := sub.MarshalBinary()
	f.Add(sb)
	f.Add([]byte(magic))
	f.Add([]byte("IBL2")) // previous wire versions must be rejected cleanly
	f.Add([]byte("IBL1"))
	f.Add(append([]byte(magic), 0xfc, 0xff, 0xff, 0x0f, 4, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0)) // a header that lies about its cells
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got Table
		var err error
		for _, want := range []Config{tbl.Config(), empty.Config()} {
			var as *Table
			if used := allocatedBy(func() { as, err = UnmarshalTable(data, want) }); used > decodeSlack {
				t.Fatalf("parsing %d bytes as %+v allocated %d", len(data), want, used)
			}
			if err == nil && as.Config() != want {
				t.Fatalf("parsed %+v as %+v", as.Config(), want)
			}
		}
		keyLen := 0
		if len(data) >= headerSize {
			keyLen = int(data[9]) | int(data[10])<<8
		}
		if used := allocatedBy(func() { err = got.UnmarshalBinary(data) }); used > maxExpansion(keyLen)*uint64(len(data))+decodeSlack {
			t.Fatalf("parsing %d bytes (key length %d) allocated %d", len(data), keyLen, used)
		}
		if err != nil {
			return
		}
		// Valid parse: decode must terminate without panicking.
		_, _ = got.Decode()
		// Remarshal must be byte-identical (canonical wire form).
		re, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("remarshal of parsed table failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("remarshal not canonical:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzInsertDeleteDecode drives the mutation path of the flat-cell layout
// with fuzzer-chosen keys: arbitrary byte material is chopped into
// fixed-length keys, split between an insert side and a delete side, and
// the resulting table must behave like a sketch of the symmetric
// difference — a successful decode returns exactly the one-sided keys,
// and unwinding the decoded diff must leave every flat array zero.
func FuzzInsertDeleteDecode(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(2))
	f.Add(bytes.Repeat([]byte{7}, 64), uint8(3))
	f.Add([]byte{}, uint8(0))

	const keyLen = 8
	f.Fuzz(func(t *testing.T, material []byte, split uint8) {
		tbl, err := New(Config{Cells: 60, HashCount: 3, KeyLen: keyLen, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		// Dedup keys: the IBLT contract requires distinct keys per side.
		seen := make(map[string]bool)
		var keys [][]byte
		for len(material) >= keyLen {
			k := material[:keyLen]
			material = material[keyLen:]
			if !seen[string(k)] {
				seen[string(k)] = true
				keys = append(keys, k)
			}
		}
		cut := 0
		if len(keys) > 0 {
			cut = int(split) % (len(keys) + 1)
		}
		for _, k := range keys[:cut] {
			tbl.Insert(k)
		}
		for _, k := range keys[cut:] {
			tbl.Delete(k)
		}
		diff, err := tbl.Decode()
		if err != nil {
			return // a stall is legal; only correctness of successes is checked
		}
		if len(diff.Pos) != cut || len(diff.Neg) != len(keys)-cut {
			t.Fatalf("decoded %d/%d keys, inserted %d, deleted %d",
				len(diff.Pos), len(diff.Neg), cut, len(keys)-cut)
		}
		got := make(map[string]int)
		for _, k := range diff.Pos {
			got[string(k)]++
		}
		for _, k := range diff.Neg {
			got[string(k)]--
		}
		for i, k := range keys {
			want := -1
			if i < cut {
				want = 1
			}
			if got[string(k)] != want {
				t.Fatalf("key %x decoded with sign %d, want %d", k, got[string(k)], want)
			}
		}
		// Unwinding the decoded difference must zero the flat arrays.
		for _, k := range diff.Pos {
			tbl.Delete(k)
		}
		for _, k := range diff.Neg {
			tbl.Insert(k)
		}
		if !tbl.IsEmpty() {
			t.Fatal("table not empty after unwinding the decoded diff")
		}
	})
}

// FuzzCellDecoderBlocks drives a CellDecoder with fuzzer-scripted block
// sequences: honest increments of a peer's stream, honest restart blocks
// after the peer's set changed, restart blocks too short to be one, and
// garbage at any start. Nothing may panic; a refused block leaves the
// decoder as it was; the cell arrays stay in step and never hold more
// than was accepted; and whenever every cell the decoder holds is an
// honest cell of one peer set, a decode that certifies returns the diff
// that turns the local keys into exactly that set. Every block reaches
// the decoder the way a peer's does, through AppendBinary and
// UnmarshalWithin into one reused block, which must allocate no more
// than the cells it is told to expect take, plus decodeSlack. Beside it a
// decoder that knows the local set's first cells — as many as the script
// is long, mod 48 — and keys the local set only past them takes the same
// blocks: it must accept and refuse the same ones, reach the same
// frontiers and decode when and to what the keyed one does.
func FuzzCellDecoderBlocks(f *testing.F) {
	f.Add([]byte{0, 8, 0, 8, 0, 40, 0, 60})             // plain stream to a decode
	f.Add([]byte{0, 8, 0, 8, 1, 30, 0, 40})             // restart at a non-zero frontier
	f.Add([]byte{1, 50, 2, 5, 0, 20})                   // start on the other set, short restart
	f.Add([]byte{0, 12, 3, 4, 9, 1, 60})                // garbage appended, then an honest restart
	f.Add([]byte{0, 12, 3, 132, 7, 3, 65, 7, 2, 1, 90}) // garbage restart, wrong key length
	f.Add([]byte{})

	const keyLen = 8
	cfg := ExtendConfig{KeyLen: keyLen, Seed: 5}
	mk := func(lo, hi int) [][]byte {
		var keys [][]byte
		for i := lo; i < hi; i++ {
			keys = append(keys, []byte{byte(i), byte(i * 7), 3, 1, 4, 1, 5, byte(i >> 1)})
		}
		return keys
	}
	local := mk(0, 24)
	peer := [2][][]byte{mk(4, 30), mk(12, 44)} // two versions of the sender's set
	cells := func(set, lo, hi int) *CellBlock {
		s, err := NewCellStream(cfg, peer[set])
		if err != nil {
			f.Fatal(err)
		}
		s.Emit(lo)
		return s.Emit(hi - lo)
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		dec, err := NewCellDecoder(cfg, local)
		if err != nil {
			t.Fatal(err)
		}
		localStream, err := NewCellStream(cfg, local)
		if err != nil {
			t.Fatal(err)
		}
		keyed := false
		kept, err := NewCellDecoderFrom(cfg, localStream.Emit(len(script)%48), func() [][]byte { keyed = true; return local })
		if err != nil {
			t.Fatal(err)
		}
		var wire []byte
		var parsed CellBlock
		// set is the peer set whose honest cells are all the decoder holds;
		// -1 once anything else has been accepted, until an honest restart.
		set, accepted := 0, 0
		for len(script) >= 2 && accepted < 1<<12 {
			op, n := script[0]%4, int(script[1])%64+1
			script = script[2:]
			front := dec.Frontier()
			var b *CellBlock
			mustTake, mustRefuse := false, false
			switch op {
			case 0: // the next n cells of the stream in progress
				if set < 0 {
					b = cells(0, front, front+n)
				} else {
					b, mustTake = cells(set, front, front+n), true
				}
			case 1: // the peer's set moved: cells [0, front+n) of the other one
				set = (set + 1) & 1
				b, mustTake = cells(set, 0, front+n), true
			case 2: // a restart that does not reach past the frontier
				if front == 0 {
					continue
				}
				b, mustRefuse = cells(0, 0, min(n, front)), true
			default: // garbage: any start, any cells, sometimes another key length
				kl := keyLen
				if n%5 == 0 {
					kl++
				}
				b = newCellBlock([]int{front, 0, front + 1}[n%3], n, kl)
				for i := range b.Counts {
					if len(script) == 0 {
						break
					}
					b.Counts[i] = int64(int8(script[0]))
					b.Checks[i] = uint64(script[0]) * 0x9e3779b97f4a7c15
					b.KeySums[i*kl] = script[0]
					script = script[1:]
				}
				mustRefuse = kl != keyLen || b.Start == front+1 || (b.Start == 0 && front > 0 && n <= front)
			}
			if wire, err = b.AppendBinary(wire[:0]); err != nil || len(wire) != b.WireSize() {
				t.Fatalf("encoding block [%d,%d): %d bytes, WireSize %d (%v)", b.Start, b.Start+b.Len(), len(wire), b.WireSize(), err)
			}
			if used := allocatedBy(func() { err = parsed.UnmarshalWithin(wire, b.KeyLen, b.Len()) }); err != nil ||
				used > uint64(b.Len()*(b.KeyLen+16))+decodeSlack {
				t.Fatalf("decoding block [%d,%d) from %d bytes allocated %d (%v)", b.Start, b.Start+b.Len(), len(wire), used, err)
			}
			if parsed.Start != b.Start || parsed.KeyLen != b.KeyLen ||
				!equalCells(parsed.Counts, b.Counts, parsed.KeySums, b.KeySums, parsed.Checks, b.Checks) {
				t.Fatalf("block [%d,%d) differs after the wire", b.Start, b.Start+b.Len())
			}
			err := dec.AddBlock(&parsed)
			if keptErr := kept.AddBlock(&parsed); (keptErr == nil) != (err == nil) || kept.Frontier() != dec.Frontier() {
				t.Fatalf("block [%d,%d): the keyed decoder says %v at frontier %d, the kept-cells one %v at %d",
					b.Start, b.Start+b.Len(), err, dec.Frontier(), keptErr, kept.Frontier())
			}
			if keyed != (kept.Frontier() > kept.known.Len()) {
				t.Fatalf("kept-cells decoder at frontier %d of %d known cells: keyed %v", kept.Frontier(), kept.known.Len(), keyed)
			}
			diff, ok := dec.Decoded()
			if keptDiff, keptOK := kept.Decoded(); keptOK != ok || (ok && !sameDiff(diff, keptDiff)) {
				t.Fatalf("after block [%d,%d): the keyed decoder decoded %v, the kept-cells one %v, or to another diff",
					b.Start, b.Start+b.Len(), ok, keptOK)
			}
			switch {
			case err != nil && mustTake:
				t.Fatalf("honest block [%d,%d) refused at frontier %d: %v", b.Start, b.Start+b.Len(), front, err)
			case err == nil && mustRefuse:
				t.Fatalf("block [%d,%d) key length %d accepted at frontier %d", b.Start, b.Start+b.Len(), b.KeyLen, front)
			case err != nil:
				if dec.Frontier() != front {
					t.Fatalf("refused block moved the frontier %d → %d", front, dec.Frontier())
				}
				continue
			}
			accepted += b.Len()
			if !mustTake {
				set = -1
			}
			if got := dec.Frontier(); got != b.Start+b.Len() || got > accepted || got > MaxStreamCells ||
				len(dec.checks) != got || len(dec.keySums) != got*keyLen {
				t.Fatalf("frontier %d after block [%d,%d): %d cells accepted in all, %d checks, %d key-sum bytes",
					got, b.Start, b.Start+b.Len(), accepted, len(dec.checks), len(dec.keySums))
			}
			if !ok || set < 0 {
				continue
			}
			have := make(map[string]bool, len(local)+len(diff.Pos))
			for _, k := range local {
				have[string(k)] = true
			}
			for _, k := range diff.Neg {
				if !have[string(k)] {
					t.Fatalf("certified diff drops %x, which is not a local key", k)
				}
				delete(have, string(k))
			}
			for _, k := range diff.Pos {
				if have[string(k)] {
					t.Fatalf("certified diff adds %x twice", k)
				}
				have[string(k)] = true
			}
			if len(have) != len(peer[set]) {
				t.Fatalf("certified diff leaves %d keys, the sender holds %d", len(have), len(peer[set]))
			}
			for _, k := range peer[set] {
				if !have[string(k)] {
					t.Fatalf("certified diff misses the sender's key %x", k)
				}
			}
		}
	})
}

// sameDiff reports whether two diffs hold the same keys in the same order.
func sameDiff(a, b *Diff) bool {
	same := func(x, y [][]byte) bool {
		return slices.EqualFunc(x, y, func(p, q []byte) bool { return bytes.Equal(p, q) })
	}
	return same(a.Pos, b.Pos) && same(a.Neg, b.Neg)
}
