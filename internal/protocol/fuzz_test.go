package protocol

import (
	"bytes"
	"runtime"
	"testing"

	"robustset/internal/iblt"
	"robustset/internal/ranges"
)

// FuzzParseHello feeds arbitrary bytes through the server-session
// handshake parser. The parser fronts every accepted connection, so it
// must never panic, never over-read, and parse⇄encode must be a stable
// roundtrip for every accepted input.
func FuzzParseHello(f *testing.F) {
	// Seed corpus: valid hellos of each strategy, edge-length names and
	// configs, and truncation shapes.
	for _, h := range []Hello{
		{Strategy: StrategyRobust, Dataset: "d"},
		{Strategy: StrategyAdaptive, Dataset: ""},
		{Strategy: StrategyExactIBLT, Dataset: "sensors/alpha", Config: []byte{4}},
		{Strategy: StrategyCPI, Dataset: "x", Config: []byte{0xff, 0xff, 0xff, 0xff}},
		{Strategy: StrategyNaive, Dataset: string(bytes.Repeat([]byte{'n'}, MaxDatasetName))},
		// The same shapes with the root tail: an empty set's, a full one's.
		{Strategy: StrategyRobust, Dataset: "d", Root: &ranges.Agg{}},
		{Strategy: StrategyRanged, Dataset: "shard~3.16", Config: []byte{8, 16, 0},
			Root: &ranges.Agg{Count: 1 << 40, Fp: 0xfeedfacecafebeef}},
		{Strategy: StrategyCPI, Dataset: "x", Config: []byte{1, 0, 0, 0}, Root: &ranges.Agg{Count: 7, Fp: ^uint64(0)}},
	} {
		body, err := h.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff})
	// A tail one byte short of a root, and one byte past it.
	short, _ := Hello{Strategy: StrategyRobust, Dataset: "d", Root: &ranges.Agg{Count: 1, Fp: 2}}.encode()
	f.Add(short[:len(short)-1])
	f.Add(append(short, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := parseHello(data)
		if err != nil {
			return
		}
		if len(h.Dataset) > MaxDatasetName {
			t.Fatalf("parser accepted a %d-byte dataset name", len(h.Dataset))
		}
		// Accepted input must re-encode and re-parse to the same hello:
		// the parse is canonical, so a server and a re-serializing proxy
		// can never disagree about a session's parameters.
		re, err := h.encode()
		if err != nil {
			t.Fatalf("re-encode of parsed hello failed: %v", err)
		}
		h2, err := parseHello(re)
		if err != nil {
			t.Fatalf("re-parse of re-encoded hello failed: %v", err)
		}
		if h2.Strategy != h.Strategy || h2.Dataset != h.Dataset || !bytes.Equal(h2.Config, h.Config) {
			t.Fatalf("hello roundtrip diverged: %+v vs %+v", h, h2)
		}
		if (h.Root == nil) != (h2.Root == nil) || (h.Root != nil && *h.Root != *h2.Root) {
			t.Fatalf("hello root diverged through the roundtrip: %+v vs %+v", h.Root, h2.Root)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted hello is not canonical: %x re-encodes as %x", data, re)
		}
	})
}

// FuzzParseCells feeds arbitrary bytes through the rateless cell-block
// parser, which fronts every MsgCells frame the fetching side accepts, as
// the answer to each of three requests (key length, frontier, chunk). It
// must never panic; it must never allocate more than the cells it asked
// for take — 64 KiB covers all three — whatever the header declares and
// however long the input; and parse⇄encode must roundtrip bit-for-bit
// for every accepted input.
func FuzzParseCells(f *testing.F) {
	// Seed corpus: the honest answers to the three requests, their restart
	// forms, plus truncations.
	shapes := []struct {
		keys, skip, n int
		keyLen        int
	}{
		{0, 0, 1, 8},
		{5, 0, 16, 12},
		{40, 32, 64, 20},
	}
	for _, shape := range shapes {
		cfg := iblt.ExtendConfig{KeyLen: shape.keyLen, Seed: 9}
		keys := make([][]byte, shape.keys)
		for i := range keys {
			k := make([]byte, shape.keyLen)
			for j := range k {
				k[j] = byte(i*31 + j)
			}
			keys[i] = k
		}
		s, err := iblt.NewCellStream(cfg, keys)
		if err != nil {
			f.Fatal(err)
		}
		s.Emit(shape.skip)
		blob, err := s.Emit(shape.n).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		// The restart block a serving side whose set moved answers the same
		// request with: cells [0, skip+n) of the stream, start 0.
		r, err := iblt.NewCellStream(cfg, keys[:len(keys)/2])
		if err != nil {
			f.Fatal(err)
		}
		restart, err := r.Emit(shape.skip + shape.n).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(restart)
		f.Add(restart[:len(restart)-1])
	}
	f.Add([]byte{})
	f.Add([]byte("IBX2"))
	f.Add([]byte("IBX2\xff\xff\xff\xff\xff\xff\xff\x03\xff\xff")) // 2^26 − 1 cells of key length 65535, none sent
	f.Add([]byte("IBX1"))                                         // the previous wire version
	f.Add([]byte("IBX1\x00\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b *iblt.CellBlock
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, shape := range shapes {
			got := new(iblt.CellBlock)
			if parseCells(got, data, shape.keyLen, shape.skip, shape.n) == nil {
				b = got
			}
		}
		runtime.ReadMemStats(&after)
		if used := after.TotalAlloc - before.TotalAlloc; used > 64<<10 {
			t.Fatalf("parsing %d bytes allocated %d", len(data), used)
		}
		if b == nil {
			return
		}
		if b.Len()*b.KeyLen != len(b.KeySums) {
			t.Fatalf("parser accepted inconsistent block: %d cells × %d keyLen vs %d sum bytes",
				b.Len(), b.KeyLen, len(b.KeySums))
		}
		re, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of parsed block failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("block parse⇄encode not canonical: %d vs %d bytes", len(re), len(data))
		}
	})
}
