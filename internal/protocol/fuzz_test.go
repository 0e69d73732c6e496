package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"

	"robustset/internal/cluster"
	"robustset/internal/core"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
	"robustset/internal/transport"
	"robustset/internal/workload"
)

// FuzzParseHello feeds arbitrary bytes through the server-session
// handshake parser, and through the client's parser of the accept that
// answers a roots hello. The parsers front every accepted connection and
// every roots exchange, so they must never panic, never over-read, and
// parse⇄encode must be a stable roundtrip for every accepted input.
func FuzzParseHello(f *testing.F) {
	// Seed corpus: valid hellos of each strategy, edge-length names and
	// configs, and truncation shapes.
	for _, h := range []Hello{
		{Strategy: StrategyRobust, Dataset: "d"},
		{Strategy: StrategyAdaptive, Dataset: ""},
		{Strategy: StrategyRateless, Dataset: "sensors/alpha"},
		// Warm rateless hellos: a first request of 97 cells, the largest
		// word, and 512 cells with a root; and the never-valid zero word,
		// the cold config of MuxVersion 7.
		{Strategy: StrategyRateless, Dataset: "churn", Config: []byte{97, 0, 0, 0}},
		{Strategy: StrategyRateless, Dataset: "churn", Config: []byte{0, 0, 0, 0}},
		{Strategy: StrategyRateless, Dataset: "churn", Config: []byte{0xff, 0xff, 0xff, 0xff}},
		{Strategy: StrategyRateless, Dataset: "churn", Config: []byte{0, 2, 0, 0}, Root: &points.Print{Count: 20000, Sum: 1}},
		// Warm robust hellos: the window [9,11], the largest levels a byte
		// holds with a root, one level, and the never-valid windows: the
		// old one-byte form, three bytes, lo > hi and a hi of 0.
		{Strategy: StrategyRobust, Dataset: "noisy/0", Config: []byte{9, 11}},
		{Strategy: StrategyRobust, Dataset: "data~3.16", Config: []byte{0xfe, 0xff}, Root: &points.Print{Count: 2000, Sum: 3}},
		{Strategy: StrategyRobust, Dataset: "d", Config: []byte{4, 4}},
		{Strategy: StrategyRobust, Dataset: "d", Config: []byte{9}},
		{Strategy: StrategyRobust, Dataset: "d", Config: []byte{9, 10, 11}},
		{Strategy: StrategyRobust, Dataset: "d", Config: []byte{11, 9}},
		{Strategy: StrategyRobust, Dataset: "d", Config: []byte{0, 0}},
		{Strategy: StrategyCPI, Dataset: "x", Config: []byte{0xff, 0xff, 0xff, 0xff}},
		{Strategy: StrategyNaive, Dataset: string(bytes.Repeat([]byte{'n'}, MaxDatasetName))},
		// The same shapes with the root tail: an empty set's, a full one's.
		{Strategy: StrategyRobust, Dataset: "d", Root: &points.Print{}},
		{Strategy: StrategyRangeBased, Dataset: "shard~3.16", Config: []byte{8, 16, 0},
			Root: &points.Print{Count: 1 << 40, Sum: 0xfeedfacecafebeef}},
		{Strategy: StrategyCPI, Dataset: "x", Config: []byte{1, 0, 0, 0}, Root: &points.Print{Count: 7, Sum: ^uint64(0)}},
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
	short, _ := Hello{Strategy: StrategyRobust, Dataset: "d", Root: &points.Print{Count: 1, Sum: 2}}.encode()
	f.Add(short[:len(short)-1])
	f.Add(append(short, 0))
	// Roots hellos: 16 shards, the most there may be; then shard counts of
	// 0, one too many and 2³²−1, and tails one byte short and long.
	roots, _ := Hello{Strategy: StrategyRateless, Dataset: "data", Root: &points.Print{Count: 32000, Sum: 5}, Shards: 16}.encode()
	f.Add(roots)
	most, _ := Hello{Strategy: StrategyRateless, Dataset: "data", Root: &points.Print{}, Shards: cluster.MaxShards}.encode()
	f.Add(most)
	for _, k := range []uint32{0, cluster.MaxShards + 1, ^uint32(0)} {
		f.Add(binary.LittleEndian.AppendUint32(bytes.Clone(roots[:len(roots)-4]), k))
	}
	f.Add(roots[:len(roots)-1])
	f.Add(append(bytes.Clone(roots), 0))
	// Accepts of a roots hello: "same", 16 shard roots, a list one root
	// short of its count, a truncated root, a count of 0, one too many and
	// 2³²−1 with no roots, and bare parameters.
	params, err := core.Params{Universe: testU, Seed: 3, DiffBudget: 8}.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(bytes.Clone(params), acceptSame))
	list, _ := Accept{Params: core.Params{Universe: testU, Seed: 3, DiffBudget: 8}, Roots: make([]points.Print, 16)}.encode()
	f.Add(list)
	short16 := bytes.Clone(list[:len(list)-rootLen])
	f.Add(short16)
	f.Add(list[:len(list)-1])
	for _, k := range []uint32{0, cluster.MaxShards + 1, ^uint32(0)} {
		f.Add(binary.LittleEndian.AppendUint32(bytes.Clone(params), k))
	}
	f.Add(params)

	rootsHello := Hello{Strategy: StrategyRateless, Dataset: "data", Root: &points.Print{Count: 1, Sum: 2}, Shards: 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := parseAccept(data, rootsHello); err == nil {
			if len(a.Roots) > cluster.MaxShards || a.Same && a.Roots != nil {
				t.Fatalf("roots accept parsed to same=%v with %d roots", a.Same, len(a.Roots))
			}
			re, err := a.encode()
			if err != nil {
				t.Fatalf("re-encode of a parsed accept failed: %v", err)
			}
			a2, err := parseAccept(re, rootsHello)
			if err != nil || a2.Params != a.Params || a2.Same != a.Same || !slices.Equal(a2.Roots, a.Roots) {
				t.Fatalf("accept roundtrip diverged: %+v vs %+v (%v)", a, a2, err)
			}
		}
		h, err := parseHello(data)
		if err != nil {
			return
		}
		if h.Shards != 0 && (h.Root == nil || h.Shards > cluster.MaxShards) {
			t.Fatalf("roots hello parsed with %d shards and root %v", h.Shards, h.Root)
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
		if (h.Root == nil) != (h2.Root == nil) || (h.Root != nil && *h.Root != *h2.Root) || h.Shards != h2.Shards {
			t.Fatalf("hello root diverged through the roundtrip: %+v vs %+v", h.Root, h2.Root)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted hello is not canonical: %x re-encodes as %x", data, re)
		}
	})
}

// FuzzEstimateRequest feeds two arbitrary estimator request bodies to the
// estimate-first serve loop over transport.Pair, the second after the
// first was answered. It must never panic; a request it answers is 8
// bytes long and gets one estimator of the requested size per level of
// its window, and one it refuses ends the session with the refusal
// relayed.
func FuzzEstimateRequest(f *testing.F) {
	inst, err := workload.Generate(workload.Config{
		N: 40, Universe: testU, Outliers: 2, Noise: workload.NoiseUniform, Scale: 2, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	params := core.Params{Universe: testU, Seed: 5, DiffBudget: 2}.WithLevels(2, 9)
	f.Add(estRequestBody(64, 9, 1), estRequestBody(64, 8, 2))
	f.Add(estRequestBody(8, 9, 8), []byte{8, 0, 0, 0}) // the 4-byte form is refused
	f.Add(estRequestBody(64, 9, 8), estRequestBody(64, 2, 1))
	f.Add(estRequestBody(64, 9, 0), []byte{})
	f.Add(estRequestBody(64, 10, 1), estRequestBody(64, 9, 1))
	f.Add(estRequestBody(64, 9, 1), estRequestBody(32, 8, 2))
	f.Add(estRequestBody(1<<16, 9, 9), estRequestBody(1<<16+1, 8, 1))
	f.Add([]byte{64, 0, 0, 0, 9, 0}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, first, second []byte) {
		at, bt := transport.Pair()
		defer at.Close()
		defer bt.Close()
		done := make(chan error, 1)
		go func() { done <- RunEstimateAlice(bg, at, params, inst.Alice) }()
		var k int
		for i, body := range [][]byte{first, second} {
			if err := send(bg, bt, MsgEstRequest, body); err != nil {
				t.Fatal(err)
			}
			reply, err := recvExpect(bg, bt, MsgEstimators)
			if err != nil {
				var re *RemoteError
				if serveErr := <-done; !errors.As(err, &re) || serveErr == nil || re.Reason != serveErr.Error() {
					t.Fatalf("request %d refused as %v, the serving side returned %v", i, err, serveErr)
				}
				return
			}
			if len(body) != 8 {
				t.Fatalf("request %d of %d bytes answered", i, len(body))
			}
			if i == 0 {
				k = int(binary.LittleEndian.Uint32(body))
			}
			want := int(binary.LittleEndian.Uint16(body[6:]))
			blobs, err := parseBlobList(reply)
			if err != nil || len(blobs) != want {
				t.Fatalf("request %d (%x) answered with %d estimators, %v; want %d", i, body, len(blobs), err, want)
			}
			for _, b := range blobs {
				var e sketch.BottomK
				if err := e.UnmarshalBinary(b); err != nil || e.K() != k {
					t.Fatalf("request %d (%x): an estimator of k %d, %v; want k %d", i, body, e.K(), err, k)
				}
			}
		}
		if err := send(bg, bt, MsgDone, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("serving both requests: %v", err)
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
