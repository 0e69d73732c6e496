package iblt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func extKeys(rng *rand.Rand, n, keyLen int) [][]byte {
	keys := make([][]byte, n)
	seen := make(map[string]bool, n)
	for i := range keys {
		for {
			k := make([]byte, keyLen)
			for j := range k {
				k[j] = byte(rng.Uint32())
			}
			if !seen[string(k)] {
				seen[string(k)] = true
				keys[i] = k
				break
			}
		}
	}
	return keys
}

// TestCellStreamChunkingInvariance: the stream's cells are a pure function
// of (config, key set) — the chunk boundaries chosen by Emit must not
// change any cell's content.
func TestCellStreamChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	keys := extKeys(rng, 200, 12)
	cfg := ExtendConfig{KeyLen: 12, Seed: 99}

	one, err := NewCellStream(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	whole := one.Emit(512)

	many, err := NewCellStream(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	var got CellBlock
	got.KeyLen = cfg.KeyLen
	for _, n := range []int{1, 7, 64, 100, 340} {
		b := many.Emit(n)
		got.Counts = append(got.Counts, b.Counts...)
		got.KeySums = append(got.KeySums, b.KeySums...)
		got.Checks = append(got.Checks, b.Checks...)
	}
	if len(got.Counts) != whole.Len() {
		t.Fatalf("chunked emission produced %d cells, want %d", len(got.Counts), whole.Len())
	}
	for i := range whole.Counts {
		if got.Counts[i] != whole.Counts[i] || got.Checks[i] != whole.Checks[i] {
			t.Fatalf("cell %d differs under chunked emission", i)
		}
	}
	if !bytes.Equal(got.KeySums, whole.KeySums) {
		t.Fatal("key sums differ under chunked emission")
	}
	// Every key participates in cell 0.
	if whole.Counts[0] != int64(len(keys)) {
		t.Fatalf("cell 0 holds %d keys, want all %d", whole.Counts[0], len(keys))
	}
}

// TestCellBlockRoundtrip checks the wire encoding.
func TestCellBlockRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	keys := extKeys(rng, 50, 9)
	s, err := NewCellStream(ExtendConfig{KeyLen: 9, Seed: 5}, keys)
	if err != nil {
		t.Fatal(err)
	}
	s.Emit(10) // non-zero start
	b := s.Emit(33)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != b.WireSize() || len(blob) > MaxWireSize(b.Len(), 9) {
		t.Fatalf("wire size %d, declared %d, bound %d", len(blob), b.WireSize(), MaxWireSize(b.Len(), 9))
	}
	var rt CellBlock
	if err := rt.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if rt.Start != 10 || rt.Len() != 33 || rt.KeyLen != 9 {
		t.Fatalf("roundtrip header: %+v", rt)
	}
	for i := range b.Counts {
		if rt.Counts[i] != b.Counts[i] || rt.Checks[i] != b.Checks[i] {
			t.Fatalf("cell %d differs after roundtrip", i)
		}
	}
	if !bytes.Equal(rt.KeySums, b.KeySums) {
		t.Fatal("key sums differ after roundtrip")
	}
}

// TestCellBlockUnmarshalRejects checks the parser's input validation.
func TestCellBlockUnmarshalRejects(t *testing.T) {
	var b CellBlock
	if err := b.UnmarshalBinary(nil); err == nil {
		t.Error("nil input accepted")
	}
	if err := b.UnmarshalBinary([]byte("XXXX\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")); err == nil {
		t.Error("bad magic accepted")
	}
	// The magic of the fixed-width format this one replaced, over an
	// otherwise well-formed empty block of key length 8.
	if err := b.UnmarshalBinary([]byte("IBX1\x00\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00")); err == nil {
		t.Error("previous wire version accepted")
	}
	// Header claiming more cells than the buffer carries.
	hdr := []byte(blockMagic)
	hdr = append(hdr, 0, 0, 0, 0)             // start
	hdr = append(hdr, 0xff, 0xff, 0xff, 0x00) // count ≈ 16M
	hdr = append(hdr, 8, 0)                   // keyLen
	if err := b.UnmarshalBinary(hdr); err == nil {
		t.Error("truncated block accepted")
	}
	// Zero key length.
	zk := []byte(blockMagic)
	zk = append(zk, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if err := b.UnmarshalBinary(zk); err == nil {
		t.Error("zero key length accepted")
	}
}

// streamUntilDecoded drives an encoder/decoder pair in fixed chunks and
// returns (diff, total cells streamed).
func streamUntilDecoded(t *testing.T, cfg ExtendConfig, alice, bob [][]byte, chunk, maxCells int) (*Diff, int) {
	t.Helper()
	enc, err := NewCellStream(cfg, alice)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewCellDecoder(cfg, bob)
	if err != nil {
		t.Fatal(err)
	}
	for dec.Frontier() < maxCells {
		if err := dec.AddBlock(enc.Emit(chunk)); err != nil {
			t.Fatal(err)
		}
		if diff, ok := dec.Decoded(); ok {
			return diff, dec.Frontier()
		}
	}
	t.Fatalf("no decode after %d cells (diff %d+%d keys)", dec.Frontier(), len(alice), len(bob))
	return nil, 0
}

// TestCellDecoderRecoversDiff checks sign attribution and completeness on
// two-sided differences over a shared base.
func TestCellDecoderRecoversDiff(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	const keyLen = 12
	base := extKeys(rng, 500, keyLen)
	onlyA := extKeys(rng, 40, keyLen)
	onlyB := extKeys(rng, 25, keyLen)
	alice := append(append([][]byte{}, base...), onlyA...)
	bob := append(append([][]byte{}, base...), onlyB...)

	cfg := ExtendConfig{KeyLen: keyLen, Seed: 1234}
	diff, cells := streamUntilDecoded(t, cfg, alice, bob, 16, 4096)
	if len(diff.Pos) != len(onlyA) || len(diff.Neg) != len(onlyB) {
		t.Fatalf("recovered %d+%d keys, want %d+%d", len(diff.Pos), len(diff.Neg), len(onlyA), len(onlyB))
	}
	want := make(map[string]int64)
	for _, k := range onlyA {
		want[string(k)] = 1
	}
	for _, k := range onlyB {
		want[string(k)] = -1
	}
	for _, k := range diff.Pos {
		if want[string(k)] != 1 {
			t.Fatal("bogus positive key recovered")
		}
		delete(want, string(k))
	}
	for _, k := range diff.Neg {
		if want[string(k)] != -1 {
			t.Fatal("bogus negative key recovered")
		}
		delete(want, string(k))
	}
	if len(want) != 0 {
		t.Fatalf("%d difference keys never recovered", len(want))
	}
	t.Logf("diff %d decoded after %d cells", len(onlyA)+len(onlyB), cells)
}

// TestCellDecoderIdenticalSets: with no difference the very first block
// drains to zero and certifies completion.
func TestCellDecoderIdenticalSets(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	keys := extKeys(rng, 300, 8)
	cfg := ExtendConfig{KeyLen: 8, Seed: 7}
	diff, cells := streamUntilDecoded(t, cfg, keys, keys, 8, 64)
	if diff.Size() != 0 {
		t.Fatalf("recovered %d keys from identical sets", diff.Size())
	}
	if cells != 8 {
		t.Fatalf("identical sets needed %d cells, want the first block (8)", cells)
	}
}

// TestCellDecoderOverhead calibrates cells-to-decode against the
// difference size: the rateless stream must decode a difference of d with
// O(d) cells at every scale — that constant is the protocol's overhead
// versus an oracle-sized IBLT, and the budget the conformance suite's
// wire ceilings assume.
func TestCellDecoderOverhead(t *testing.T) {
	const keyLen = 12
	for _, d := range []int{1, 4, 16, 64, 256, 1024} {
		worst := 0.0
		total := 0
		const trials = 5
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewPCG(uint64(d), uint64(trial)))
			alice := extKeys(rng, d, keyLen)
			cfg := ExtendConfig{KeyLen: keyLen, Seed: uint64(1000*d + trial)}
			chunk := d / 4
			if chunk < 4 {
				chunk = 4
			}
			_, cells := streamUntilDecoded(t, cfg, alice, nil, chunk, 64*d+512)
			total += cells
			if ratio := float64(cells) / float64(d); ratio > worst {
				worst = ratio
			}
		}
		mean := float64(total) / float64(trials) / float64(d)
		t.Logf("d=%-5d mean cells/diff %.2f, worst %.2f", d, mean, worst)
		// Chunk granularity alone costs up to one extra chunk (~d/4); the
		// coding overhead itself is ~1.4–2.2 at small d, shrinking with d.
		if d >= 16 && worst > 3.0 {
			t.Errorf("d=%d: worst cells-to-decode ratio %.2f exceeds 3.0", d, worst)
		}
	}
}

// TestCellDecoderValidation checks AddBlock's ordering and shape guards.
func TestCellDecoderValidation(t *testing.T) {
	cfg := ExtendConfig{KeyLen: 8, Seed: 1}
	enc, err := NewCellStream(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewCellDecoder(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := enc.Emit(4)
	if err := dec.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	// Replaying the same block must be rejected (start < frontier).
	if err := dec.AddBlock(b); err == nil {
		t.Error("out-of-order block accepted")
	}
	// A block with a different key length must be rejected.
	other, _ := NewCellStream(ExtendConfig{KeyLen: 9, Seed: 1}, nil)
	wrong := other.Emit(4)
	wrong.Start = dec.Frontier()
	if err := dec.AddBlock(wrong); err == nil {
		t.Error("mismatched key length accepted")
	}
	// Config validation.
	if _, err := NewCellStream(ExtendConfig{KeyLen: 0, Seed: 1}, nil); err == nil {
		t.Error("zero key length config accepted")
	}
	if _, err := NewCellStream(cfg, [][]byte{make([]byte, 3)}); err == nil {
		t.Error("short key accepted")
	}
}

// TestCellDecoderCorruptStreamBounded: a corrupted stream must neither
// panic nor loop; it simply never certifies completion.
func TestCellDecoderCorruptStreamBounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	keys := extKeys(rng, 64, 8)
	cfg := ExtendConfig{KeyLen: 8, Seed: 11}
	enc, _ := NewCellStream(cfg, keys)
	dec, _ := NewCellDecoder(cfg, nil)
	b := enc.Emit(256)
	for i := range b.Counts {
		b.Counts[i] ^= int64(i) // garble
		b.Checks[i] ^= uint64(i) * 0x9e3779b9
	}
	if err := dec.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.Decoded(); ok {
		t.Fatal("corrupt stream certified as decoded")
	}
}

func BenchmarkCellStreamEmit(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, uint64(n)))
			keys := extKeys(rng, n, 12)
			cfg := ExtendConfig{KeyLen: 12, Seed: 3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := NewCellStream(cfg, keys)
				if err != nil {
					b.Fatal(err)
				}
				s.Emit(2048)
			}
		})
	}
}

// TestCellPrefixTracksStream: after any interleaving of Add and Remove the
// maintained prefix equals the first cells of a fresh stream over the
// surviving keys, cell for cell — and a stream keeps the caller's keys
// rather than copies.
func TestCellPrefixTracksStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1))
	cfg := ExtendConfig{KeyLen: 12, Seed: 31}
	const n = 300
	keys := extKeys(rng, 400, cfg.KeyLen)
	p, err := NewCellPrefix(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	in := make(map[int]bool)
	check := func(step int) {
		t.Helper()
		var live [][]byte
		for i := range keys {
			if in[i] {
				live = append(live, keys[i])
			}
		}
		s, err := NewCellStream(cfg, live)
		if err != nil {
			t.Fatal(err)
		}
		want, got := s.Emit(n), p.Snapshot()
		for i := 0; i < n; i++ {
			if got.Counts[i] != want.Counts[i] || got.Checks[i] != want.Checks[i] ||
				!bytes.Equal(got.KeySums[i*cfg.KeyLen:(i+1)*cfg.KeyLen], want.KeySums[i*cfg.KeyLen:(i+1)*cfg.KeyLen]) {
				t.Fatalf("step %d: cell %d of the maintained prefix differs from the fresh stream's", step, i)
			}
		}
	}
	check(-1) // the empty set
	for step := 0; step < 600; step++ {
		i := rng.IntN(len(keys))
		if in[i] {
			p.Remove(keys[i])
		} else {
			p.Add(keys[i])
		}
		in[i] = !in[i]
		if step%25 == 0 {
			check(step)
		}
	}
	check(600)
	// A snapshot is a copy: the prefix moves on without it.
	snap := p.Snapshot()
	c0 := snap.Counts[0]
	p.Add(extKeys(rng, 1, cfg.KeyLen)[0])
	if snap.Counts[0] != c0 {
		t.Fatal("a snapshot follows the prefix it was taken from")
	}
	if _, err := NewCellPrefix(ExtendConfig{}, n); err == nil {
		t.Fatal("zero key length config accepted")
	}
}

// TestCellDecoderRestart: a block that starts at cell 0 again and reaches
// past the frontier makes the decoder forget the set it was decoding —
// cells, recovered keys, its own stream position — and decode the new one
// as a fresh decoder would; one that does not reach past it is a replay.
func TestCellDecoderRestart(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 4))
	cfg := ExtendConfig{KeyLen: 10, Seed: 5}
	shared := extKeys(rng, 200, cfg.KeyLen)
	old := append(extKeys(rng, 40, cfg.KeyLen), shared...)
	cur := append(extKeys(rng, 25, cfg.KeyLen), shared[:190]...)
	local := append(extKeys(rng, 10, cfg.KeyLen), shared...)

	dec, err := NewCellDecoder(cfg, local)
	if err != nil {
		t.Fatal(err)
	}
	oldStream, _ := NewCellStream(cfg, old)
	for i := 0; i < 3; i++ { // 30 cells of a 50-key difference: partly peeled, not done
		if err := dec.AddBlock(oldStream.Emit(10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := dec.Decoded(); ok {
		t.Fatal("decoded before the restart; the test wants a decoder mid-stream")
	}
	curStream, _ := NewCellStream(cfg, cur)
	if err := dec.AddBlock(curStream.Emit(30)); err == nil {
		t.Fatal("restart block that stops at the frontier accepted")
	}
	if dec.Frontier() != 30 {
		t.Fatalf("refused restart moved the frontier to %d", dec.Frontier())
	}
	curStream, _ = NewCellStream(cfg, cur)
	if err := dec.AddBlock(curStream.Emit(120)); err != nil {
		t.Fatal(err)
	}
	if dec.Frontier() != 120 {
		t.Fatalf("frontier %d after a 120-cell restart block", dec.Frontier())
	}
	for {
		if diff, ok := dec.Decoded(); ok {
			// 25 + 0 peer-only, 10 + 10 local-only.
			if len(diff.Pos) != 25 || len(diff.Neg) != 20 {
				t.Fatalf("decoded +%d/-%d after the restart, want +25/-20", len(diff.Pos), len(diff.Neg))
			}
			break
		}
		if dec.Frontier() > 4000 {
			t.Fatal("no decode after the restart")
		}
		if err := dec.AddBlock(curStream.Emit(40)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParticipationMatchesSequence: the participation probabilities
// estimateKeys solves with are the frequencies with which keys' index
// sequences hit each cell.
func TestParticipationMatchesSequence(t *testing.T) {
	const n, keys = 256, 200000
	hits := make([]int, n)
	for k := range uint64(keys) {
		for seq := newSeq(k*0x9e3779b97f4a7c15, 1); seq.idx < n; seq.next() {
			hits[seq.idx]++
		}
	}
	for i := range n {
		p, got := participation(i), float64(hits[i])/keys
		if sd := math.Sqrt(p * (1 - p) / keys); math.Abs(got-p) > 5*sd+1e-9 {
			t.Errorf("cell %d: hit by %.5f of keys, participation %.5f", i, got, p)
		}
	}
}

// TestHeadEstimatorBand measures the estimate a cold rateless session
// sizes its requests from, over 1 000 seeded trials per difference d: the
// residual stream of d keys opens with a 32-cell head and, while a block
// has no empty cell (saturated), grows to four times its frontier, as the
// session does. It holds three things per d: the share of heads
// saturated; est/d's 5th–95th percentile band for CellDecoder.Estimate
// over the unsaturated heads; and the same band for the estimate of the
// first unsaturated block, the one the session sizes from. DESIGN.md
// quotes the bands.
func TestHeadEstimatorBand(t *testing.T) {
	if testing.Short() {
		t.Skip("6 000 trials")
	}
	const head, trials = 32, 1000
	type band struct{ p5Min, p95Max float64 }
	for _, tc := range []struct {
		d                    int
		saturatedMin, satMax float64
		head                 band // over unsaturated heads
		sized                band // the first unsaturated block's
	}{
		{1, 0, 0, band{0.25, 2.5}, band{0.25, 2.5}},
		{8, 0, 0, band{0.5, 2}, band{0.5, 2}},
		{32, 0.15, 0.45, band{0.5, 1.5}, band{0.5, 1.5}},
		{128, 0.99, 1, band{}, band{0.6, 1.4}},
		{512, 1, 1, band{}, band{0.7, 1.3}},
		{2048, 1, 1, band{}, band{0.8, 1.2}},
	} {
		rng := rand.New(rand.NewPCG(uint64(tc.d), 34))
		var heads, sized []float64
		saturated := 0
		for trial := range trials {
			cfg := ExtendConfig{KeyLen: 20, Seed: uint64(trial)}
			st, err := NewCellStream(cfg, extKeys(rng, tc.d, cfg.KeyLen))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewCellDecoder(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := dec.AddBlock(st.Emit(head)); err != nil {
				t.Fatal(err)
			}
			est, ok := dec.Estimate()
			if ok {
				heads = append(heads, est/float64(tc.d))
			} else {
				saturated++
			}
			for !ok {
				if err := dec.AddBlock(st.Emit(3 * dec.Frontier())); err != nil {
					t.Fatal(err)
				}
				est, ok = dec.Estimate()
			}
			sized = append(sized, est/float64(tc.d))
		}
		share := float64(saturated) / trials
		t.Logf("d=%4d: %5.1f%% of heads saturated; est/d over unsaturated heads %s, first unsaturated block %s",
			tc.d, 100*share, quantiles(heads), quantiles(sized))
		if share < tc.saturatedMin || share > tc.satMax {
			t.Errorf("d=%d: %.1f%% of heads saturated, want %.0f%%–%.0f%%", tc.d, 100*share, 100*tc.saturatedMin, 100*tc.satMax)
		}
		for _, c := range []struct {
			what   string
			ratios []float64
			want   band
		}{{"unsaturated heads", heads, tc.head}, {"first unsaturated block", sized, tc.sized}} {
			if len(c.ratios) == 0 {
				continue
			}
			if p5, p95 := quantile(c.ratios, 0.05), quantile(c.ratios, 0.95); p5 < c.want.p5Min || p95 > c.want.p95Max {
				t.Errorf("d=%d, %s: est/d band [%.2f, %.2f], want within [%.2f, %.2f]",
					tc.d, c.what, p5, p95, c.want.p5Min, c.want.p95Max)
			}
		}
	}
}

// quantile returns the f-quantile of xs, which it sorts.
func quantile(xs []float64, f float64) float64 {
	slices.Sort(xs)
	return xs[int(f*float64(len(xs)-1))]
}

// quantiles renders the 5th, 50th and 95th percentiles of xs.
func quantiles(xs []float64) string {
	if len(xs) == 0 {
		return "(none)"
	}
	return fmt.Sprintf("p5 %.2f p50 %.2f p95 %.2f (%d)", quantile(xs, 0.05), quantile(xs, 0.5), quantile(xs, 0.95), len(xs))
}
