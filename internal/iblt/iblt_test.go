package iblt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func mkKeys(rng *rand.Rand, n, keyLen int) [][]byte {
	seen := map[string]bool{}
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		k := make([]byte, keyLen)
		for i := range k {
			k[i] = byte(rng.Uint32())
		}
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys = append(keys, k)
	}
	return keys
}

func sortedStrings(keys [][]byte) []string {
	s := make([]string, len(keys))
	for i, k := range keys {
		s[i] = string(k)
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

func sameKeySet(t *testing.T, got [][]byte, want [][]byte) {
	t.Helper()
	g, w := sortedStrings(got), sortedStrings(want)
	if len(g) != len(w) {
		t.Fatalf("key count %d != %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("key %d differs: %x vs %x", i, g[i], w[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Cells: 0, HashCount: 3, KeyLen: 8},
		{Cells: 10, HashCount: 1, KeyLen: 8},
		{Cells: 10, HashCount: 17, KeyLen: 8},
		{Cells: 10, HashCount: 3, KeyLen: 0},
	}
	for _, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestCellsRoundedToMultiple(t *testing.T) {
	tbl, err := New(Config{Cells: 10, HashCount: 4, KeyLen: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cells()%4 != 0 || tbl.Cells() < 10 {
		t.Errorf("cells = %d, want multiple of 4 ≥ 10", tbl.Cells())
	}
}

func TestInsertDecodeSmall(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	keys := mkKeys(rng, 10, 12)
	tbl, _ := New(Config{Cells: RecommendedCells(10, 4), HashCount: 4, KeyLen: 12, Seed: 7})
	tbl.InsertAll(keys)
	diff, err := tbl.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Neg) != 0 {
		t.Fatalf("unexpected negative keys: %d", len(diff.Neg))
	}
	sameKeySet(t, diff.Pos, keys)
}

func TestInsertDeleteCancels(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	keys := mkKeys(rng, 50, 8)
	tbl, _ := New(Config{Cells: 64, HashCount: 4, KeyLen: 8, Seed: 9})
	for _, k := range keys {
		tbl.Insert(k)
	}
	for _, k := range keys {
		tbl.Delete(k)
	}
	if !tbl.IsEmpty() {
		t.Fatal("table not empty after symmetric insert/delete")
	}
	diff, err := tbl.Decode()
	if err != nil || diff.Size() != 0 {
		t.Fatalf("decode of empty table: %v, %v", diff, err)
	}
	if tbl.Balance() != 0 {
		t.Errorf("balance = %d, want 0", tbl.Balance())
	}
}

func TestSubtractDecodesSymmetricDifference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	shared := mkKeys(rng, 5000, 16)
	onlyA := mkKeys(rng, 20, 16)
	onlyB := mkKeys(rng, 15, 16)
	cfg := Config{Cells: RecommendedCells(40, 4), HashCount: 4, KeyLen: 16, Seed: 11}
	a, _ := New(cfg)
	b, _ := New(cfg)
	a.InsertAll(shared)
	a.InsertAll(onlyA)
	b.InsertAll(shared)
	b.InsertAll(onlyB)
	if err := a.Sub(b); err != nil {
		t.Fatal(err)
	}
	diff, err := a.Decode()
	if err != nil {
		t.Fatal(err)
	}
	sameKeySet(t, diff.Pos, onlyA)
	sameKeySet(t, diff.Neg, onlyB)
}

func TestSubConfigMismatch(t *testing.T) {
	a, _ := New(Config{Cells: 16, HashCount: 4, KeyLen: 8, Seed: 1})
	b, _ := New(Config{Cells: 16, HashCount: 4, KeyLen: 8, Seed: 2})
	if err := a.Sub(b); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("expected ErrConfigMismatch, got %v", err)
	}
	c, _ := New(Config{Cells: 32, HashCount: 4, KeyLen: 8, Seed: 1})
	if err := a.Sub(c); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("expected ErrConfigMismatch, got %v", err)
	}
}

func TestDecodeDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	keys := mkKeys(rng, 8, 8)
	tbl, _ := New(Config{Cells: 32, HashCount: 4, KeyLen: 8, Seed: 2})
	tbl.InsertAll(keys)
	before, _ := tbl.MarshalBinary()
	if _, err := tbl.Decode(); err != nil {
		t.Fatal(err)
	}
	after, _ := tbl.MarshalBinary()
	if !bytes.Equal(before, after) {
		t.Fatal("Decode mutated the table")
	}
	// A second decode must give the same answer.
	d2, err := tbl.Decode()
	if err != nil || d2.Size() != len(keys) {
		t.Fatalf("second decode: %v %v", d2, err)
	}
}

func TestOverloadedTableFailsLoudly(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	keys := mkKeys(rng, 500, 8)
	tbl, _ := New(Config{Cells: 32, HashCount: 4, KeyLen: 8, Seed: 3})
	tbl.InsertAll(keys)
	_, err := tbl.Decode()
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("expected DecodeError, got %v", err)
	}
	if de.RemainingCells == 0 {
		t.Error("DecodeError should report remaining cells")
	}
	if de.Error() == "" {
		t.Error("empty error message")
	}
}

func TestDecodeSuccessRateAtRecommendedSize(t *testing.T) {
	// RecommendedCells must give a high decode success rate across sizes
	// and hash counts. This validates the sizing table that the protocol
	// layer depends on.
	rng := rand.New(rand.NewPCG(11, 12))
	for _, q := range []int{3, 4, 5} {
		for _, n := range []int{1, 4, 16, 64, 256} {
			fails := 0
			const trials = 60
			for trial := 0; trial < trials; trial++ {
				keys := mkKeys(rng, n, 12)
				tbl, _ := New(Config{Cells: RecommendedCells(n, q), HashCount: q, KeyLen: 12, Seed: rng.Uint64()})
				tbl.InsertAll(keys)
				if _, err := tbl.Decode(); err != nil {
					fails++
				}
			}
			if fails > trials/10 {
				t.Errorf("q=%d n=%d: %d/%d decode failures at recommended size", q, n, fails, trials)
			}
		}
	}

	// E5, the peeling threshold: 64 keys at α cells per key, 200 seeded
	// trials per (α, q). Success rises sharply near the asymptotic
	// thresholds (1.22 for q=3, 1.30 for q=4, 1.43 for q=5); at α = 2
	// every q must peel at least 90 % of the time.
	t.Run("E5", func(t *testing.T) {
		const keys, trials = 64, 200
		rng := rand.New(rand.NewPCG(5, 5))
		for _, alpha := range []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.7, 2.0} {
			row := fmt.Sprintf("α=%.1f", alpha)
			for _, q := range []int{3, 4, 5} {
				ok := 0
				for trial := 0; trial < trials; trial++ {
					tbl, _ := New(Config{Cells: int(math.Ceil(alpha * keys)), HashCount: q, KeyLen: 16, Seed: rng.Uint64()})
					tbl.InsertAll(mkKeys(rng, keys, 16))
					if _, err := tbl.Decode(); err == nil {
						ok++
					}
				}
				row += fmt.Sprintf("  q=%d %3.0f%%", q, 100*float64(ok)/trials)
				if alpha == 2.0 && ok < trials*9/10 {
					t.Errorf("α=2.0 q=%d: %d/%d tables peeled, want ≥ 90 %%", q, ok, trials)
				}
			}
			t.Log(row)
		}
	})
}

func TestMarshalUnmarshalRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	keys := mkKeys(rng, 30, 20)
	cfg := Config{Cells: RecommendedCells(30, 4), HashCount: 4, KeyLen: 20, Seed: 99}
	tbl, _ := New(cfg)
	tbl.InsertAll(keys)
	b, err := tbl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != tbl.WireSize() {
		t.Fatalf("wire size %d != declared %d", len(b), tbl.WireSize())
	}
	var got Table
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	diff, err := got.Decode()
	if err != nil {
		t.Fatal(err)
	}
	sameKeySet(t, diff.Pos, keys)
	// The unmarshalled table must interoperate: subtracting the original
	// leaves it empty.
	if err := got.Sub(tbl); err != nil {
		t.Fatal(err)
	}
	if !got.IsEmpty() {
		t.Fatal("unmarshalled table does not cancel against original")
	}
}

func TestUnmarshalRejectsCorruptHeaders(t *testing.T) {
	tbl, _ := New(Config{Cells: 16, HashCount: 4, KeyLen: 8, Seed: 5})
	good, _ := tbl.MarshalBinary()

	cases := map[string][]byte{
		"empty":        {},
		"short":        good[:8],
		"bad magic":    append([]byte("XXXX"), good[4:]...),
		"truncated":    good[:len(good)-1],
		"extra byte":   append(append([]byte{}, good...), 0),
		"zero cells":   overwriteU32(good, 4, 0),
		"bad q":        overwriteByte(good, 8, 1),
		"cells not ×q": overwriteU32(good, 4, 15),
	}
	for name, b := range cases {
		var got Table
		if err := got.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func overwriteU32(b []byte, off int, v uint32) []byte {
	c := append([]byte{}, b...)
	c[off] = byte(v)
	c[off+1] = byte(v >> 8)
	c[off+2] = byte(v >> 16)
	c[off+3] = byte(v >> 24)
	return c
}

func overwriteByte(b []byte, off int, v byte) []byte {
	c := append([]byte{}, b...)
	c[off] = v
	return c
}

func TestDecodeOnCorruptedCellsDoesNotHang(t *testing.T) {
	// Flip random bytes in a marshalled table, unmarshal, decode: the
	// decode must terminate with either an error or some diff, never hang
	// or panic. (The checksum makes silent garbage astronomically rare;
	// this exercises the peel budget and residue checks.)
	rng := rand.New(rand.NewPCG(15, 16))
	keys := mkKeys(rng, 20, 8)
	tbl, _ := New(Config{Cells: RecommendedCells(20, 3), HashCount: 3, KeyLen: 8, Seed: 21})
	tbl.InsertAll(keys)
	b, _ := tbl.MarshalBinary()
	for trial := 0; trial < 200; trial++ {
		c := append([]byte{}, b...)
		for flips := 0; flips < 1+rng.IntN(8); flips++ {
			c[headerSize+rng.IntN(len(c)-headerSize)] ^= byte(1 + rng.Uint32()%255)
		}
		var got Table
		if err := got.UnmarshalBinary(c); err != nil {
			continue
		}
		_, _ = got.Decode() // must terminate
	}
}

func TestKeyLengthPanics(t *testing.T) {
	tbl, _ := New(Config{Cells: 16, HashCount: 4, KeyLen: 8, Seed: 5})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong key length")
		}
	}()
	tbl.Insert(make([]byte, 7))
}

func TestPropertyInsertDeleteIdentity(t *testing.T) {
	cfg := Config{Cells: 48, HashCount: 4, KeyLen: 8, Seed: 1}
	f := func(keys [][8]byte) bool {
		tbl, _ := New(cfg)
		for _, k := range keys {
			kk := k
			tbl.Insert(kk[:])
		}
		for _, k := range keys {
			kk := k
			tbl.Delete(kk[:])
		}
		return tbl.IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubtractionCancelsSharedKeys(t *testing.T) {
	// Whatever junk both sides share cancels exactly; only the distinct
	// tail survives subtraction.
	cfg := Config{Cells: 60, HashCount: 3, KeyLen: 8, Seed: 77}
	f := func(shared [][8]byte, extra [8]byte) bool {
		a, _ := New(cfg)
		b, _ := New(cfg)
		for _, k := range shared {
			kk := k
			a.Insert(kk[:])
			b.Insert(kk[:])
		}
		a.Insert(extra[:])
		if err := a.Sub(b); err != nil {
			return false
		}
		diff, err := a.Decode()
		if err != nil || len(diff.Neg) != 0 || len(diff.Pos) != 1 {
			return false
		}
		return bytes.Equal(diff.Pos[0], extra[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRecommendedCells(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 8} {
		for _, cap := range []int{0, 1, 10, 1000} {
			m := RecommendedCells(cap, q)
			if m%q != 0 {
				t.Errorf("q=%d cap=%d: cells %d not multiple of q", q, cap, m)
			}
			if cap > 0 && m < cap {
				t.Errorf("q=%d cap=%d: cells %d below capacity", q, cap, m)
			}
		}
	}
}

func TestWireSizeScalesLinearly(t *testing.T) {
	// An empty table has no live column: a cell is its one-byte count and
	// its checksum. With random keys in it every column is live and a
	// cell carries the whole key sum — still under the fixed-width bound.
	rng := rand.New(rand.NewPCG(19, 20))
	keys := mkKeys(rng, 12, 16)
	mk := func(cells int, keys [][]byte) int {
		tbl, _ := New(Config{Cells: cells, HashCount: 4, KeyLen: 16, Seed: 0})
		tbl.InsertAll(keys)
		if tbl.WireSize() > MaxWireSize(cells, 16) {
			t.Errorf("%d cells: wire size %d above the bound %d", cells, tbl.WireSize(), MaxWireSize(cells, 16))
		}
		return tbl.WireSize()
	}
	if small, big := mk(40, nil), mk(80, nil); big-small != 40*minCellBytes {
		t.Errorf("empty table wire growth %d, want %d", big-small, 40*minCellBytes)
	}
	if small, big := mk(40, keys), mk(80, keys); big-small != 40*(minCellBytes+16) {
		t.Errorf("loaded table wire growth %d, want %d", big-small, 40*(minCellBytes+16))
	}
}

func TestLargeDifferenceDecode(t *testing.T) {
	// A realistic protocol-sized table: 2000-key difference.
	rng := rand.New(rand.NewPCG(17, 18))
	keys := mkKeys(rng, 2000, 16)
	tbl, _ := New(Config{Cells: RecommendedCells(2000, 4), HashCount: 4, KeyLen: 16, Seed: 31})
	tbl.InsertAll(keys)
	diff, err := tbl.Decode()
	if err != nil {
		t.Fatal(err)
	}
	sameKeySet(t, diff.Pos, keys)
}

func ExampleTable() {
	cfg := Config{Cells: 24, HashCount: 3, KeyLen: 4, Seed: 42}
	alice, _ := New(cfg)
	bob, _ := New(cfg)
	alice.Insert([]byte("abcd"))
	alice.Insert([]byte("wxyz"))
	bob.Insert([]byte("abcd"))
	alice.Sub(bob)
	diff, _ := alice.Decode()
	fmt.Printf("alice-only=%q bob-only=%d\n", diff.Pos[0], len(diff.Neg))
	// Output: alice-only="wxyz" bob-only=0
}
