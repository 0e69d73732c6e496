package sketch

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

func randKeys(rng *rand.Rand, n int) [][]byte {
	keys := make([][]byte, n)
	seen := map[string]bool{}
	for i := 0; i < n; {
		k := make([]byte, 16)
		for j := range k {
			k[j] = byte(rng.Uint32())
		}
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		keys[i] = k
		i++
	}
	return keys
}

// buildPair creates two key sets sharing `shared` keys with `diff` keys
// split between the two sides, returning loaded estimators of each kind.
func buildPair(t *testing.T, rng *rand.Rand, shared, diff int, seed uint64) (ba, bb *BottomK, sa, sb *Strata, trueDiff int) {
	t.Helper()
	all := randKeys(rng, shared+diff)
	var err error
	ba, err = NewBottomK(128, seed)
	if err != nil {
		t.Fatal(err)
	}
	bb, _ = NewBottomK(128, seed)
	sa, err = NewStrata(StrataConfig{KeyLen: 16, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sb, _ = NewStrata(StrataConfig{KeyLen: 16, Seed: seed})
	for i, k := range all {
		switch {
		case i < shared:
			ba.Add(k)
			bb.Add(k)
			sa.Add(k)
			sb.Add(k)
		case i%2 == 0:
			ba.Add(k)
			sa.Add(k)
		default:
			bb.Add(k)
			sb.Add(k)
		}
	}
	return ba, bb, sa, sb, diff
}

func TestBottomKValidation(t *testing.T) {
	if _, err := NewBottomK(4, 1); err == nil {
		t.Error("k=4 accepted")
	}
}

func TestBottomKIdenticalSets(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	a, _ := NewBottomK(64, 9)
	b, _ := NewBottomK(64, 9)
	for _, k := range randKeys(rng, 500) {
		a.Add(k)
		b.Add(k)
	}
	est, err := EstimateDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 {
		t.Errorf("identical sets estimated diff %v, want 0", est)
	}
}

func TestBottomKDisjointSets(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	a, _ := NewBottomK(128, 9)
	b, _ := NewBottomK(128, 9)
	for _, k := range randKeys(rng, 300) {
		a.Add(k)
	}
	for _, k := range randKeys(rng, 300) {
		b.Add(k)
	}
	est, err := EstimateDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-600) > 60 {
		t.Errorf("disjoint sets estimated diff %v, want ≈600", est)
	}
}

// meanRelErr averages |estimate − diff| / diff over reps seeded pairs
// sharing `shared` keys, estimating each pair's difference with est.
func meanRelErr(t *testing.T, rng *rand.Rand, shared, diff, reps int, est func(ba, bb *BottomK, sa, sb *Strata) (float64, error)) float64 {
	t.Helper()
	var errSum float64
	for r := 0; r < reps; r++ {
		ba, bb, sa, sb, trueDiff := buildPair(t, rng, shared, diff, rng.Uint64())
		e, err := est(ba, bb, sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		errSum += math.Abs(e-float64(trueDiff)) / float64(trueDiff)
	}
	return errSum / float64(reps)
}

func bottomKEst(ba, bb *BottomK, _, _ *Strata) (float64, error) { return EstimateDiff(ba, bb) }

func strataEst(_, _ *BottomK, sa, sb *Strata) (float64, error) { return EstimateStrataDiff(sa, sb) }

// smallDiffs are differences from a handful of keys up inside a larger
// shared set: the two estimators' accuracy there is logged beside the
// regimes their tests assert on.
var smallDiffs = []int{4, 16, 64, 256, 1024}

func TestBottomKAccuracyAcrossRegimes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, tc := range []struct{ shared, diff int }{
		{2000, 100}, {2000, 400}, {500, 500}, {100, 1000},
	} {
		if mean := meanRelErr(t, rng, tc.shared, tc.diff, 8, bottomKEst); mean > 0.45 {
			t.Errorf("shared=%d diff=%d: mean relative error %.2f too high", tc.shared, tc.diff, mean)
		}
	}
	// E9: the estimator's accuracy on small differences, logged.
	t.Run("E9", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(9, 9))
		for _, diff := range smallDiffs {
			t.Logf("shared=4096 diff=%d: bottom-k (128) mean relative error %.0f%%", diff, 100*meanRelErr(t, rng, 4096, diff, 10, bottomKEst))
		}
	})
}

func TestBottomKEmpty(t *testing.T) {
	a, _ := NewBottomK(32, 5)
	b, _ := NewBottomK(32, 5)
	if est, err := EstimateDiff(a, b); err != nil || est != 0 {
		t.Errorf("empty sketches: est=%v err=%v", est, err)
	}
	// One empty, one loaded: diff ≈ loaded size.
	rng := rand.New(rand.NewPCG(4, 4))
	for _, k := range randKeys(rng, 100) {
		a.Add(k)
	}
	est, err := EstimateDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est != 100 {
		t.Errorf("one-sided diff estimate %v, want 100 exactly (J=0)", est)
	}
}

func TestBottomKIncompatible(t *testing.T) {
	a, _ := NewBottomK(32, 5)
	b, _ := NewBottomK(64, 5)
	c, _ := NewBottomK(32, 6)
	if _, err := EstimateDiff(a, b); !errors.Is(err, ErrIncompatibleSketch) {
		t.Error("k mismatch accepted")
	}
	if _, err := EstimateDiff(a, c); !errors.Is(err, ErrIncompatibleSketch) {
		t.Error("seed mismatch accepted")
	}
}

func TestBottomKDuplicateAdds(t *testing.T) {
	a, _ := NewBottomK(32, 5)
	k := []byte("0123456789abcdef")
	for i := 0; i < 10; i++ {
		a.Add(k)
	}
	if a.Count() != 10 {
		t.Errorf("Count = %d, want 10", a.Count())
	}
	if len(a.mins) != 1 {
		t.Errorf("mins holds %d entries, want 1 (dedup)", len(a.mins))
	}
}

func TestBottomKMarshalRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	a, _ := NewBottomK(64, 77)
	for _, k := range randKeys(rng, 300) {
		a.Add(k)
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != a.WireSize() {
		t.Errorf("wire size %d != declared %d", len(blob), a.WireSize())
	}
	var b BottomK
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if est, err := EstimateDiff(a, &b); err != nil || est != 0 {
		t.Errorf("roundtripped sketch differs from original: est=%v err=%v", est, err)
	}
}

func TestBottomKUnmarshalRejectsCorrupt(t *testing.T) {
	a, _ := NewBottomK(32, 1)
	a.Add([]byte("k"))
	good, _ := a.MarshalBinary()
	var b BottomK
	if err := b.UnmarshalBinary(good[:10]); err == nil {
		t.Error("short buffer accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if err := b.UnmarshalBinary(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if err := b.UnmarshalBinary(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestStrataValidation(t *testing.T) {
	if _, err := NewStrata(StrataConfig{Strata: 1, KeyLen: 8}); err == nil {
		t.Error("1 stratum accepted")
	}
	if _, err := NewStrata(StrataConfig{KeyLen: 0}); err == nil {
		t.Error("zero key length accepted")
	}
}

func TestStrataExactForSmallDiffs(t *testing.T) {
	// Small differences decode every stratum, so the estimate is exact.
	rng := rand.New(rand.NewPCG(6, 6))
	for _, diff := range []int{0, 1, 3, 10} {
		_, _, sa, sb, trueDiff := buildPair(t, rng, 1000, diff, rng.Uint64())
		est, err := EstimateStrataDiff(sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if est != float64(trueDiff) {
			t.Errorf("diff=%d: strata estimate %v, want exact", trueDiff, est)
		}
	}
}

func TestStrataAccuracyLargeDiffs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, diff := range []int{200, 1000, 5000} {
		if mean := meanRelErr(t, rng, 1000, diff, 6, strataEst); mean > 0.6 {
			t.Errorf("diff=%d: mean relative error %.2f too high", diff, mean)
		}
	}
	// E9: the estimator's accuracy on small differences, logged.
	t.Run("E9", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(9, 9))
		for _, diff := range smallDiffs {
			t.Logf("shared=4096 diff=%d: strata mean relative error %.0f%%", diff, 100*meanRelErr(t, rng, 4096, diff, 10, strataEst))
		}
	})
}

func TestStrataIncompatible(t *testing.T) {
	a, _ := NewStrata(StrataConfig{KeyLen: 8, Seed: 1})
	b, _ := NewStrata(StrataConfig{KeyLen: 8, Seed: 2})
	if _, err := EstimateStrataDiff(a, b); !errors.Is(err, ErrIncompatibleSketch) {
		t.Error("seed mismatch accepted")
	}
	c, _ := NewStrata(StrataConfig{KeyLen: 16, Seed: 1})
	if _, err := EstimateStrataDiff(a, c); !errors.Is(err, ErrIncompatibleSketch) {
		t.Error("key length mismatch accepted")
	}
}

func TestStrataMarshalRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	a, _ := NewStrata(StrataConfig{KeyLen: 16, Seed: 3})
	keys := randKeys(rng, 400)
	for _, k := range keys {
		a.Add(k)
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != a.WireSize() {
		t.Errorf("wire size %d != declared %d", len(blob), a.WireSize())
	}
	var b Strata
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	est, err := EstimateStrataDiff(a, &b)
	if err != nil || est != 0 {
		t.Errorf("roundtripped strata differ from original: est=%v err=%v", est, err)
	}
}

func TestStrataUnmarshalRejectsCorrupt(t *testing.T) {
	a, _ := NewStrata(StrataConfig{KeyLen: 8, Seed: 3})
	a.Add(make([]byte, 8))
	good, _ := a.MarshalBinary()
	var b Strata
	for name, blob := range map[string][]byte{
		"short":    good[:5],
		"badmagic": append([]byte("XXXX"), good[4:]...),
		"oldmagic": append([]byte("STR1"), good[4:]...),
		"truncate": good[:len(good)-3],
		"trailing": append(append([]byte{}, good...), 1, 2, 3),
		// The header's cells-per-stratum or key length is no longer that
		// of the tables that follow it.
		"cells":  append(append(append([]byte{}, good[:5]...), 36, 0, 0, 0), good[9:]...),
		"keylen": append(append(append([]byte{}, good[:9]...), 9, 0), good[11:]...),
	} {
		if err := b.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: corrupt strata accepted", name)
		}
	}
	// A header that declares 40 strata of 2^32−1 cells of 65535-byte keys
	// and sends none of them is refused before anything is allocated.
	lie := append([]byte(strataMagic), 40, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := b.UnmarshalBinary(append(lie, make([]byte, 4096)...))
	runtime.ReadMemStats(&after)
	if used := after.TotalAlloc - before.TotalAlloc; err == nil || used > 64<<10 {
		t.Errorf("lying header: err %v after allocating %d bytes", err, used)
	}
	// An honest estimator of another configuration — here 10 MB of empty
	// cells of 20000-byte keys in 45 KB — is nothing a protocol that
	// expects its own configuration allocates for.
	wide, _ := NewStrata(StrataConfig{KeyLen: 20000, Seed: 3})
	wb, _ := wide.MarshalBinary()
	runtime.ReadMemStats(&before)
	err = b.UnmarshalAs(wb, StrataConfig{KeyLen: 8, Seed: 3})
	runtime.ReadMemStats(&after)
	if used := after.TotalAlloc - before.TotalAlloc; !errors.Is(err, ErrIncompatibleSketch) || used > 64<<10 {
		t.Errorf("%d bytes of another configuration: err %v after allocating %d bytes", len(wb), err, used)
	}
	if err := b.UnmarshalAs(good, StrataConfig{KeyLen: 8, Seed: 3}); err != nil {
		t.Errorf("the expected configuration is refused: %v", err)
	}
}

func TestStrataDistribution(t *testing.T) {
	// Stratum i should receive about 2^-(i+1) of the keys.
	rng := rand.New(rand.NewPCG(9, 9))
	s, _ := NewStrata(StrataConfig{KeyLen: 16, Seed: 10})
	const n = 1 << 14
	counts := make([]int, s.strata)
	for _, k := range randKeys(rng, n) {
		counts[s.StratumOf(k)]++
	}
	for i := 0; i < 4; i++ {
		want := float64(n) / float64(uint64(2)<<uint(i))
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("stratum %d: count %d, want ≈%.0f", i, counts[i], want)
		}
	}
}

// TestBottomKBuilderMatchesAdd holds the threshold-first builder to the
// sorted-insert sketch: same bytes for every stream length around the
// compaction points, with repeated keys, and for fewer keys than k.
func TestBottomKBuilderMatchesAdd(t *testing.T) {
	if _, err := NewBottomKBuilder(4, 1, 0); err == nil {
		t.Error("builder accepted k = 4")
	}
	rng := rand.New(rand.NewPCG(5, 6))
	const k = 16
	keys := randKeys(rng, 40*k)
	for _, n := range []int{0, 1, k - 1, k, k + 1, 2*k - 1, 2 * k, 2*k + 1, 3 * k, 7*k + 3, len(keys)} {
		for _, repeat := range []bool{false, true} {
			want, _ := NewBottomK(k, 99)
			hint := n // the size hint is advice: a wrong one changes nothing
			if repeat {
				hint = n / 3
			}
			b, err := NewBottomKBuilder(k, 99, hint)
			if err != nil {
				t.Fatal(err)
			}
			if cap(b.cand) > n {
				t.Errorf("n=%d: candidate buffer of %d entries for %d keys", n, cap(b.cand), n)
			}
			for i := 0; i < n; i++ {
				key := keys[i]
				if repeat {
					key = keys[i/3] // every key three times over
				}
				want.Add(key)
				b.Add(key)
			}
			got := b.Finish()
			wb, _ := want.MarshalBinary()
			gb, _ := got.MarshalBinary()
			if !bytes.Equal(gb, wb) {
				t.Errorf("n=%d repeat=%v: builder sketch differs from Add's (%d vs %d minima)", n, repeat, len(got.mins), len(want.mins))
			}
			// The finished sketch keeps working as an ordinary one.
			want.Add(keys[len(keys)-1])
			got.Add(keys[len(keys)-1])
			wb, _ = want.MarshalBinary()
			gb, _ = got.MarshalBinary()
			if !bytes.Equal(gb, wb) {
				t.Errorf("n=%d repeat=%v: sketches diverge on an Add after Finish", n, repeat)
			}
		}
	}
}
