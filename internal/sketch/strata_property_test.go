package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// TestEstimateStrataDiffPropertyBound is the property test behind the
// "within ~2× whp" contract rateless sync sizes its first cell request
// from: over seeded random set pairs
// with true differences spanning 0..2^16, the estimate must fall within
// the documented factor-of-~2 band with high probability. The observed
// error distribution is recorded in the test log, so a drift in estimator
// quality is visible even while the bound still holds.
func TestEstimateStrataDiffPropertyBound(t *testing.T) {
	const keyLen = 16
	// The whp bound with a hard tolerance needs a hair of slack over the
	// nominal 2× for finite strata tables; violations of the nominal
	// factor are counted and bounded separately.
	const hardFactor = 2.5
	const nominalFactor = 2.0

	diffs := []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
	trialsPer := 3

	newStrata := func(seed uint64) *Strata {
		s, err := NewStrata(StrataConfig{Strata: 24, KeyLen: keyLen, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	randKey := func(rng *rand.Rand) []byte {
		k := make([]byte, keyLen)
		for i := 0; i < keyLen; i += 8 {
			v := rng.Uint64()
			for j := 0; j < 8; j++ {
				k[i+j] = byte(v >> (8 * j))
			}
		}
		return k
	}

	type sample struct {
		d     int
		est   float64
		ratio float64
	}
	var samples []sample
	nominalViolations := 0

	for _, d := range diffs {
		for trial := 0; trial < trialsPer; trial++ {
			rng := rand.New(rand.NewPCG(uint64(d)*1000003, uint64(trial)+7))
			seed := rng.Uint64()
			a, b := newStrata(seed), newStrata(seed)
			// Shared base keys cancel under subtraction; keep the base
			// modest so the suite stays fast without changing the residual.
			base := 512
			for i := 0; i < base; i++ {
				k := randKey(rng)
				a.Add(k)
				b.Add(k)
			}
			// Split the difference across the two sides.
			for i := 0; i < d; i++ {
				if i%2 == 0 {
					a.Add(randKey(rng))
				} else {
					b.Add(randKey(rng))
				}
			}
			est, err := EstimateStrataDiff(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if d == 0 {
				if est != 0 {
					t.Errorf("d=0: estimate %v, want exactly 0", est)
				}
				continue
			}
			ratio := est / float64(d)
			samples = append(samples, sample{d: d, est: est, ratio: ratio})
			// Tiny differences decode exactly from the strata; the
			// multiplicative band is the contract for the scaled regime.
			if d >= 16 {
				if ratio < 1/hardFactor || ratio > hardFactor {
					t.Errorf("d=%d trial=%d: estimate %.0f off by ×%.2f (hard bound ×%.1f)",
						d, trial, est, math.Max(ratio, 1/ratio), hardFactor)
				}
				if ratio < 1/nominalFactor || ratio > nominalFactor {
					nominalViolations++
				}
			}
		}
	}

	// "whp" for the nominal 2×: allow a small minority of trials outside.
	scaled := 0
	for _, s := range samples {
		if s.d >= 16 {
			scaled++
		}
	}
	if max := scaled / 5; nominalViolations > max {
		t.Errorf("%d/%d scaled trials outside the nominal ×%.1f band (max %d)",
			nominalViolations, scaled, nominalFactor, max)
	}

	// Record the observed error distribution: per-d mean ratio plus a
	// coarse histogram of est/d across all scaled trials.
	byD := map[int][]float64{}
	for _, s := range samples {
		byD[s.d] = append(byD[s.d], s.ratio)
	}
	for _, d := range diffs {
		rs := byD[d]
		if len(rs) == 0 {
			continue
		}
		mean, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
		for _, r := range rs {
			mean += r
			lo, hi = math.Min(lo, r), math.Max(hi, r)
		}
		mean /= float64(len(rs))
		t.Logf("d=%-6d est/d mean %.3f, min %.3f, max %.3f (%d trials)", d, mean, lo, hi, len(rs))
	}
	buckets := []struct {
		lo, hi float64
		n      int
	}{
		{0, 0.5, 0}, {0.5, 0.8, 0}, {0.8, 1.25, 0}, {1.25, 2.0, 0}, {2.0, math.Inf(1), 0},
	}
	for _, s := range samples {
		if s.d < 16 {
			continue
		}
		for i := range buckets {
			if s.ratio >= buckets[i].lo && s.ratio < buckets[i].hi {
				buckets[i].n++
				break
			}
		}
	}
	hist := "est/d histogram (d≥16):"
	for _, b := range buckets {
		hist += fmt.Sprintf(" [%.2g,%.2g)=%d", b.lo, b.hi, b.n)
	}
	t.Log(hist)
}

// TestEstimateStrataDiffSkewedUndershoot pins down the adversarial regime
// the rateless protocol exists for: a difference composed entirely of
// stratum-0 keys is invisible to every sampled stratum, so the estimate
// collapses toward zero no matter how large the true difference is.
func TestEstimateStrataDiffSkewedUndershoot(t *testing.T) {
	const keyLen = 16
	s0, err := NewStrata(StrataConfig{KeyLen: keyLen, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	mineStratum0 := func() []byte {
		for {
			k := make([]byte, keyLen)
			for i := 0; i < keyLen; i += 8 {
				v := rng.Uint64()
				for j := 0; j < 8; j++ {
					k[i+j] = byte(v >> (8 * j))
				}
			}
			if s0.StratumOf(k) == 0 {
				return k
			}
		}
	}
	a, err := NewStrata(StrataConfig{KeyLen: keyLen, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStrata(StrataConfig{KeyLen: keyLen, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	const d = 2000
	for i := 0; i < d; i++ {
		a.Add(mineStratum0())
	}
	_ = b
	est, err := EstimateStrataDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("skewed diff %d estimated as %.0f", d, est)
	if est > float64(d)/10 {
		t.Errorf("stratum-0-skewed difference of %d estimated as %.0f; expected a collapse toward 0", d, est)
	}
}

// TestStrataRemoveInvertsAdd: the estimator is linear, so removing what
// was added — in any order, interleaved with keys that stay — leaves the
// bytes a fresh build over the survivors marshals to, and removing
// everything leaves the empty estimator's.
func TestStrataRemoveInvertsAdd(t *testing.T) {
	cfg := StrataConfig{KeyLen: 12, Seed: 77}
	marshal := func(s *Strata) string {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	build := func(keys [][]byte) *Strata {
		s, err := NewStrata(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			s.Add(k)
		}
		return s
	}
	rng := rand.New(rand.NewPCG(3, 9))
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = make([]byte, cfg.KeyLen)
		for j := range keys[i] {
			keys[i][j] = byte(rng.Uint32())
		}
	}
	s := build(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys[:200] {
		s.Remove(k)
	}
	if marshal(s) != marshal(build(keys[200:])) {
		t.Fatal("strata after removals differs from a fresh build over the survivors")
	}
	for _, k := range keys[200:] {
		s.Remove(k)
	}
	if marshal(s) != marshal(build(nil)) {
		t.Fatal("adding then removing every key does not marshal as the empty estimator")
	}
}
