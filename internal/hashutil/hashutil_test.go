package hashutil

import (
	"math/rand/v2"
	"testing"
)

func TestSplitMix64KnownVectors(t *testing.T) {
	// Reference values from the canonical splitmix64 (Vigna), seed stepping
	// from 0: the first outputs for inputs 0,1,2 are fixed by the algorithm.
	got0 := SplitMix64(0)
	got1 := SplitMix64(1)
	if got0 == 0 || got1 == 0 || got0 == got1 {
		t.Fatalf("degenerate outputs: %x %x", got0, got1)
	}
	// The canonical first output of splitmix64 with state 0 is
	// 0xE220A8397B1DCDAF.
	if got0 != 0xE220A8397B1DCDAF {
		t.Errorf("SplitMix64(0) = %#x, want 0xE220A8397B1DCDAF", got0)
	}
}

func TestSplitMix64Bijective(t *testing.T) {
	// Injectivity spot check over a window; splitmix64 is a bijection.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := SplitMix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: SplitMix64(%d) == SplitMix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestDeriveSeedDomainSeparation(t *testing.T) {
	a := DeriveSeed(12345, "grid/shift")
	b := DeriveSeed(12345, "iblt/bucket")
	c := DeriveSeed(54321, "grid/shift")
	if a == b || a == c || b == c {
		t.Errorf("derived seeds collide: %x %x %x", a, b, c)
	}
	if a != DeriveSeed(12345, "grid/shift") {
		t.Error("DeriveSeed not deterministic")
	}
}

func TestDeriveSeedN(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeedN(99, "lvl", i)
		if j, ok := seen[s]; ok {
			t.Fatalf("DeriveSeedN collision between %d and %d", i, j)
		}
		seen[s] = i
	}
}

func TestHasherDeterminism(t *testing.T) {
	h1 := NewHasher(7)
	h2 := NewHasher(7)
	h3 := NewHasher(8)
	msg := []byte("the quick brown fox jumps over the lazy dog")
	if h1.Hash(msg) != h2.Hash(msg) {
		t.Error("same seed must give same hash")
	}
	if h1.Hash(msg) == h3.Hash(msg) {
		t.Error("different seeds should give different hashes")
	}
}

func TestHasherLengthSensitivity(t *testing.T) {
	// Prefixes of each other must not collide (length is mixed in).
	h := NewHasher(1)
	buf := make([]byte, 64)
	seen := map[uint64]int{}
	for n := 0; n <= 64; n++ {
		v := h.Hash(buf[:n])
		if m, ok := seen[v]; ok {
			t.Fatalf("zero-prefix collision between lengths %d and %d", n, m)
		}
		seen[v] = n
	}
}

func TestHasherAllLanePaths(t *testing.T) {
	// Exercise the 8-byte, 4-byte, and tail paths for every length 0..33
	// and verify single-bit flips change the hash.
	h := NewHasher(1234)
	rng := rand.New(rand.NewPCG(5, 6))
	for n := 1; n <= 33; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		orig := h.Hash(b)
		for bit := 0; bit < 8*n; bit += 7 {
			b[bit/8] ^= 1 << (bit % 8)
			if h.Hash(b) == orig {
				t.Fatalf("len=%d: flipping bit %d did not change hash", n, bit)
			}
			b[bit/8] ^= 1 << (bit % 8)
		}
	}
}

func TestHasherUniformityChiSquare(t *testing.T) {
	// Bucket 64k sequential keys into 256 buckets; a decent hash keeps the
	// chi-square statistic near its mean of 255.
	h := NewHasher(42)
	const n, buckets = 1 << 16, 256
	counts := make([]int, buckets)
	var key [8]byte
	for i := 0; i < n; i++ {
		key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		counts[h.Hash(key[:])%buckets]++
	}
	expected := float64(n) / buckets
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	// 255 degrees of freedom: mean 255, stddev ≈ 22.6. Allow 6 sigma.
	if chi > 255+6*22.6 {
		t.Errorf("chi-square %.1f too high for uniform hash", chi)
	}
}

func TestHashUint64(t *testing.T) {
	h := NewHasher(11)
	if h.HashUint64(1) == h.HashUint64(2) {
		t.Error("trivial collision")
	}
	if h.HashUint64(1) != h.HashUint64(1) {
		t.Error("not deterministic")
	}
}
