// Package hashutil provides the deterministic, seedable hashing primitives
// that all sketches in this module share. Every reconciliation protocol
// here relies on "public coins": both parties derive identical hash
// functions from a shared 64-bit seed, so the functions in this package are
// fully deterministic given their seed and stable across runs, platforms
// and module versions (they are part of the wire contract).
//
// Two families are provided:
//
//   - SplitMix64: a fast full-avalanche 64-bit mixer, used for sub-seed
//     derivation and integer hashing.
//   - Hasher: a keyed byte-string hash (xxhash-style construction) used
//     for IBLT bucket selection and checksums.
package hashutil

import (
	"encoding/binary"
	"math/bits"
)

// SplitMix64 is Vigna's splitmix64 finalizer: a bijective full-avalanche
// mix of a 64-bit value. It is the root of all seed derivation here.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed deterministically derives an independent sub-seed from a
// parent seed and a domain-separation label. Protocols use distinct labels
// for the grid shift, each IBLT level, checksums, and estimators so that
// reusing one master seed never correlates the sketches.
func DeriveSeed(parent uint64, label string) uint64 {
	h := parent ^ 0x51_7c_c1_b7_27_22_0a_95
	for i := 0; i < len(label); i++ {
		h = SplitMix64(h ^ uint64(label[i]))
	}
	return SplitMix64(h)
}

// DeriveSeedN derives a numbered sub-seed, for families indexed by an
// integer (hash function i of an IBLT, stratum i of an estimator, ...).
func DeriveSeedN(parent uint64, label string, n int) uint64 {
	return SplitMix64(DeriveSeed(parent, label) ^ SplitMix64(uint64(n)*0x9e3779b97f4a7c15+1))
}

// Hasher is a keyed hash of byte strings to 64 bits. The construction is a
// seeded multiply-rotate compression over 8-byte lanes with a splitmix
// finalizer — the same shape as xxhash64, implemented from scratch so the
// module stays dependency-free. It is not cryptographic; it targets the
// uniformity the IBLT/estimator analyses assume for non-adversarial keys.
type Hasher struct {
	seed uint64
}

// NewHasher returns a Hasher keyed by seed.
func NewHasher(seed uint64) Hasher { return Hasher{seed: SplitMix64(seed)} }

const (
	prime1 = 0x9e3779b185ebca87
	prime2 = 0xc2b2ae3d27d4eb4f
	prime3 = 0x165667b19e3779f9
	prime4 = 0x85ebca77c2b2ae63
	prime5 = 0x27d4eb2f165667c5
)

// Hash returns the 64-bit hash of b under the hasher's key.
func (h Hasher) Hash(b []byte) uint64 {
	acc := h.seed + prime5 + uint64(len(b))
	for len(b) >= 8 {
		lane := binary.LittleEndian.Uint64(b)
		acc ^= bits.RotateLeft64(lane*prime2, 31) * prime1
		acc = bits.RotateLeft64(acc, 27)*prime1 + prime4
		b = b[8:]
	}
	if len(b) >= 4 {
		acc ^= uint64(binary.LittleEndian.Uint32(b)) * prime1
		acc = bits.RotateLeft64(acc, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		acc ^= uint64(c) * prime5
		acc = bits.RotateLeft64(acc, 11) * prime1
	}
	acc ^= acc >> 33
	acc *= prime2
	acc ^= acc >> 29
	acc *= prime3
	acc ^= acc >> 32
	return acc
}

// HashUint64 hashes a single 64-bit value under the hasher's key.
func (h Hasher) HashUint64(x uint64) uint64 {
	return SplitMix64(h.seed ^ SplitMix64(x))
}
