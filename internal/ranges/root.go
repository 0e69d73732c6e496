package ranges

import (
	"robustset/internal/hashutil"
	"robustset/internal/points"
)

// FingerprintSeed derives the seed of the key fingerprints — a Tree's
// and a Root's alike — from the reconciliation parameters' shared seed,
// so parties that agree on the parameters agree on the fingerprints. A
// hello root is compared across builds with no version bump, so the label
// must not change, however dated it reads.
func FingerprintSeed(paramsSeed uint64) uint64 {
	return hashutil.DeriveSeed(paramsSeed, "ranged/fp")
}

// Root is the Agg of a whole key multiset kept without the tree: the
// count, and the XOR of the fingerprints of the (point, occurrence) keys,
// updated with one hash per key added or removed. It equals Tree.Root of
// a tree built with the same seed over the same keys, at no tree's cost.
// The caller supplies the occurrence indices and keeps them dense per
// point (the k-th copy of a point has index k−1), as Keys numbers them.
// Not safe for concurrent use.
type Root struct {
	Agg
	hash hashutil.Hasher
	key  []byte // scratch for the encoded key
}

// NewRoot returns the root of the empty multiset, with fingerprints drawn
// from seed (what NewTree takes).
func NewRoot(seed uint64) Root { return Root{hash: hashutil.NewHasher(seed)} }

// Add puts the occ-th occurrence of p in.
func (r *Root) Add(p points.Point, occ uint32) {
	r.Count++
	r.Fp ^= r.fingerprint(p, occ)
}

// Remove takes the occ-th occurrence of p out; it must be in.
func (r *Root) Remove(p points.Point, occ uint32) {
	r.Count--
	r.Fp ^= r.fingerprint(p, occ)
}

func (r *Root) fingerprint(p points.Point, occ uint32) uint64 {
	r.key = EncodeKey(r.key[:0], p, occ)
	return r.hash.Hash(r.key)
}
