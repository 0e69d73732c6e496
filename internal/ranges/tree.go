package ranges

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"robustset/internal/hashutil"
)

// Node fill bounds. Leaves hold data keys with their hashes; internal
// nodes hold copied separator keys (left subtree < sep ≤ right subtree)
// plus per-subtree aggregates, B+-tree style, so every data key lives in
// exactly one leaf and aggregates never double-count.
const (
	maxLeaf = 32
	minLeaf = maxLeaf / 2
	maxFan  = 16
	minFan  = maxFan / 2
)

// Agg is the monoid aggregate of a key set: its cardinality and the XOR
// of the keys' 64-bit fingerprint hashes. Two sets holding the same keys
// agree on Agg; a disagreement proves a difference (the converse fails
// with probability 2^-64 per comparison).
type Agg struct {
	Count uint64
	Fp    uint64
}

func (a *Agg) add(b Agg) {
	a.Count += b.Count
	a.Fp ^= b.Fp
}

type node struct {
	leaf     bool
	keys     [][]byte // leaf: data keys; internal: separators (len(children)-1)
	hashes   []uint64 // leaf only, parallel to keys
	children []*node  // internal only
	agg      Agg
}

// Tree is a balanced B-tree over fixed-length byte keys with an
// incrementally maintained fingerprint aggregate per subtree. It is not
// safe for concurrent mutation; concurrent readers are safe once mutation
// stops.
type Tree struct {
	keyLen int
	hash   hashutil.Hasher
	root   *node
}

// ErrKeyExists reports an Insert of a key already present.
var ErrKeyExists = errors.New("ranges: key already in tree")

// ErrKeyMissing reports a Delete of an absent key.
var ErrKeyMissing = errors.New("ranges: key not in tree")

// NewTree returns an empty tree over keys of the given length, with
// fingerprints drawn from the given seed (both parties must share it).
func NewTree(keyLen int, seed uint64) *Tree {
	return &Tree{keyLen: keyLen, hash: hashutil.NewHasher(seed), root: &node{leaf: true}}
}

// NewFromSorted bulk-builds a tree from strictly ascending keys, in
// O(n) after the caller's sort. The tree aliases the key slices.
func NewFromSorted(keyLen int, seed uint64, keys [][]byte) (*Tree, error) {
	t := NewTree(keyLen, seed)
	for i, k := range keys {
		if len(k) != keyLen {
			return nil, fmt.Errorf("ranges: key %d has length %d, want %d", i, len(k), keyLen)
		}
		if i > 0 && bytes.Compare(keys[i-1], k) >= 0 {
			return nil, fmt.Errorf("ranges: keys not strictly ascending at %d", i)
		}
	}
	if len(keys) == 0 {
		return t, nil
	}
	// Leaf level: spread keys across ceil(n/maxLeaf) leaves evenly so no
	// leaf dips below minLeaf (except a lone root).
	nLeaves := (len(keys) + maxLeaf - 1) / maxLeaf
	level := make([]*node, 0, nLeaves)
	mins := make([][]byte, 0, nLeaves)
	for i := 0; i < nLeaves; i++ {
		lo, hi := i*len(keys)/nLeaves, (i+1)*len(keys)/nLeaves
		n := &node{leaf: true, keys: keys[lo:hi:hi]}
		n.hashes = make([]uint64, hi-lo)
		for j, k := range n.keys {
			n.hashes[j] = t.hash.Hash(k)
		}
		t.recompute(n)
		level = append(level, n)
		mins = append(mins, keys[lo])
	}
	for len(level) > 1 {
		nParents := (len(level) + maxFan - 1) / maxFan
		parents := make([]*node, 0, nParents)
		pmins := make([][]byte, 0, nParents)
		for i := 0; i < nParents; i++ {
			lo, hi := i*len(level)/nParents, (i+1)*len(level)/nParents
			n := &node{children: append([]*node(nil), level[lo:hi]...)}
			for j := lo + 1; j < hi; j++ {
				n.keys = append(n.keys, mins[j])
			}
			t.recompute(n)
			parents = append(parents, n)
			pmins = append(pmins, mins[lo])
		}
		level, mins = parents, pmins
	}
	t.root = level[0]
	return t, nil
}

// Root returns the aggregate of the whole tree.
func (t *Tree) Root() Agg { return t.root.agg }

func (t *Tree) recompute(n *node) {
	n.agg = Agg{}
	if n.leaf {
		n.agg.Count = uint64(len(n.keys))
		for _, h := range n.hashes {
			n.agg.Fp ^= h
		}
		return
	}
	for _, c := range n.children {
		n.agg.add(c.agg)
	}
}

// childIndex returns the child that may hold key: the first child whose
// separator upper bound exceeds key.
func childIndex(n *node, key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) > 0 })
}

// Insert adds key to the tree. Keys are unique; inserting a present key
// returns ErrKeyExists. The tree aliases key.
func (t *Tree) Insert(key []byte) error {
	if len(key) != t.keyLen {
		return fmt.Errorf("ranges: insert key length %d, want %d", len(key), t.keyLen)
	}
	right, sep, err := t.insert(t.root, key)
	if err != nil {
		return err
	}
	if right != nil {
		old := t.root
		t.root = &node{keys: [][]byte{sep}, children: []*node{old, right}}
		t.recompute(t.root)
	}
	return nil
}

func (t *Tree) insert(n *node, key []byte) (*node, []byte, error) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			return nil, nil, ErrKeyExists
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.hashes = append(n.hashes, 0)
		copy(n.hashes[i+1:], n.hashes[i:])
		n.hashes[i] = t.hash.Hash(key)
		var right *node
		var sep []byte
		if len(n.keys) > maxLeaf {
			mid := len(n.keys) / 2
			right = &node{
				leaf:   true,
				keys:   append([][]byte(nil), n.keys[mid:]...),
				hashes: append([]uint64(nil), n.hashes[mid:]...),
			}
			n.keys = n.keys[:mid]
			n.hashes = n.hashes[:mid]
			sep = right.keys[0]
			t.recompute(right)
		}
		t.recompute(n)
		return right, sep, nil
	}
	ci := childIndex(n, key)
	r, s, err := t.insert(n.children[ci], key)
	if err != nil {
		return nil, nil, err
	}
	var right *node
	var sep []byte
	if r != nil {
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = s
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = r
		if len(n.children) > maxFan {
			m := len(n.children) / 2
			right = &node{
				keys:     append([][]byte(nil), n.keys[m:]...),
				children: append([]*node(nil), n.children[m:]...),
			}
			sep = n.keys[m-1]
			n.keys = n.keys[:m-1]
			n.children = n.children[:m]
			t.recompute(right)
		}
	}
	t.recompute(n)
	return right, sep, nil
}

// Delete removes key from the tree, or returns ErrKeyMissing.
func (t *Tree) Delete(key []byte) error {
	if err := t.delete(t.root, key); err != nil {
		return err
	}
	if !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return nil
}

func (t *Tree) delete(n *node, key []byte) error {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return bytes.Compare(n.keys[i], key) >= 0 })
		if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
			return ErrKeyMissing
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.hashes = append(n.hashes[:i], n.hashes[i+1:]...)
		t.recompute(n)
		return nil
	}
	ci := childIndex(n, key)
	if err := t.delete(n.children[ci], key); err != nil {
		return err
	}
	if underflow(n.children[ci]) {
		t.fix(n, ci)
	}
	t.recompute(n)
	return nil
}

func underflow(c *node) bool {
	if c.leaf {
		return len(c.keys) < minLeaf
	}
	return len(c.children) < minFan
}

func canLend(c *node) bool {
	if c.leaf {
		return len(c.keys) > minLeaf
	}
	return len(c.children) > minFan
}

// fix restores the fill invariant of n.children[ci] by borrowing from a
// sibling or merging with one. n's own aggregate is recomputed by the
// caller.
func (t *Tree) fix(n *node, ci int) {
	c := n.children[ci]
	if ci > 0 && canLend(n.children[ci-1]) {
		l := n.children[ci-1]
		if c.leaf {
			last := len(l.keys) - 1
			c.keys = append([][]byte{l.keys[last]}, c.keys...)
			c.hashes = append([]uint64{l.hashes[last]}, c.hashes...)
			l.keys = l.keys[:last]
			l.hashes = l.hashes[:last]
			n.keys[ci-1] = c.keys[0]
		} else {
			last := len(l.children) - 1
			c.children = append([]*node{l.children[last]}, c.children...)
			c.keys = append([][]byte{n.keys[ci-1]}, c.keys...)
			n.keys[ci-1] = l.keys[last-1]
			l.children = l.children[:last]
			l.keys = l.keys[:last-1]
		}
		t.recompute(l)
		t.recompute(c)
		return
	}
	if ci < len(n.children)-1 && canLend(n.children[ci+1]) {
		r := n.children[ci+1]
		if c.leaf {
			c.keys = append(c.keys, r.keys[0])
			c.hashes = append(c.hashes, r.hashes[0])
			r.keys = r.keys[1:]
			r.hashes = r.hashes[1:]
			n.keys[ci] = r.keys[0]
		} else {
			c.children = append(c.children, r.children[0])
			c.keys = append(c.keys, n.keys[ci])
			n.keys[ci] = r.keys[0]
			r.children = r.children[1:]
			r.keys = r.keys[1:]
		}
		t.recompute(r)
		t.recompute(c)
		return
	}
	if ci > 0 {
		t.merge(n, ci-1)
	} else {
		t.merge(n, ci)
	}
}

// merge folds n.children[i+1] into n.children[i] and drops the
// separator between them.
func (t *Tree) merge(n *node, i int) {
	l, r := n.children[i], n.children[i+1]
	if l.leaf {
		l.keys = append(l.keys, r.keys...)
		l.hashes = append(l.hashes, r.hashes...)
	} else {
		l.keys = append(l.keys, n.keys[i])
		l.keys = append(l.keys, r.keys...)
		l.children = append(l.children, r.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
	t.recompute(l)
}

// Check verifies every structural invariant — key order and length,
// separator consistency, node fill, uniform depth, aggregate and hash
// correctness — and returns the first violation. It is the oracle for
// the tree fuzzer.
func (t *Tree) Check() error {
	_, err := t.check(t.root, true, nil, nil)
	if err != nil {
		return err
	}
	var prev []byte
	ok := true
	t.walk(t.root, func(k []byte) {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			ok = false
		}
		prev = k
	})
	if !ok {
		return errors.New("ranges: leaf keys not strictly ascending")
	}
	return nil
}

func (t *Tree) walk(n *node, fn func([]byte)) {
	if n.leaf {
		for _, k := range n.keys {
			fn(k)
		}
		return
	}
	for _, c := range n.children {
		t.walk(c, fn)
	}
}

func (t *Tree) check(n *node, root bool, lo, hi []byte) (int, error) {
	if n.leaf {
		if !root && (len(n.keys) < minLeaf || len(n.keys) > maxLeaf) {
			return 0, fmt.Errorf("ranges: leaf fill %d outside [%d,%d]", len(n.keys), minLeaf, maxLeaf)
		}
		if len(n.hashes) != len(n.keys) {
			return 0, errors.New("ranges: leaf hash/key length mismatch")
		}
		var agg Agg
		for i, k := range n.keys {
			if len(k) != t.keyLen {
				return 0, fmt.Errorf("ranges: leaf key length %d", len(k))
			}
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return 0, errors.New("ranges: leaf key below separator bound")
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return 0, errors.New("ranges: leaf key at or above separator bound")
			}
			if n.hashes[i] != t.hash.Hash(k) {
				return 0, errors.New("ranges: stale leaf hash")
			}
			agg.Count++
			agg.Fp ^= n.hashes[i]
		}
		if agg != n.agg {
			return 0, fmt.Errorf("ranges: leaf aggregate %+v, recomputed %+v", n.agg, agg)
		}
		return 1, nil
	}
	fan := len(n.children)
	if root {
		if fan < 2 {
			return 0, fmt.Errorf("ranges: internal root fan %d < 2", fan)
		}
	} else if fan < minFan || fan > maxFan {
		return 0, fmt.Errorf("ranges: internal fan %d outside [%d,%d]", fan, minFan, maxFan)
	}
	if len(n.keys) != fan-1 {
		return 0, fmt.Errorf("ranges: internal node with %d keys, %d children", len(n.keys), fan)
	}
	for i := 1; i < len(n.keys); i++ {
		if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
			return 0, errors.New("ranges: separators not strictly ascending")
		}
	}
	var agg Agg
	depth := -1
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = n.keys[i]
		}
		d, err := t.check(c, false, clo, chi)
		if err != nil {
			return 0, err
		}
		if depth == -1 {
			depth = d
		} else if d != depth {
			return 0, errors.New("ranges: uneven subtree depth")
		}
		agg.add(c.agg)
	}
	if agg != n.agg {
		return 0, fmt.Errorf("ranges: internal aggregate %+v, recomputed %+v", n.agg, agg)
	}
	return depth + 1, nil
}
