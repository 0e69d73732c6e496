package ranges

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"robustset/internal/points"
)

// decodeKey inverts EncodeKey: the point and occurrence index of a key of
// a dim-dimensional universe.
func decodeKey(t *testing.T, key []byte, dim int) (points.Point, uint32) {
	t.Helper()
	if len(key) != KeyLen(dim) {
		t.Fatalf("key length %d, want %d for dim %d", len(key), KeyLen(dim), dim)
	}
	p := make(points.Point, dim)
	for pos := 0; pos < 64*dim; pos++ {
		if key[pos>>3]&(1<<(7-pos&7)) != 0 {
			p[pos%dim] |= 1 << (63 - pos/dim)
		}
	}
	return p, binary.BigEndian.Uint32(key[8*dim:])
}

func TestKeyRoundtrip(t *testing.T) {
	u := points.Universe{Dim: 3, Delta: 1 << 16}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := points.Point{rng.Int63n(u.Delta), rng.Int63n(u.Delta), rng.Int63n(u.Delta)}
		occ := rng.Uint32()
		k := EncodeKey(nil, p, occ)
		if len(k) != KeyLen(u.Dim) {
			t.Fatalf("key length %d, want %d", len(k), KeyLen(u.Dim))
		}
		if q, o := decodeKey(t, k, u.Dim); !q.Equal(p) || o != occ {
			t.Fatalf("roundtrip %v/%d -> %v/%d", p, occ, q, o)
		}
	}
}

// TestKeyOrderIsMorton pins the bit layout: for dim 1 the Morton code is
// the plain big-endian coordinate, so key order equals numeric order.
func TestKeyOrderIsMorton(t *testing.T) {
	for _, c := range []int64{0, 1, 2, 255, 256, 1<<20 - 1} {
		k := EncodeKey(nil, points.Point{c}, 7)
		if got := binary.BigEndian.Uint64(k[:8]); got != uint64(c) {
			t.Fatalf("dim-1 morton of %d = %d", c, got)
		}
		if binary.BigEndian.Uint32(k[8:]) != 7 {
			t.Fatalf("occurrence suffix lost")
		}
	}
	// Dim 2: interleaving x=1,y=0 vs x=0,y=1 — x owns the higher bit of
	// each level pair.
	kx := EncodeKey(nil, points.Point{1, 0}, 0)
	ky := EncodeKey(nil, points.Point{0, 1}, 0)
	if bytes.Compare(ky, kx) >= 0 {
		t.Fatal("dim-0 coordinate must dominate the interleaving")
	}
}

func TestKeysOccurrenceIndexing(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 8}
	pts := []points.Point{{1, 2}, {3, 3}, {1, 2}, {1, 2}}
	keys := Keys(u, pts)
	if len(keys) != 4 {
		t.Fatalf("got %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatal("keys not strictly ascending")
		}
	}
	seen := map[uint32]bool{}
	for _, k := range keys {
		if p, occ := decodeKey(t, k, 2); p.Equal(points.Point{1, 2}) {
			seen[occ] = true
		}
	}
	for occ := uint32(0); occ < 3; occ++ {
		if !seen[occ] {
			t.Fatalf("missing occurrence %d of duplicated point", occ)
		}
	}
}

func randKey(rng *rand.Rand, keyLen int) []byte {
	k := make([]byte, keyLen)
	// Small alphabet forces shared prefixes and duplicate candidates.
	for i := range k {
		k[i] = byte(rng.Intn(4))
	}
	return k
}

func TestTreeInsertDeleteAgainstReference(t *testing.T) {
	const keyLen = 6
	rng := rand.New(rand.NewSource(2))
	tr := NewTree(keyLen, 42)
	ref := map[string]bool{}
	for step := 0; step < 4000; step++ {
		k := randKey(rng, keyLen)
		if ref[string(k)] || rng.Intn(3) == 0 && len(ref) > 0 {
			// Delete an existing key (or exercise the duplicate-insert error).
			if ref[string(k)] && rng.Intn(2) == 0 {
				if err := tr.Insert(k); err != ErrKeyExists {
					t.Fatalf("duplicate insert: %v", err)
				}
				continue
			}
			if !ref[string(k)] {
				for kk := range ref {
					k = []byte(kk)
					break
				}
			}
			if err := tr.Delete(k); err != nil {
				t.Fatalf("delete: %v", err)
			}
			delete(ref, string(k))
		} else {
			if err := tr.Insert(k); err != nil {
				t.Fatalf("insert: %v", err)
			}
			ref[string(k)] = true
		}
		if step%200 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Root(), refRoot(tr, ref); got != want {
		t.Fatalf("root %+v, want %+v", got, want)
	}
	if err := tr.Delete(append(randKey(rng, keyLen-1), 9)); err == nil {
		t.Fatal("wrong-length delete accepted")
	} else if err != ErrKeyMissing {
		// A wrong-length key is simply absent.
		t.Fatalf("unexpected delete error: %v", err)
	}
}

// refRoot is the aggregate of the reference model's keys under tr's hash.
func refRoot(tr *Tree, ref map[string]bool) Agg {
	var a Agg
	for k := range ref {
		a.Count++
		a.Fp ^= tr.hash.Hash([]byte(k))
	}
	return a
}

func TestTreeBulkBuildMatchesIncremental(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 20}
	rng := rand.New(rand.NewSource(3))
	pts := make([]points.Point, 3000)
	for i := range pts {
		pts[i] = points.Point{rng.Int63n(u.Delta), rng.Int63n(u.Delta)}
	}
	pts[100] = pts[99].Clone() // force a duplicate
	keys := Keys(u, pts)
	bulk, err := NewFromSorted(KeyLen(u.Dim), 7, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.Check(); err != nil {
		t.Fatal(err)
	}
	inc := NewTree(KeyLen(u.Dim), 7)
	for _, k := range keys {
		if err := inc.Insert(append([]byte(nil), k...)); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.Root() != inc.Root() {
		t.Fatalf("bulk root %+v != incremental %+v", bulk.Root(), inc.Root())
	}
	if got := bulk.Root().Count; got != uint64(len(keys)) {
		t.Fatalf("bulk count %d, want %d", got, len(keys))
	}
	if _, err := NewFromSorted(4, 1, [][]byte{{1, 2, 3}}); err == nil {
		t.Fatal("wrong-length bulk key accepted")
	}
	if _, err := NewFromSorted(2, 1, [][]byte{{1, 1}, {1, 1}}); err == nil {
		t.Fatal("non-ascending bulk keys accepted")
	}
}

// FuzzTreeOps drives a mutation script against the map-and-sorted-slice
// reference model and checks every structural invariant after each
// mutation batch, plus a final root-aggregate cross-check.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252}, uint8(3))
	f.Add(bytes.Repeat([]byte{7}, 40), uint8(2))
	f.Fuzz(func(t *testing.T, script []byte, keyLenSeed uint8) {
		keyLen := 2 + int(keyLenSeed%4)
		tr := NewTree(keyLen, 99)
		ref := map[string]bool{}
		for len(script) >= 1+keyLen {
			op := script[0]
			k := append([]byte(nil), script[1:1+keyLen]...)
			script = script[1+keyLen:]
			switch {
			case op%2 == 0:
				err := tr.Insert(k)
				if ref[string(k)] {
					if err != ErrKeyExists {
						t.Fatalf("duplicate insert: %v", err)
					}
				} else if err != nil {
					t.Fatalf("insert: %v", err)
				} else {
					ref[string(k)] = true
				}
			default:
				err := tr.Delete(k)
				if ref[string(k)] {
					if err != nil {
						t.Fatalf("delete: %v", err)
					}
					delete(ref, string(k))
				} else if err != ErrKeyMissing {
					t.Fatalf("absent delete: %v", err)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := tr.Root(), refRoot(tr, ref); got != want {
			t.Fatalf("aggregate %+v, want %+v", got, want)
		}
	})
}
