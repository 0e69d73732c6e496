package points

import (
	"math/rand/v2"
	"testing"
)

// TestPrintMultiset: a Print sees every copy of a point and no order;
// HashEncoded agrees with Hash; Add and Remove are each other's inverse
// and agree with Of; the Print of a disjoint union is the sum of its
// parts'; and two keys fingerprint one point unrelatedly.
func TestPrintMultiset(t *testing.T) {
	k := PrintKey(0x5eed)
	p, q := Point{3, 4}, Point{5, 6}
	if a, b := k.Of([]Point{p}), k.Of([]Point{p, p}); a.Sum == b.Sum || a == b {
		t.Fatalf("{p} and {p,p}: %+v, %+v", a, b)
	}
	if a, b := k.Of([]Point{p, p, q}), k.Of([]Point{p, q, q}); a.Sum == b.Sum {
		t.Fatalf("{p,p,q} and {p,q,q} share a sum: %+v, %+v", a, b)
	}
	if a, b := k.Of([]Point{p, q, p}), k.Of([]Point{q, p, p}); a != b {
		t.Fatalf("{p,q,p} and {q,p,p} differ: %+v, %+v", a, b)
	}
	if (k.Of(nil) != Print{}) {
		t.Fatalf("empty multiset: %+v", k.Of(nil))
	}

	rng := rand.New(rand.NewPCG(4, 2))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{rng.Int64N(1 << 40), rng.Int64N(1 << 40), -rng.Int64N(9)}
		if i%5 == 0 {
			pts[i] = pts[i/2].Clone()
		}
	}
	var run Print
	for _, pt := range pts {
		if h := k.HashEncoded(EncodeNew(pt)); h != k.Hash(pt) {
			t.Fatalf("%v: HashEncoded %x, Hash %x", pt, h, k.Hash(pt))
		}
		run.Add(k.Hash(pt))
	}
	whole := k.Of(pts)
	if run != whole {
		t.Fatalf("running Print %+v, Of %+v", run, whole)
	}
	head, tail := k.Of(pts[:200]), k.Of(pts[200:])
	if sum := (Print{Count: head.Count + tail.Count, Sum: head.Sum + tail.Sum}); sum != whole {
		t.Fatalf("parts sum to %+v, the whole is %+v", sum, whole)
	}
	for _, pt := range pts[200:] {
		run.Remove(k.Hash(pt))
	}
	if run != head {
		t.Fatalf("after removing the tail %+v, want the head's %+v", run, head)
	}
	if PrintKey(1).Hash(p) == PrintKey(2).Hash(p) {
		t.Fatal("two keys hash a point alike")
	}
}
