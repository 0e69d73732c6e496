package points

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestUniverseValidate(t *testing.T) {
	cases := []struct {
		u  Universe
		ok bool
	}{
		{Universe{Dim: 1, Delta: 2}, true},
		{Universe{Dim: 3, Delta: 1 << 20}, true},
		{Universe{Dim: 16, Delta: 1 << 32}, true},
		{Universe{Dim: 0, Delta: 4}, false},
		{Universe{Dim: -1, Delta: 4}, false},
		{Universe{Dim: 2, Delta: 0}, false},
		{Universe{Dim: 2, Delta: 1}, false},
		{Universe{Dim: 2, Delta: 3}, false},
		{Universe{Dim: 2, Delta: 12}, false},
	}
	for _, c := range cases {
		err := c.u.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.u, err, c.ok)
		}
	}
}

func TestUniverseLevels(t *testing.T) {
	for _, c := range []struct {
		delta int64
		want  int
	}{{2, 1}, {4, 2}, {1024, 10}, {1 << 20, 20}, {1 << 32, 32}} {
		u := Universe{Dim: 1, Delta: c.delta}
		if got := u.Levels(); got != c.want {
			t.Errorf("Levels(delta=%d) = %d, want %d", c.delta, got, c.want)
		}
	}
}

func TestContainsAndClamp(t *testing.T) {
	u := Universe{Dim: 2, Delta: 16}
	if !u.Contains(Point{0, 15}) {
		t.Error("corner point should be contained")
	}
	if u.Contains(Point{0, 16}) || u.Contains(Point{-1, 0}) {
		t.Error("out-of-range point should not be contained")
	}
	if u.Contains(Point{1}) {
		t.Error("wrong-dimension point should not be contained")
	}
	got := u.Clamp(Point{-5, 99})
	if !got.Equal(Point{0, 15}) {
		t.Errorf("Clamp = %v, want (0,15)", got)
	}
	// Clamp must not mutate its input.
	p := Point{-5, 99}
	u.Clamp(p)
	if !p.Equal(Point{-5, 99}) {
		t.Error("Clamp mutated its input")
	}
}

func TestCheckSet(t *testing.T) {
	u := Universe{Dim: 2, Delta: 8}
	if err := u.CheckSet([]Point{{0, 0}, {7, 7}}); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if err := u.CheckSet([]Point{{0, 0}, {8, 0}}); err == nil {
		t.Fatal("out-of-range set accepted")
	}
	bad := Universe{Dim: 2, Delta: 3}
	if err := bad.CheckSet(nil); err == nil {
		t.Fatal("invalid universe accepted")
	}
}

func TestPointOrderingProperties(t *testing.T) {
	f := func(a, b [4]int64) bool {
		p, q := Point(a[:]), Point(b[:])
		// Trichotomy: exactly one of p<q, q<p, p==q.
		n := 0
		if p.Less(q) {
			n++
		}
		if q.Less(p) {
			n++
		}
		if p.Equal(q) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLessPrefix(t *testing.T) {
	if !(Point{1, 2}).Less(Point{1, 2, 3}) {
		t.Error("shorter prefix should be less")
	}
	if (Point{1, 2, 3}).Less(Point{1, 2}) {
		t.Error("longer extension should not be less")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	f := func(a [6]int64) bool {
		p := Point(a[:])
		b := EncodeNew(p)
		if len(b) != EncodedSize(6) {
			return false
		}
		q, err := Decode(b, 6)
		return err == nil && p.Equal(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 15), 2); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := Decode(make([]byte, 24), 2); err == nil {
		t.Error("long buffer accepted")
	}
}

func TestEncodeDecodeSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	set := make([]Point, 57)
	for i := range set {
		set[i] = Point{rng.Int64N(1 << 30), rng.Int64N(1 << 30), rng.Int64N(1 << 30)}
	}
	b := EncodeSet(set, 3)
	got, err := DecodeSet(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(set) {
		t.Fatalf("len=%d want %d", len(got), len(set))
	}
	for i := range set {
		if !set[i].Equal(got[i]) {
			t.Fatalf("point %d: %v != %v", i, got[i], set[i])
		}
	}
	if _, err := DecodeSet(b[:3], 3); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := DecodeSet(b[:len(b)-1], 3); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestEncodeDecodeEmptySet(t *testing.T) {
	b := EncodeSet(nil, 2)
	got, err := DecodeSet(b, 2)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty set roundtrip: got %v err %v", got, err)
	}
}

func TestMultisetDiff(t *testing.T) {
	a := []Point{{1}, {2}, {2}, {3}}
	b := []Point{{2}, {3}, {3}, {4}}
	onlyA, onlyB := MultisetDiff(a, b)
	if len(onlyA) != 2 || !onlyA[0].Equal(Point{1}) || !onlyA[1].Equal(Point{2}) {
		t.Errorf("onlyA = %v", onlyA)
	}
	if len(onlyB) != 2 || !onlyB[0].Equal(Point{3}) || !onlyB[1].Equal(Point{4}) {
		t.Errorf("onlyB = %v", onlyB)
	}
}

func TestMultisetDiffProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 50; trial++ {
		n := rng.IntN(40)
		mk := func() []Point {
			s := make([]Point, n)
			for i := range s {
				s[i] = Point{rng.Int64N(10), rng.Int64N(10)}
			}
			return s
		}
		a, b := mk(), mk()
		onlyA, onlyB := MultisetDiff(a, b)
		// a \ onlyA and b \ onlyB must be the same multiset (the
		// intersection), so a = intersection + onlyA etc.
		if len(a)-len(onlyA) != len(b)-len(onlyB) {
			t.Fatalf("intersection sizes disagree: %d vs %d", len(a)-len(onlyA), len(b)-len(onlyB))
		}
		// Reconstruction: b + onlyA - onlyB == a as multisets.
		recon := append(Clone(b), onlyA...)
		for _, p := range onlyB {
			for i := range recon {
				if recon[i] != nil && recon[i].Equal(p) {
					recon[i] = nil
					break
				}
			}
		}
		var cleaned []Point
		for _, p := range recon {
			if p != nil {
				cleaned = append(cleaned, p)
			}
		}
		if !EqualMultisets(cleaned, a) {
			t.Fatalf("reconstruction failed: %v vs %v", cleaned, a)
		}
	}
}

func TestEqualMultisets(t *testing.T) {
	a := []Point{{1, 1}, {2, 2}, {1, 1}}
	b := []Point{{2, 2}, {1, 1}, {1, 1}}
	c := []Point{{2, 2}, {2, 2}, {1, 1}}
	if !EqualMultisets(a, b) {
		t.Error("permuted multisets should be equal")
	}
	if EqualMultisets(a, c) {
		t.Error("different multiplicities should differ")
	}
	if EqualMultisets(a, a[:2]) {
		t.Error("different lengths should differ")
	}
}

// TestDecodeInto: the caller's point is filled in place — many points can
// share one backing array — and a buffer of the wrong length is refused
// without touching it.
func TestDecodeInto(t *testing.T) {
	src := []Point{{1, -2, 3}, {4, 5, math.MinInt64}, {0, 0, math.MaxInt64}}
	backing := make([]int64, 3*len(src))
	var got []Point
	for i, p := range src {
		q := Point(backing[3*i : 3*i+3 : 3*i+3])
		if err := DecodeInto(q, EncodeNew(p)); err != nil {
			t.Fatal(err)
		}
		got = append(got, q)
	}
	for i, p := range src {
		if !got[i].Equal(p) {
			t.Errorf("point %d decoded as %v, want %v", i, got[i], p)
		}
	}
	keep := Point{7, 8}
	for _, n := range []int{0, 15, 17, 24} {
		if err := DecodeInto(keep, make([]byte, n)); err == nil {
			t.Errorf("%d bytes accepted for dim 2", n)
		}
	}
	if !keep.Equal(Point{7, 8}) {
		t.Errorf("a refused decode wrote %v", keep)
	}
}

// mapOccurrenceKeys is the form OccurrenceKeys replaced, kept as its
// reference: one map lookup, one encoding and one key allocation a point.
func mapOccurrenceKeys(pts []Point) [][]byte {
	occ := make(map[string]uint32, len(pts))
	keys := make([][]byte, len(pts))
	for i, p := range pts {
		enc := EncodeNew(p)
		o := occ[string(enc)]
		occ[string(enc)] = o + 1
		keys[i] = binary.LittleEndian.AppendUint32(enc, o)
	}
	return keys
}

// TestOccurrenceKeysPinned pins the exact family's key encoding —
// enc‖LE32(occ), keys[i] for pts[i], occurrence indices dense per point
// in slice order — against the map-based form, so every rateless cell on
// the wire is what it was.
func TestOccurrenceKeysPinned(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	random := func(n, dim int, delta int64) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = make(Point, dim)
			for k := range pts[i] {
				pts[i][k] = rng.Int64N(delta)
			}
		}
		return pts
	}
	for _, tc := range []struct {
		name string
		pts  []Point
		dim  int
	}{
		{"empty", nil, 2},
		{"one", []Point{{7, 9}}, 2},
		{"all equal", []Point{{1, 2}, {1, 2}, {1, 2}, {1, 2}}, 2},
		{"interleaved duplicates", []Point{{1, 2}, {3, 4}, {1, 2}, {2, 1}, {3, 4}, {1, 2}}, 2},
		{"dense 1-d", random(500, 1, 16), 1},      // ~30 occurrences a point
		{"sparse 3-d", random(1000, 3, 1<<40), 3}, // no duplicates
		{"mixed 2-d", random(3000, 2, 32), 2},
	} {
		got, want := OccurrenceKeys(tc.pts, tc.dim), mapOccurrenceKeys(tc.pts)
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys for %d points", tc.name, len(got), len(tc.pts))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: key %d = %x, want %x", tc.name, i, got[i], want[i])
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("%s: key %d can be appended into its neighbour", tc.name, i)
			}
		}
	}
}
