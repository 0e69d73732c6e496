package gf

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randElem(rng *rand.Rand) Elem { return New(rng.Uint64()) }

func TestNewCanonicalizes(t *testing.T) {
	if New(P) != 0 {
		t.Errorf("New(P) = %v, want 0", New(P))
	}
	if New(P+5) != 5 {
		t.Errorf("New(P+5) = %v, want 5", New(P+5))
	}
	if New(^uint64(0)) >= Elem(P) {
		t.Error("New(max) not canonical")
	}
	f := func(x uint64) bool { return New(x).IsCanonical() }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdditiveGroup(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 2000; i++ {
		a, b, c := randElem(rng), randElem(rng), randElem(rng)
		if Add(a, b) != Add(b, a) {
			t.Fatal("addition not commutative")
		}
		if Add(Add(a, b), c) != Add(a, Add(b, c)) {
			t.Fatal("addition not associative")
		}
		if Add(a, 0) != a {
			t.Fatal("0 not additive identity")
		}
		if Add(a, Neg(a)) != 0 {
			t.Fatal("a + (-a) != 0")
		}
		if Sub(a, b) != Add(a, Neg(b)) {
			t.Fatal("sub inconsistent with neg")
		}
	}
}

func TestMultiplicativeGroup(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 2000; i++ {
		a, b, c := randElem(rng), randElem(rng), randElem(rng)
		if Mul(a, b) != Mul(b, a) {
			t.Fatal("multiplication not commutative")
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			t.Fatalf("multiplication not associative: a=%v b=%v c=%v", a, b, c)
		}
		if Mul(a, 1) != a {
			t.Fatal("1 not multiplicative identity")
		}
		if Mul(Add(a, b), c) != Add(Mul(a, c), Mul(b, c)) {
			t.Fatal("distributivity fails")
		}
		if a != 0 {
			if Mul(a, Inv(a)) != 1 {
				t.Fatalf("a · a⁻¹ != 1 for a=%v", a)
			}
			if Div(Mul(a, b), a) != b {
				t.Fatal("division inconsistent")
			}
		}
	}
}

func TestMulEdgeValues(t *testing.T) {
	// Extremes of the reduction path.
	big := Elem(P - 1)
	if Mul(big, big) != 1 {
		// (p-1)² = p² - 2p + 1 ≡ 1 (mod p)
		t.Errorf("(p-1)² = %v, want 1", Mul(big, big))
	}
	if Mul(big, 2) != Elem(P-2) {
		t.Errorf("(p-1)·2 = %v, want p-2", Mul(big, 2))
	}
	if Mul(0, big) != 0 {
		t.Error("0·x != 0")
	}
}

func TestPow(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 200; i++ {
		a := randElem(rng)
		if Pow(a, 0) != 1 {
			t.Fatal("a^0 != 1")
		}
		if Pow(a, 1) != a {
			t.Fatal("a^1 != a")
		}
		if Pow(a, 5) != Mul(Mul(Mul(Mul(a, a), a), a), a) {
			t.Fatal("a^5 mismatch")
		}
		if a != 0 && Pow(a, P-1) != 1 {
			t.Fatal("Fermat: a^(p-1) != 1")
		}
	}
}

// mulShiftAdd returns a · b by classic double-and-add over the bits of b:
// the obviously-correct reference multiplier, with no 128-bit arithmetic
// at all, that Mul is pinned against.
func mulShiftAdd(a, b Elem) Elem {
	var acc Elem
	x := a
	e := uint64(b)
	for e != 0 {
		if e&1 == 1 {
			acc = Add(acc, x)
		}
		x = Add(x, x)
		e >>= 1
	}
	return acc
}

// TestMulImplEquivalence pins the wide-multiply Mersenne path (Mul) to
// the shift-and-add reference over random operands and the
// reduction-path extremes.
func TestMulImplEquivalence(t *testing.T) {
	edge := []Elem{0, 1, 2, 15, 16, 17, Elem(P - 1), Elem(P - 2), Elem(P >> 1), Elem(1) << 60, Elem((1 << 60) - 1)}
	check := func(a, b Elem) {
		t.Helper()
		if got, want := mulShiftAdd(a, b), Mul(a, b); got != want {
			t.Fatalf("mulShiftAdd(%v, %v) = %v, Mul gives %v", a, b, got, want)
		}
	}
	for _, a := range edge {
		for _, b := range edge {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewPCG(6, 6))
	for i := 0; i < 2500; i++ {
		check(randElem(rng), randElem(rng))
	}
}

func BenchmarkMulWide(b *testing.B) {
	x, y := New(0x123456789abcdef), New(0xfedcba987654321)
	acc := Elem(1)
	for i := 0; i < b.N; i++ {
		acc = Mul(acc, x)
		acc = Add(acc, y)
	}
	if acc == 0 {
		b.Fatal("degenerate")
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestFrobeniusIdentity(t *testing.T) {
	// x^p = x for all field elements (used by the root finder).
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 100; i++ {
		a := randElem(rng)
		if Pow(a, P) != a {
			t.Fatalf("a^p != a for a=%v", a)
		}
	}
}

func TestQuadraticResidueSplit(t *testing.T) {
	// x^((p-1)/2) must be ±1 for nonzero x, about half each — the fact
	// the equal-degree splitter relies on.
	rng := rand.New(rand.NewPCG(5, 5))
	plus, minus := 0, 0
	for i := 0; i < 2000; i++ {
		a := randElem(rng)
		if a == 0 {
			continue
		}
		switch Pow(a, (P-1)/2) {
		case 1:
			plus++
		case Elem(P - 1):
			minus++
		default:
			t.Fatalf("x^((p-1)/2) not ±1 for x=%v", a)
		}
	}
	if plus < 800 || minus < 800 {
		t.Errorf("QR split unbalanced: %d vs %d", plus, minus)
	}
}
