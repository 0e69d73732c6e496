// Package gf implements arithmetic in the prime field GF(p) with
// p = 2^61 − 1 (a Mersenne prime), the scalar substrate of the
// characteristic-polynomial set reconciliation baseline in internal/cpi.
//
// The Mersenne modulus makes reduction branch-light: 2^61 ≡ 1 (mod p), so
// a 128-bit product reduces with shifts and adds. Elements are canonical
// uint64 values in [0, p).
package gf

import (
	"fmt"
	"math/bits"
)

// P is the field modulus 2^61 − 1.
const P uint64 = 1<<61 - 1

// Elem is a field element in canonical form (0 ≤ e < P).
type Elem uint64

// New reduces an arbitrary uint64 into the field.
func New(x uint64) Elem {
	x = (x & P) + (x >> 61)
	if x >= P {
		x -= P
	}
	return Elem(x)
}

// IsCanonical reports whether e is in [0, P). Wire decoders use it to
// reject non-canonical encodings.
func (e Elem) IsCanonical() bool { return uint64(e) < P }

// Add returns a + b.
func Add(a, b Elem) Elem {
	s := uint64(a) + uint64(b)
	if s >= P {
		s -= P
	}
	return Elem(s)
}

// Sub returns a − b.
func Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return a + Elem(P) - b
}

// Neg returns −a.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(P) - a
}

// Mul returns a · b using 128-bit multiplication and Mersenne reduction:
// with x = hi·2^64 + lo and 2^64 ≡ 8 (mod p),
// x ≡ 8·hi + (lo mod 2^61) + ⌊lo/2^61⌋.
func Mul(a, b Elem) Elem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// a, b < 2^61 ⇒ hi < 2^58 ⇒ 8·hi < 2^61: no overflow below.
	s := (lo & P) + (lo >> 61) + hi<<3
	s = (s & P) + (s >> 61)
	if s >= P {
		s -= P
	}
	return Elem(s)
}

// Pow returns a^e by square-and-multiply.
func Pow(a Elem, e uint64) Elem {
	result := Elem(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse via Fermat's little theorem:
// a^(p−2). It panics on zero — dividing by zero is always a caller bug.
func Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return Pow(a, P-2)
}

// Div returns a / b. It panics if b is zero.
func Div(a, b Elem) Elem { return Mul(a, Inv(b)) }

// String renders the element as a decimal.
func (e Elem) String() string { return fmt.Sprintf("%d", uint64(e)) }
