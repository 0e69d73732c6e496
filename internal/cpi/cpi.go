// Package cpi implements characteristic-polynomial set reconciliation
// (Minsky, Trachtenberg & Zippel 2003) over GF(2^61−1) — the classic
// near-optimal exact reconciliation scheme (the minisketch family). It is
// one of the baselines the robust protocol is evaluated against: optimal
// for exact differences, but blind to "close" values, so under value noise
// its difference — and therefore its cost — degenerates to Θ(n).
//
// Each party evaluates the characteristic polynomial χ_S(z) = ∏_{s∈S}(z−s)
// of its element set at m = capacity+1+verifyPoints shared sample points.
// The ratio χ_A(z)/χ_B(z) is a rational function whose reduced numerator
// and denominator are the characteristic polynomials of A∖B and B∖A;
// rational interpolation from the samples followed by root finding
// recovers both difference sets exactly whenever |AΔB| ≤ capacity.
package cpi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"robustset/internal/gf"
	"robustset/internal/hashutil"
	"robustset/internal/poly"
)

// verifyPoints is the number of extra sample points reserved to validate
// the interpolated rational function; a capacity overflow that produces a
// consistent-looking but wrong function fails these checks with
// probability ≈ 1 − 2^-61 per point.
const verifyPoints = 2

// ErrCapacityExceeded reports that the true difference exceeds the
// sketch's capacity (detected by size mismatch, inconsistent
// interpolation, failed verification, or non-splitting factors).
var ErrCapacityExceeded = errors.New("cpi: set difference exceeds sketch capacity")

// ErrIncompatible reports mismatched sketch parameters.
var ErrIncompatible = errors.New("cpi: incompatible sketches")

// ErrBadElement reports an element outside [0, gf.P) or a duplicate.
var ErrBadElement = errors.New("cpi: invalid element")

// Sketch is one party's characteristic-polynomial summary.
type Sketch struct {
	capacity int
	seed     uint64
	count    int
	evals    []gf.Elem
}

// samplePoints derives the m shared evaluation points from the seed. The
// points are distinct by construction (regenerated on collision, which is
// astronomically rare).
func samplePoints(seed uint64, m int) []gf.Elem {
	pts := make([]gf.Elem, 0, m)
	seen := make(map[gf.Elem]bool, m)
	for ctr := 0; len(pts) < m; ctr++ {
		z := gf.New(hashutil.DeriveSeedN(seed, "cpi/sample", ctr))
		if !seen[z] {
			seen[z] = true
			pts = append(pts, z)
		}
	}
	return pts
}

// NewSketch summarizes the element set. Elements must be distinct values
// in [0, gf.P); callers with arbitrary data hash into that range first
// (see the CPI exchange in internal/protocol). capacity bounds the total
// difference |AΔB| that Diff can recover.
func NewSketch(elems []uint64, capacity int, seed uint64) (*Sketch, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("cpi: capacity %d < 1", capacity)
	}
	seen := make(map[uint64]bool, len(elems))
	for _, e := range elems {
		if e >= gf.P {
			return nil, fmt.Errorf("%w: %d ≥ field modulus", ErrBadElement, e)
		}
		if seen[e] {
			return nil, fmt.Errorf("%w: duplicate %d (cpi reconciles sets, not multisets)", ErrBadElement, e)
		}
		seen[e] = true
	}
	m := capacity + 1 + verifyPoints
	pts := samplePoints(seed, m)
	s := &Sketch{capacity: capacity, seed: seed, count: len(elems), evals: make([]gf.Elem, m)}
	// Each sample's product ∏(z−e) is a serial multiply chain, so the
	// chains of four sample points are interleaved per element to keep the
	// multiplier pipelined (the same blocking poly.EvalMany uses); one
	// element pass serves four samples.
	i := 0
	for ; i+4 <= m; i += 4 {
		z0, z1, z2, z3 := pts[i], pts[i+1], pts[i+2], pts[i+3]
		v0, v1, v2, v3 := gf.Elem(1), gf.Elem(1), gf.Elem(1), gf.Elem(1)
		for _, e := range elems {
			ee := gf.Elem(e)
			v0 = gf.Mul(v0, gf.Sub(z0, ee))
			v1 = gf.Mul(v1, gf.Sub(z1, ee))
			v2 = gf.Mul(v2, gf.Sub(z2, ee))
			v3 = gf.Mul(v3, gf.Sub(z3, ee))
		}
		s.evals[i], s.evals[i+1], s.evals[i+2], s.evals[i+3] = v0, v1, v2, v3
	}
	for ; i < m; i++ {
		v := gf.Elem(1)
		z := pts[i]
		for _, e := range elems {
			v = gf.Mul(v, gf.Sub(z, gf.Elem(e)))
		}
		s.evals[i] = v
	}
	for i, v := range s.evals {
		if v == 0 {
			// A sample point coincided with an element (probability
			// ~ n·m/2^61). A different seed resolves it.
			return nil, fmt.Errorf("cpi: sample point %d collides with an element; choose a different seed", i)
		}
	}
	return s, nil
}

// Capacity returns the sketch's difference capacity.
func (s *Sketch) Capacity() int { return s.capacity }

// Count returns the summarized set's cardinality.
func (s *Sketch) Count() int { return s.count }

// Diff recovers A∖B and B∖A from the two parties' sketches. Both results
// are sorted ascending. It returns ErrCapacityExceeded when the true
// difference does not fit.
func Diff(a, b *Sketch) (onlyA, onlyB []uint64, err error) {
	if a.capacity != b.capacity || a.seed != b.seed {
		return nil, nil, ErrIncompatible
	}
	delta := a.count - b.count
	capTotal := a.capacity
	if delta > capTotal || -delta > capTotal {
		return nil, nil, fmt.Errorf("%w: set sizes differ by %d > capacity %d", ErrCapacityExceeded, abs(delta), capTotal)
	}
	// Degrees: dA − dB = delta and dA + dB ≤ cap, with dA+dB ≡ delta (mod 2).
	capEff := capTotal
	if (capEff+delta)%2 != 0 {
		capEff--
	}
	dA := (capEff + delta) / 2
	dB := (capEff - delta) / 2
	m := dA + dB + 1
	pts := samplePoints(a.seed, a.capacity+1+verifyPoints)
	ratios := make([]gf.Elem, len(pts))
	for i := range pts {
		ratios[i] = gf.Div(a.evals[i], b.evals[i])
	}
	p, q, err := poly.RationalInterpolate(pts[:m], ratios[:m], dA, dB)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: interpolation failed: %v", ErrCapacityExceeded, err)
	}
	// Reduce to lowest terms. χ_{A∖B} and χ_{B∖A} are coprime and monic,
	// so the reduced pair must be exactly them.
	g := poly.GCD(p, q)
	if g.IsZero() {
		return nil, nil, fmt.Errorf("%w: degenerate interpolation", ErrCapacityExceeded)
	}
	pr, rem1, _ := poly.DivMod(p, g)
	qr, rem2, _ := poly.DivMod(q, g)
	if !rem1.IsZero() || !rem2.IsZero() {
		return nil, nil, fmt.Errorf("%w: non-exact reduction", ErrCapacityExceeded)
	}
	// χ_{A∖B}/χ_{B∖A} in lowest terms has monic numerator and denominator
	// (the leading coefficients of true characteristic polynomials are 1,
	// and the reduction preserves the monic denominator), so anything else
	// is overflow garbage. Lead() is 0 for the zero polynomial, so these
	// checks also reject degenerate reductions.
	if qr.Lead() != 1 {
		return nil, nil, fmt.Errorf("%w: reduced denominator not monic", ErrCapacityExceeded)
	}
	if pr.Lead() != 1 {
		return nil, nil, fmt.Errorf("%w: reduced numerator not monic", ErrCapacityExceeded)
	}
	if pr.Degree()-qr.Degree() != delta {
		return nil, nil, fmt.Errorf("%w: degree difference %d does not match size difference %d", ErrCapacityExceeded, pr.Degree()-qr.Degree(), delta)
	}
	// Verify against every sample, including the reserved extras. The two
	// polynomials are evaluated at all samples in blocked batches.
	prv := poly.EvalMany(pr, pts)
	qrv := poly.EvalMany(qr, pts)
	for i := range pts {
		if prv[i] != gf.Mul(ratios[i], qrv[i]) {
			return nil, nil, fmt.Errorf("%w: verification failed at sample %d", ErrCapacityExceeded, i)
		}
	}
	rootsA, err := poly.Roots(pr, hashutil.DeriveSeed(a.seed, "cpi/rootsA"))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCapacityExceeded, err)
	}
	rootsB, err := poly.Roots(qr, hashutil.DeriveSeed(a.seed, "cpi/rootsB"))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCapacityExceeded, err)
	}
	if len(rootsA) != pr.Degree() || len(rootsB) != qr.Degree() {
		return nil, nil, fmt.Errorf("%w: difference polynomials do not split into distinct roots", ErrCapacityExceeded)
	}
	onlyA = make([]uint64, len(rootsA))
	for i, r := range rootsA {
		onlyA[i] = uint64(r)
	}
	onlyB = make([]uint64, len(rootsB))
	for i, r := range rootsB {
		onlyB[i] = uint64(r)
	}
	return onlyA, onlyB, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

const cpiMagic = "CPI1"

// MarshalBinary encodes the sketch:
//
//	"CPI1" | capacity u32 | seed u64 | count u64 | m × u64 evals
func (s *Sketch) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, s.WireSize())
	out = append(out, cpiMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(s.capacity))
	out = binary.LittleEndian.AppendUint64(out, s.seed)
	out = binary.LittleEndian.AppendUint64(out, uint64(s.count))
	for _, v := range s.evals {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out, nil
}

// UnmarshalBinary parses MarshalBinary output.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 24 || string(data[:4]) != cpiMagic {
		return errors.New("cpi: bad magic or short buffer")
	}
	capacity := int(binary.LittleEndian.Uint32(data[4:]))
	if capacity < 1 {
		return errors.New("cpi: invalid capacity")
	}
	seed := binary.LittleEndian.Uint64(data[8:])
	count := int(binary.LittleEndian.Uint64(data[16:]))
	m := capacity + 1 + verifyPoints
	if len(data) != 24+8*m {
		return fmt.Errorf("cpi: have %d bytes, want %d", len(data), 24+8*m)
	}
	ns := &Sketch{capacity: capacity, seed: seed, count: count, evals: make([]gf.Elem, m)}
	for i := 0; i < m; i++ {
		e := gf.Elem(binary.LittleEndian.Uint64(data[24+8*i:]))
		if !e.IsCanonical() {
			return fmt.Errorf("cpi: evaluation %d not canonical", i)
		}
		ns.evals[i] = e
	}
	*s = *ns
	return nil
}

// WireSize returns the marshalled size in bytes — the baseline's
// communication cost: Θ(capacity), independent of set size.
func (s *Sketch) WireSize() int { return 24 + 8*(s.capacity+1+verifyPoints) }
