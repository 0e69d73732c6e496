package core

import (
	"bytes"
	"fmt"

	"robustset/internal/points"
)

// NewMaintainerFromSketch rebuilds a Maintainer from a recovered point
// multiset and its previously serialized sketch, adopting the sketch's
// tables instead of re-inserting every (cell, occurrence) key. Only the
// points' sorted Morton codes are recomputed — the presort a View makes,
// with no IBLT work — so recovery costs a fraction of a fresh build and
// the adopted tables are bit-for-bit the ones that were persisted.
//
// The sketch must actually describe pts: its parameters must equal p
// (compared on the normalized wire encoding) and its count must match.
// Table contents are trusted — the caller's snapshot CRC vouches for
// them; VerifyFreshBuild offers a full cross-check where paranoia is
// warranted.
func NewMaintainerFromSketch(p Params, pts []points.Point, sk *Sketch) (*Maintainer, error) {
	p, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	pw, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	sw, err := sk.Params.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: recover: sketch params: %w", err)
	}
	if !bytes.Equal(pw, sw) {
		return nil, fmt.Errorf("core: recover: sketch parameters differ from the dataset's")
	}
	if sk.Count != len(pts) {
		return nil, fmt.Errorf("core: recover: sketch summarizes %d points, recovered state has %d", sk.Count, len(pts))
	}
	if got, want := len(sk.Tables), p.MaxLevel-p.MinLevel+1; got != want {
		return nil, fmt.Errorf("core: recover: sketch has %d tables for level range [%d,%d]", got, p.MinLevel, p.MaxLevel)
	}
	v, err := NewView(p, pts)
	if err != nil {
		return nil, err
	}
	return newMaintainer(v, sk.Tables, 0)
}

// VerifyFreshBuild checks the maintainer's live sketch against a fresh
// BuildSketch of pts on the wire encoding — the byte-identity invariant
// the churn tests pin, promoted to a runtime oracle recovery can invoke.
// pts must be the maintainer's current multiset.
func (m *Maintainer) VerifyFreshBuild(pts []points.Point) error {
	fresh, err := BuildSketch(m.params, pts)
	if err != nil {
		return fmt.Errorf("core: verify: fresh build: %w", err)
	}
	want, err := fresh.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: verify: %w", err)
	}
	got, err := m.Sketch().MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: verify: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("core: verify: maintained sketch (%d bytes) differs from fresh build (%d bytes) on %d points", len(got), len(want), len(pts))
	}
	return nil
}
