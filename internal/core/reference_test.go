package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"robustset/internal/grid"
	"robustset/internal/hashutil"
	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/sketch"
)

// Reference implementations: the occupancy-map estimator loop, the
// all-levels Reconcile and the sort-based repair exactly as they stood
// before the ordered view replaced them. They live in test files only;
// the differential tests hold the view's output byte-identical to them.

// refFillLevel is the map-path level fill: occurrence indices from a
// per-cell counter, in slice order.
func refFillLevel(t *iblt.Table, g *grid.Grid, level int, pts []points.Point) {
	occ := map[string]uint32{}
	var buf []byte
	for _, p := range pts {
		buf = g.AppendCell(buf[:0], level, p)
		o := occ[string(buf)]
		occ[string(buf)] = o + 1
		buf = append(buf, byte(o), byte(o>>8), byte(o>>16), byte(o>>24))
		t.Insert(buf)
	}
}

func refLevelEstimators(p Params, pts []points.Point, k int) ([]*sketch.BottomK, error) {
	p, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	if err := p.Universe.CheckSet(pts); err != nil {
		return nil, err
	}
	g, err := gridFor(p)
	if err != nil {
		return nil, err
	}
	ests := make([]*sketch.BottomK, 0, p.MaxLevel-p.MinLevel+1)
	buf := make([]byte, 0, KeyLen(p.Universe.Dim))
	for l := p.MinLevel; l <= p.MaxLevel; l++ {
		e, err := sketch.NewBottomK(k, hashutil.DeriveSeedN(p.Seed, "core/est", l))
		if err != nil {
			return nil, err
		}
		occ := map[string]uint32{}
		for _, pt := range pts {
			buf = g.AppendCell(buf[:0], l, pt)
			o := occ[string(buf)]
			occ[string(buf)] = o + 1
			buf = append(buf, byte(o), byte(o>>8), byte(o>>16), byte(o>>24))
			e.Add(buf)
		}
		ests = append(ests, e)
	}
	return ests, nil
}

func refBuildLevelTable(p Params, pts []points.Point, level, capacity int) (*iblt.Table, error) {
	p, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	g, err := gridFor(p)
	if err != nil {
		return nil, err
	}
	t, err := iblt.New(levelConfig(p, level, capacity))
	if err != nil {
		return nil, err
	}
	refFillLevel(t, g, level, pts)
	return t, nil
}

// refReconcile builds Bob's table at every level up front and scans
// finest to coarsest.
func refReconcile(s *Sketch, bobPts []points.Point) (*Result, error) {
	p, err := s.Params.Normalized()
	if err != nil {
		return nil, err
	}
	if len(s.Tables) != p.MaxLevel-p.MinLevel+1 {
		return nil, fmt.Errorf("core: sketch has %d tables for level range [%d,%d]", len(s.Tables), p.MinLevel, p.MaxLevel)
	}
	if err := p.Universe.CheckSet(bobPts); err != nil {
		return nil, err
	}
	g, err := gridFor(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Params: p}
	for l := p.MaxLevel; l >= p.MinLevel; l-- {
		idx := l - p.MinLevel
		mine, err := iblt.New(levelConfig(p, l, p.TableCapacity))
		if err != nil {
			return nil, err
		}
		refFillLevel(mine, g, l, bobPts)
		scratch := s.Tables[idx].Clone()
		if err := scratch.Sub(mine); err != nil {
			return nil, fmt.Errorf("core: level %d: %w", l, err)
		}
		diff, derr := scratch.DecodeMut()
		if derr != nil {
			res.Outcomes = append(res.Outcomes, LevelOutcome{Level: l, Residue: derr.(*iblt.DecodeError).RemainingCells})
			continue
		}
		res.Outcomes = append(res.Outcomes, LevelOutcome{Level: l, Decoded: true, DiffSize: diff.Size()})
		if err := refRepair(res, g, l, diff, bobPts); err != nil {
			return nil, err
		}
		return res, nil
	}
	return nil, ErrNoDecodableLevel
}

func refReconcileLevel(p Params, aliceTable *iblt.Table, bobPts []points.Point, level int) (*Result, error) {
	p, err := p.Normalized()
	if err != nil {
		return nil, err
	}
	g, err := gridFor(p)
	if err != nil {
		return nil, err
	}
	mine, err := iblt.New(aliceTable.Config())
	if err != nil {
		return nil, err
	}
	refFillLevel(mine, g, level, bobPts)
	t := aliceTable.Clone()
	if err := t.Sub(mine); err != nil {
		return nil, err
	}
	diff, err := t.Decode()
	if err != nil {
		return nil, fmt.Errorf("core: level %d table did not decode: %w", level, err)
	}
	res := &Result{Params: p, Outcomes: []LevelOutcome{{Level: level, Decoded: true, DiffSize: diff.Size()}}}
	if err := refRepair(res, g, level, diff, bobPts); err != nil {
		return nil, err
	}
	return res, nil
}

// splitKey decodes an IBLT key back into cell and occurrence.
func splitKey(g *grid.Grid, key []byte) (grid.Cell, uint32, error) {
	cs := g.EncodedCellSize()
	if len(key) != cs+4 {
		return nil, 0, fmt.Errorf("core: key length %d, want %d", len(key), cs+4)
	}
	c := make(grid.Cell, g.Dim())
	for i := range c {
		c[i] = int64(binary.LittleEndian.Uint64(key[8*i:]))
	}
	occ := binary.LittleEndian.Uint32(key[cs:])
	return c, occ, nil
}

// refRepair resolves Bob-only keys through a global sort of all of Bob's
// points by (encoded cell, index).
func refRepair(res *Result, g *grid.Grid, level int, diff *iblt.Diff, bobPts []points.Point) error {
	res.Level = level
	res.CellWidth = g.CellWidth(level)
	cs := g.EncodedCellSize()
	cells := make([]byte, 0, len(bobPts)*cs)
	for _, p := range bobPts {
		cells = g.AppendCell(cells, level, p)
	}
	cellAt := func(i int32) []byte { return cells[int(i)*cs : (int(i)+1)*cs] }
	order := make([]int32, len(bobPts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := bytes.Compare(cellAt(a), cellAt(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	cellBuf := make([]byte, 0, cs)
	remove := make(map[int]bool, len(diff.Neg))
	for _, key := range diff.Neg {
		cell, occ, err := splitKey(g, key)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInconsistentSketch, err)
		}
		cellBuf = g.EncodeCell(cellBuf[:0], cell)
		first := sort.Search(len(order), func(j int) bool {
			return bytes.Compare(cellAt(order[j]), cellBuf) >= 0
		})
		run := 0
		for first+run < len(order) && bytes.Equal(cellAt(order[first+run]), cellBuf) {
			run++
		}
		if int(occ) >= run {
			return fmt.Errorf("%w: bob-only key names occurrence %d of a cell with %d local points", ErrInconsistentSketch, occ, run)
		}
		idx := int(order[first+int(occ)])
		if remove[idx] {
			return fmt.Errorf("%w: point %d removed twice", ErrInconsistentSketch, idx)
		}
		remove[idx] = true
		res.Removed = append(res.Removed, bobPts[idx])
	}
	res.SPrime = make([]points.Point, 0, len(bobPts)-len(remove)+len(diff.Pos))
	for i, p := range bobPts {
		if !remove[i] {
			res.SPrime = append(res.SPrime, p.Clone())
		}
	}
	for _, key := range diff.Pos {
		if _, _, err := splitKey(g, key); err != nil {
			return fmt.Errorf("%w: %v", ErrInconsistentSketch, err)
		}
		center := make(points.Point, g.Dim())
		g.PutCenter(center, level, key)
		res.Added = append(res.Added, center)
		res.SPrime = append(res.SPrime, center)
	}
	return nil
}

// refCodes returns the points' Morton codes, sorted, a bit at a time: bit
// b of shifted coordinate j is code bit b·d + (d−1−j), counted from the
// lowest bit of the last of ⌈d·(L+1)/64⌉ words.
func refCodes(g *grid.Grid, pts []points.Point) []uint64 {
	d, bits, shift := g.Dim(), g.Levels()+1, g.Shift()
	codes := make([][]uint64, len(pts))
	for i, p := range pts {
		codes[i] = make([]uint64, (d*bits+63)/64)
		for j, x := range p {
			for b := range bits {
				if at := b*d + d - 1 - j; uint64(x+shift[j])>>b&1 == 1 {
					codes[i][len(codes[i])-1-at/64] |= 1 << (at % 64)
				}
			}
		}
	}
	slices.SortFunc(codes, slices.Compare)
	return slices.Concat(codes...)
}
