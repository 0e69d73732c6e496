package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"robustset/internal/iblt"
	"robustset/internal/points"
	"robustset/internal/workload"
)

// windowCase is one seeded instance of the window equivalence property.
type windowCase struct {
	name       string
	p          Params
	alice, bob []points.Point
}

// windowCases spans noise 0/1/4/64 × n ∈ {0, 1, 2 000, 20 000} × d ∈ {1,
// 2, 3} over five seeds (one at n = 20 000), every instance with
// duplicate points on both sides once n allows, plus instances of a
// universe whose Morton code takes two words (dim 8 × 10 bits).
func windowCases(t *testing.T) []windowCase {
	t.Helper()
	var cases []windowCase
	add := func(name string, u points.Universe, n int, noise float64, seed uint64) {
		p := Params{Universe: u, Seed: seed, DiffBudget: 4 << (seed % 3)}
		var alice, bob []points.Point
		switch n {
		case 0:
			// Bob holds nothing; Alice holds none, one or two points.
			for i := range int(seed % 3) {
				alice = append(alice, make(points.Point, u.Dim))
				alice[i][0] = int64(i*977) % u.Delta
			}
		default:
			cfg := workload.Config{N: n, Universe: u, Outliers: min(n, int(seed%4)+1), Scale: noise, Seed: seed}
			if noise > 0 {
				cfg.Noise = workload.NoiseUniform
			}
			inst := genInstance(t, cfg)
			alice, bob = inst.Alice, inst.Bob
			// Multiplicities above one, differently on the two sides.
			alice = append(alice, alice[:n/7]...)
			bob = append(bob, bob[:n/5]...)
			bob = append(bob, bob[:n/11]...)
		}
		cases = append(cases, windowCase{fmt.Sprintf("%s/n=%d/noise=%v/seed=%d", name, n, noise, seed), p, alice, bob})
	}
	for _, noise := range []float64{0, 1, 4, 64} {
		for d := 1; d <= 3; d++ {
			u := points.Universe{Dim: d, Delta: 1 << 12}
			for _, n := range []int{0, 1, 2000, 20000} {
				seeds := 5
				if n == 20000 {
					seeds = 1
				}
				for s := range seeds {
					add(fmt.Sprintf("d=%d", d), u, n, noise, uint64(100*d+10*s+len(cases)))
				}
			}
		}
	}
	wide := points.Universe{Dim: 8, Delta: 1 << 9}
	for s := range 12 {
		add("wide", wide, 300, float64(s%4*2), uint64(900+s))
	}
	return cases
}

// reconcileKept is Reconcile of sk, a sketch or a window of one, that
// takes Bob's level tables from mine and adds those it builds to it. A
// level's table depends only on the multiset and the public coins
// (ReconcileWith's contract, TestReconcileWithKeptTables), so one mine
// serves every reconcile of an instance and the result is Reconcile's.
func reconcileKept(sk *Sketch, bob []points.Point, mine map[int]*iblt.Table) (*Result, error) {
	v, err := NewView(sk.Params, bob)
	if err != nil {
		return nil, err
	}
	return v.ReconcileWith(sk, mine)
}

// cutWindow cuts the window [lo, hi] out of blob, a marshalled sketch of
// normalized parameters p, and parses it as a client holding p does.
func cutWindow(t *testing.T, blob []byte, p Params, lo, hi int) *Sketch {
	t.Helper()
	head, tail, err := SketchWindow(blob, lo, hi)
	if err != nil {
		t.Fatalf("window [%d,%d]: %v", lo, hi, err)
	}
	var w Sketch
	if err := w.UnmarshalAs(append(head, tail...), p.WithLevels(lo, hi)); err != nil {
		t.Fatalf("window [%d,%d]: %v", lo, hi, err)
	}
	return &w
}

// TestWindowReconcileMatchesFull is the property the warm robust opening
// rests on: a window's scan is the full scan restricted to the window's
// levels. Cut out of a full sketch, every window [lo, hi] with hi one of
// lo, lo+2 and MaxLevel (the whole range excepted) chooses the finest
// level of it that decodes alone, with the result — SPrime in the same
// order, Added, Removed, Level, CellWidth — of that level, and Outcomes
// from hi down to it, each level's own; ErrNoDecodableLevel when none
// does. So wherever the full scan chose a level in [lo, hi], the window
// returns the full sketch's result with the Outcomes from hi on. Bob's
// level tables are built once per instance, by its view, and every
// reconcile of it reads them (reconcileKept).
func TestWindowReconcileMatchesFull(t *testing.T) {
	t.Parallel()
	cases := windowCases(t)
	if len(cases) < 200 {
		t.Fatalf("%d instances, want at least 200", len(cases))
	}
	var windows, same, missed, other int
	for _, c := range cases {
		sk, err := BuildSketch(c.p, c.alice)
		if err != nil {
			t.Fatal(err)
		}
		p := sk.Params
		view, err := NewView(p, c.bob)
		if err != nil || view.order().len() != len(c.bob) {
			t.Fatalf("%s: the view's Morton order holds %d codes, not its %d points (%v)", c.name, view.order().len(), len(c.bob), err)
		}
		mine := make(map[int]*iblt.Table, len(sk.Tables))
		for l := p.MinLevel; l <= p.MaxLevel; l++ {
			if mine[l], err = view.BuildLevelTable(l, p.TableCapacity); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		full, ferr := reconcileKept(sk, c.bob, mine)
		if ferr != nil && !errors.Is(ferr, ErrNoDecodableLevel) {
			t.Fatalf("%s: %v", c.name, ferr)
		}
		// Each level on its own, the window [l, l]: its result, or nil
		// where it does not decode, and its decode attempt.
		alone := make([]*Result, p.MaxLevel+1)
		own := make([]LevelOutcome, p.MaxLevel+1)
		for l := p.MinLevel; l <= p.MaxLevel; l++ {
			res, err := reconcileKept(cutWindow(t, blob, p, l, l), c.bob, mine)
			if err != nil && !errors.Is(err, ErrNoDecodableLevel) {
				t.Fatalf("%s: level %d alone: %v", c.name, l, err)
			}
			if alone[l] = res; res != nil {
				own[l] = res.Outcomes[0]
				continue
			}
			tbl := sk.Tables[l-p.MinLevel].Clone()
			if err := tbl.Sub(mine[l]); err != nil {
				t.Fatal(err)
			}
			_, err = tbl.DecodeMut()
			own[l] = LevelOutcome{Level: l, Residue: err.(*iblt.DecodeError).RemainingCells}
		}
		// scan is the finest-first scan of [lo, hi] read off the levels'.
		scan := func(lo, hi int) *Result {
			var outcomes []LevelOutcome
			for l := hi; l >= lo; l-- {
				if outcomes = append(outcomes, own[l]); alone[l] != nil {
					want := *alone[l]
					want.Params = p
					want.Outcomes = outcomes
					return &want
				}
			}
			return nil
		}
		if want := scan(p.MinLevel, p.MaxLevel); !reflect.DeepEqual(full, want) {
			t.Fatalf("%s: the full scan (%v) is not the levels' own results read finest first", c.name, ferr)
		}
		for lo := p.MinLevel; lo <= p.MaxLevel; lo++ {
			for _, hi := range []int{lo + 2, p.MaxLevel} {
				if hi > p.MaxLevel || (lo == p.MinLevel && hi == p.MaxLevel) || (hi == p.MaxLevel && lo+2 == hi) {
					continue // past the range, the whole range, or a window just tried
				}
				got, gerr := reconcileKept(cutWindow(t, blob, p, lo, hi), c.bob, mine)
				windows++
				want := scan(lo, hi)
				if want == nil {
					missed++
					if !errors.Is(gerr, ErrNoDecodableLevel) {
						t.Fatalf("%s: window [%d,%d]: %v, want ErrNoDecodableLevel", c.name, lo, hi, gerr)
					}
					continue
				}
				if gerr != nil {
					t.Fatalf("%s: window [%d,%d] over levels that decode at %d: %v", c.name, lo, hi, want.Level, gerr)
				}
				got.Params = p // the window's own; a fetch reports the full range
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: window [%d,%d]: level %d, outcomes %v; want level %d, outcomes %v",
						c.name, lo, hi, got.Level, got.Outcomes, want.Level, want.Outcomes)
				}
				if full.Level <= hi { // and ≥ lo, or no level of the window would decode
					same++
					if !reflect.DeepEqual(got.Outcomes, full.Outcomes[p.MaxLevel-hi:]) {
						t.Fatalf("%s: window [%d,%d]: outcomes %v are not the full scan's %v from %d on", c.name, lo, hi, got.Outcomes, full.Outcomes, hi)
					}
				} else {
					other++
				}
			}
		}
	}
	t.Logf("%d instances, %d windows: %d reproduce the full result, %d miss, %d choose below a finer level that decodes",
		len(cases), windows, same, missed, other)
	if same == 0 || missed == 0 || other == 0 {
		t.Error("the instances exercise only some sides of the property")
	}
}

// driftStep is one instance of a drift chain, with its full sketch and
// the full scan's result.
type driftStep struct {
	name string
	sk   *Sketch
	blob []byte
	bob  []points.Point
	full *Result // nil where no level decodes
	// mine holds Bob's level tables, built by the instance's reconciles
	// as they reach them and read by every later one (reconcileKept).
	mine map[int]*iblt.Table
}

// warm is a warm robust fetch of s on the window [lo, hi] as a Client
// runs it (protocol.RunPushWindowBob's rule): below MaxLevel, a window
// whose level hi is not overloaded is an upward miss, rerun on [hi,
// MaxLevel]; one of which no level decodes is a downward miss, rerun on
// the full sketch. tables counts the level tables its sessions carried.
func (s *driftStep) warm(t *testing.T, lo, hi int) (res *Result, up, down bool, tables int) {
	t.Helper()
	p := s.sk.Params
	res, err := reconcileKept(cutWindow(t, s.blob, p, lo, hi), s.bob, s.mine)
	tables = hi - lo + 1
	if err == nil && hi < p.MaxLevel && !p.Overloaded(res.Outcomes[0]) {
		up, tables = true, tables+p.MaxLevel-hi+1
		res, err = reconcileKept(cutWindow(t, s.blob, p, hi, p.MaxLevel), s.bob, s.mine)
	}
	if errors.Is(err, ErrNoDecodableLevel) {
		down, tables = true, tables+len(s.sk.Tables)
		res, err = reconcileKept(s.sk, s.bob, s.mine)
	}
	if err != nil && !errors.Is(err, ErrNoDecodableLevel) {
		t.Fatalf("%s: window [%d,%d]: %v", s.name, lo, hi, err)
	}
	if res != nil {
		res.Params = p
	}
	return res, up, down, tables
}

// sameBut reports whether got is want but for Outcomes, which must be
// want's from got's first on.
func sameBut(got, want *Result) bool {
	if got == nil || want == nil {
		return got == want
	}
	if len(got.Outcomes) > len(want.Outcomes) || !reflect.DeepEqual(got.Outcomes, want.Outcomes[len(want.Outcomes)-len(got.Outcomes):]) {
		return false
	}
	g, w := *got, *want
	g.Outcomes, w.Outcomes = nil, nil
	return reflect.DeepEqual(g, w)
}

// driftChains returns the drift chains of one scale f: E6's noise sweep
// and E3's dimension sweep, each in both directions, reps times over,
// and one chain of 6·reps neighbouring seeds of the ruler's shape, every
// instance of f twentieths of the ruler's size and DiffBudget (f = 20 is
// the ruler's, f = 2 the cluster's DiffBudget). Seeds are offset by off.
// Each chain is handed to visit as soon as it is built.
func driftChains(t *testing.T, f, reps int, off uint64, visit func([]*driftStep)) {
	step := func(name string, cfg workload.Config, p Params) *driftStep {
		inst := genInstance(t, cfg)
		sk, err := BuildSketch(p, inst.Alice)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		mine := make(map[int]*iblt.Table, len(sk.Tables))
		full, err := reconcileKept(sk, inst.Bob, mine)
		if err != nil && !errors.Is(err, ErrNoDecodableLevel) {
			t.Fatalf("%s: %v", name, err)
		}
		return &driftStep{name: name, sk: sk, blob: blob, bob: inst.Bob, full: full, mine: mine}
	}
	bothWays := func(chain []*driftStep) {
		visit(chain)
		slices.Reverse(chain)
		visit(chain)
	}
	for rep := range uint64(reps) {
		var e6, e3 []*driftStep
		u := points.Universe{Dim: 2, Delta: 1 << 20}
		for _, eps := range []float64{1, 4, 16, 64, 256, 1024} {
			cfg := workload.Config{N: 512 * f, Universe: u, Outliers: 8 * f, Noise: workload.NoiseUniform, Scale: eps, Seed: off + 6000 + rep}
			e6 = append(e6, step(fmt.Sprintf("E6/f=%d/rep=%d/eps=%v", f, rep, eps), cfg, testParams(u, 8*f, off+100+rep)))
		}
		for _, d := range []int{1, 2, 4, 8, 16} {
			ud := points.Universe{Dim: d, Delta: 1 << 16}
			cfg := workload.Config{N: 256 * f, Universe: ud, Outliers: 4 * f, Noise: workload.NoiseUniform, Scale: 2, Seed: off + 3000 + rep}
			e3 = append(e3, step(fmt.Sprintf("E3/f=%d/rep=%d/d=%d", f, rep, d), cfg, testParams(ud, 4*f, off+31+rep)))
		}
		bothWays(e6)
		bothWays(e3)
	}
	var ruler []*driftStep
	for s := range uint64(6 * reps) {
		u := points.Universe{Dim: 2, Delta: 1 << 20}
		cfg := workload.Config{N: 1000 * f, Universe: u, Outliers: 3 * f, Noise: workload.NoiseUniform, Scale: 4, Seed: off + 42 + s}
		ruler = append(ruler, step(fmt.Sprintf("ruler/f=%d/seed=%d", f, off+42+s), cfg, testParams(u, 8*f, off+7+s)))
	}
	visit(ruler)
}

// driftTally counts one table capacity's drifting pairs.
type driftTally struct {
	pairs, cold, ups, upCold, downs, disagree, wide int
	// upTables is what the upward misses' sessions carried, coldTables
	// what they would have had their reruns been cold.
	upTables, coldTables int
}

// TestWindowDrift measures the one way a two-sided warm window can return
// another result than the full sketch: its finest level hi is overloaded
// while a finer level decodes. Chains of drifting instances are fetched
// in turn, each on the window the result of the fetch before it leaves:
// E6's noise sweep and E3's dimension sweep in both directions, and
// neighbouring seeds of the ruler's shape, at a twentieth of the ruler's
// size and DiffBudget (the instances the miss rule was chosen on) and,
// on seeds of their own, at a tenth (the cluster's DiffBudget) and at the
// ruler's. An upward miss must return the full result exactly, a
// downward miss is the full result, and every other result must be the
// full one unless it is such a peel inversion; those stay at most 0.1 %
// of the pairs. Each instance fetched on the window its own full result
// leaves runs one session and gets the full result.
func TestWindowDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("2 000 drifting pairs")
	}
	t.Parallel()
	tallies := map[int]*driftTally{}
	visit := func(chain []*driftStep) {
		var prev *Result // what the chain's last fetch returned
		for i, s := range chain {
			p := s.sk.Params
			if s.full != nil { // unchanged data: the window its own result leaves
				if lo, hi, ok := WarmWindow(s.full); ok {
					if res, up, down, _ := s.warm(t, lo, hi); up || down || !sameBut(res, s.full) {
						t.Fatalf("%s on the window [%d,%d] of its own result: up %v, down %v", s.name, lo, hi, up, down)
					}
				}
			}
			tl := tallies[p.TableCapacity]
			if tl == nil {
				tl = new(driftTally)
				tallies[p.TableCapacity] = tl
			}
			lo, hi, ok := 0, 0, prev != nil
			if ok {
				lo, hi, ok = WarmWindow(prev)
			}
			if !ok {
				tl.cold += boolStat(i > 0)
				prev = s.full
				continue
			}
			tl.pairs++
			tl.wide += boolStat(hi-lo > 2)
			res, up, down, tables := s.warm(t, lo, hi)
			prev = res
			if up {
				tl.ups++
				tl.upCold += boolStat(down)
				tl.upTables += tables
				tl.coldTables += hi - lo + 1 + len(s.sk.Tables)
			}
			tl.downs += boolStat(down && !up)
			if sameBut(res, s.full) && (!(up || down) || reflect.DeepEqual(res, s.full)) {
				continue
			}
			if up || down || s.full == nil || res.Level >= hi || s.full.Level <= hi {
				t.Fatalf("%s on [%d,%d] after %s: level %d (up %v, down %v), the full scan's %v: not a peel inversion at %d",
					s.name, lo, hi, chain[i-1].name, res.Level, up, down, s.full, hi)
			}
			tl.disagree++
			t.Logf("%s on [%d,%d] after %s: level %d, the full scan's %d", s.name, lo, hi, chain[i-1].name, res.Level, s.full.Level)
		}
	}
	driftChains(t, 1, 60, 0, visit)
	driftChains(t, 2, 20, 1<<20, visit)
	driftChains(t, 20, 4, 2<<20, visit)
	var all driftTally
	for _, c := range slices.Sorted(maps.Keys(tallies)) {
		tl := tallies[c]
		t.Logf("capacity %d: %d pairs opened warm (%d cold): %d upward misses (%d then cold), %d downward, %d disagree with the full scan; %d windows wider than three levels; the upward misses carried %d tables, %d with cold reruns",
			c, tl.pairs, tl.cold, tl.ups, tl.upCold, tl.downs, tl.disagree, tl.wide, tl.upTables, tl.coldTables)
		all.pairs += tl.pairs
		all.disagree += tl.disagree
	}
	if all.pairs < 1000 || all.disagree*1000 > all.pairs {
		t.Errorf("%d of %d pairs disagree; want at least 1 000 pairs and at most 0.1 %%", all.disagree, all.pairs)
	}
}

// TestSketchWindowIsTheClampedSketch: the window cut from a sketch's
// bytes is, byte for byte, the sketch built under WithLevels(lo, hi), its
// tail is the full blob's tables lo through hi; a window outside the
// range, with lo > hi, or of the whole range is refused, as is a blob
// truncated inside the window, while one truncated after it still gives
// it.
func TestSketchWindowIsTheClampedSketch(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{N: 500, Universe: u, Outliers: 5, Noise: workload.NoiseUniform, Scale: 3, Seed: 3})
	for _, p := range []Params{testParams(u, 8, 1), testParams(u, 8, 2).WithLevels(3, 9)} {
		sk, err := BuildSketch(p, inst.Alice)
		if err != nil {
			t.Fatal(err)
		}
		p = sk.Params
		blob, _ := sk.MarshalBinary()
		// off[i] is where the table of level MinLevel+i starts in blob.
		off := []int{sketchHeaderSize}
		for _, tbl := range sk.Tables {
			off = append(off, off[len(off)-1]+4+tbl.WireSize())
		}
		for lo := p.MinLevel; lo <= p.MaxLevel; lo++ {
			for hi := lo; hi <= p.MaxLevel; hi++ {
				if lo == p.MinLevel && hi == p.MaxLevel {
					continue
				}
				head, tail, err := SketchWindow(blob, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				clamped, err := BuildSketch(p.WithLevels(lo, hi), inst.Alice)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := clamped.MarshalBinary()
				if got := append(head, tail...); !bytes.Equal(got, want) {
					t.Errorf("levels [%d,%d]: window of %d bytes differs from the clamped sketch's %d", lo, hi, len(got), len(want))
				}
				end := off[hi-p.MinLevel+1]
				if !bytes.Equal(tail, blob[off[lo-p.MinLevel]:end]) || len(head) != sketchHeaderSize {
					t.Errorf("levels [%d,%d]: the window is not a header and the blob's tables", lo, hi)
				}
				if h, tl, err := SketchWindow(blob[:end], lo, hi); err != nil || !bytes.Equal(h, head) || !bytes.Equal(tl, tail) {
					t.Errorf("levels [%d,%d]: a blob cut right after the window gave %v", lo, hi, err)
				}
				if _, _, err := SketchWindow(blob[:end-1], lo, hi); err == nil {
					t.Errorf("levels [%d,%d]: a blob cut inside the window's last table gave a window", lo, hi)
				}
			}
		}
		for _, w := range [][2]int{
			{p.MinLevel, p.MaxLevel}, {p.MinLevel - 1, p.MaxLevel - 1}, {p.MinLevel + 1, p.MaxLevel + 1},
			{p.MaxLevel, p.MaxLevel - 1}, {p.MinLevel + 2, p.MinLevel + 1}, {256, 256}, {p.MaxLevel + 1, p.MaxLevel + 1},
		} {
			if _, _, err := SketchWindow(blob, w[0], w[1]); !errors.Is(err, ErrLevelOutOfRange) {
				t.Errorf("levels [%d,%d]: window %v: %v, want ErrLevelOutOfRange", p.MinLevel, p.MaxLevel, w, err)
			}
		}
		for _, cut := range []int{0, sketchHeaderSize - 1, sketchHeaderSize + 2, len(blob) / 2} {
			if _, _, err := SketchWindow(blob[:cut], p.MaxLevel, p.MaxLevel); err == nil {
				t.Errorf("a blob cut at %d of %d bytes gave a window", cut, len(blob))
			}
		}
	}
}

// TestUnmarshalAsRefusesOtherParams: a sketch whose header carries other
// parameters than the caller's is ErrInconsistentSketch — another
// MinLevel, seed or capacity — and its own parameters unmarshal it.
func TestUnmarshalAsRefusesOtherParams(t *testing.T) {
	u := points.Universe{Dim: 2, Delta: 1 << 12}
	inst := genInstance(t, workload.Config{N: 200, Universe: u, Outliers: 3, Seed: 4})
	p, err := testParams(u, 8, 5).WithLevels(4, 12).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildSketch(p, inst.Alice)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := sk.MarshalBinary()
	var got Sketch
	if err := got.UnmarshalAs(blob, p); err != nil || !reflect.DeepEqual(got.Params, sk.Params) {
		t.Fatalf("the sketch's own parameters: %v", err)
	}
	other := p
	other.TableCapacity++
	for _, want := range []Params{p.WithLevels(3, 12), p.WithLevels(4, 11), testParams(u, 8, 6).WithLevels(4, 12), other} {
		if want, err = want.Normalized(); err != nil {
			t.Fatal(err)
		}
		if err := got.UnmarshalAs(blob, want); !errors.Is(err, ErrInconsistentSketch) {
			t.Errorf("want %+v: %v, want ErrInconsistentSketch", want, err)
		}
	}
}

// boolStat counts b.
func boolStat(b bool) int {
	if b {
		return 1
	}
	return 0
}
